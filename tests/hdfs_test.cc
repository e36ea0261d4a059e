// Integration tests for vanilla HDFS on the virtualized substrate:
// namenode metadata, datanode service, DFSClient read1/read2, the write
// pipeline, and replica selection.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/cluster.h"
#include "core/vread_daemon.h"
#include "hdfs/dfs_client.h"
#include "mem/buffer.h"
#include "sim/name.h"
#include "sim/random.h"

namespace vread::hdfs {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using mem::Buffer;

ClusterConfig small_blocks() {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;  // 4 MB blocks keep tests fast
  return cfg;
}

// One host: client VM + co-located datanode.
struct ColocatedBed {
  Cluster cluster;
  ColocatedBed() : cluster(small_blocks()) {
    cluster.add_host("host1");
    cluster.add_vm("host1", "client");
    cluster.create_namenode("client");
    cluster.add_datanode("host1", "datanode1");
    cluster.add_client("client");
  }
};

TEST(NameNodeMeta, FileAndBlockLifecycle) {
  ColocatedBed bed;
  NameNode& nn = bed.cluster.namenode();
  nn.create_file("/f", 1024);
  EXPECT_TRUE(nn.exists("/f"));
  EXPECT_THROW(nn.create_file("/f"), HdfsError);
  BlockInfo& b1 = nn.add_block("/f", {"datanode1"});
  EXPECT_EQ(b1.name, "blk_" + std::to_string(b1.id));
  // Cannot add a second block while the first is open.
  EXPECT_THROW(nn.add_block("/f", {"datanode1"}), HdfsError);
  nn.complete_block("/f", b1.id, 1024);
  // Write-once: re-finalizing throws.
  EXPECT_THROW(nn.complete_block("/f", b1.id, 1024), HdfsError);
  EXPECT_EQ(nn.file_size("/f"), 1024u);
  auto locs = nn.get_block_locations("/f", 0, 1024);
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].locations.front(), "datanode1");
}

TEST(NameNodeMeta, BlockEventsFireOnCompleteAndDelete) {
  ColocatedBed bed;
  NameNode& nn = bed.cluster.namenode();
  std::vector<std::string> events;
  nn.register_listener([&](const NameNode::BlockEvent& ev) {
    events.push_back(ev.datanode_id + ":" + ev.block_name +
                     (ev.kind == NameNode::BlockEvent::Kind::kComplete ? ":c" : ":d"));
  });
  nn.create_file("/f");
  BlockInfo& b = nn.add_block("/f", {"datanode1", "datanode2"});
  const std::string name = b.name;  // copy: remove_file invalidates b
  nn.complete_block("/f", b.id, 10);
  ASSERT_EQ(events.size(), 2u);  // one per replica
  EXPECT_EQ(events[0], "datanode1:" + name + ":c");
  nn.remove_file("/f");
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[3], "datanode2:" + name + ":d");
}

TEST(NameNodeMeta, RangeQueriesReturnOverlappingBlocks) {
  ColocatedBed bed;
  NameNode& nn = bed.cluster.namenode();
  nn.create_file("/f", 100);
  for (int i = 0; i < 3; ++i) {
    BlockInfo& b = nn.add_block("/f", {"datanode1"});
    nn.complete_block("/f", b.id, 100);
  }
  EXPECT_EQ(nn.get_block_locations("/f", 0, 300).size(), 3u);
  EXPECT_EQ(nn.get_block_locations("/f", 0, 100).size(), 1u);
  EXPECT_EQ(nn.get_block_locations("/f", 150, 10).size(), 1u);
  EXPECT_EQ(nn.get_block_locations("/f", 99, 2).size(), 2u);
}

TEST(NameNodeMeta, RangeRunningPastTheAddressSpaceEndsAtTheLastBlock) {
  ColocatedBed bed;
  NameNode& nn = bed.cluster.namenode();
  nn.create_file("/f", 100);
  for (int i = 0; i < 3; ++i) {
    BlockInfo& b = nn.add_block("/f", {"datanode1"});
    nn.complete_block("/f", b.id, 100);
  }
  // offset + len wraps past 2^64: a "read to EOF" must not lose blocks.
  EXPECT_EQ(nn.get_block_locations("/f", 150, UINT64_MAX - 100).size(), 2u);
  EXPECT_EQ(nn.get_block_locations("/f", 0, UINT64_MAX).size(), 3u);
  EXPECT_EQ(nn.get_block_locations("/f", 299, UINT64_MAX).size(), 1u);
  EXPECT_EQ(nn.get_block_locations("/f", 300, UINT64_MAX).size(), 0u);
  EXPECT_EQ(nn.get_block_locations("/f", UINT64_MAX, UINT64_MAX).size(), 0u);
}

sim::Task dfsio_read_all(DfsClient& client, std::string path,
                         std::uint64_t buf_size, Buffer& out) {
  std::unique_ptr<DfsInputStream> in;
  co_await client.open(path, in);
  for (;;) {
    Buffer chunk;
    co_await in->read(buf_size, chunk);
    if (chunk.empty()) break;
    out.append(chunk);
  }
  co_await in->close();
}

TEST(DfsRead, SequentialReadSpansBlocks) {
  ColocatedBed bed;
  const std::uint64_t size = 10 * 1024 * 1024;  // 2.5 blocks
  bed.cluster.preload_file("/data", size, 7, {{"datanode1"}});
  bed.cluster.drop_all_caches();
  DfsClient* client = bed.cluster.client("client");
  Buffer got;
  bed.cluster.sim().spawn(dfsio_read_all(*client, "/data", 1 << 20, got));
  bed.cluster.sim().run();
  EXPECT_EQ(got.size(), size);
  EXPECT_EQ(got, Buffer::deterministic(7, 0, size));
}

TEST(DfsRead, OddBufferSizesPreserveContent) {
  ColocatedBed bed;
  const std::uint64_t size = 5 * 1024 * 1024 + 333;
  bed.cluster.preload_file("/data", size, 8, {{"datanode1"}});
  DfsClient* client = bed.cluster.client("client");
  for (std::uint64_t buf : {64ULL * 1024, 1234567ULL, 4ULL << 20}) {
    Buffer got;
    bed.cluster.sim().spawn(dfsio_read_all(*client, "/data", buf, got));
    bed.cluster.sim().run();
    EXPECT_EQ(got, Buffer::deterministic(8, 0, size)) << "buf=" << buf;
  }
}

sim::Task pread_proc(DfsClient& client, std::string path, std::uint64_t pos,
                     std::uint64_t len, Buffer& out) {
  std::unique_ptr<DfsInputStream> in;
  co_await client.open(path, in);
  co_await in->pread(pos, len, out);
  co_await in->close();
}

TEST(DfsRead, PositionalReadAcrossBlockBoundary) {
  ColocatedBed bed;
  const std::uint64_t size = 12 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 9, {{"datanode1"}});
  DfsClient* client = bed.cluster.client("client");
  // Range straddling the 4 MB block boundary.
  const std::uint64_t pos = 4 * 1024 * 1024 - 1000;
  const std::uint64_t len = 5000;
  Buffer got;
  bed.cluster.sim().spawn(pread_proc(*client, "/data", pos, len, got));
  bed.cluster.sim().run();
  EXPECT_EQ(got, Buffer::deterministic(9, pos, len));
}

TEST(DfsRead, PositionalReadToEndOfAddressSpaceStopsAtEof) {
  // len = UINT64_MAX - 10 makes offset + len wrap; the read must still
  // return every byte from `pos` to the end of the file, on the socket
  // path and on the vRead path.
  for (const bool vread : {false, true}) {
    ColocatedBed bed;
    const std::uint64_t size = 12 * 1024 * 1024;
    bed.cluster.preload_file("/data", size, 9, {{"datanode1"}});
    if (vread) bed.cluster.enable_vread();
    DfsClient* client = bed.cluster.client("client");
    const std::uint64_t pos = 4 * 1024 * 1024 - 1000;
    Buffer got;
    bed.cluster.sim().spawn(pread_proc(*client, "/data", pos, UINT64_MAX - 10, got));
    bed.cluster.sim().run();
    EXPECT_EQ(got.size(), 8'389'608u) << "vread=" << vread;
    EXPECT_EQ(got, Buffer::deterministic(9, pos, size - pos)) << "vread=" << vread;
  }
}

TEST(DfsRead, SeekInvalidatesStreamButKeepsCorrectness) {
  ColocatedBed bed;
  const std::uint64_t size = 8 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 10, {{"datanode1"}});
  DfsClient* client = bed.cluster.client("client");
  Buffer a, b;
  auto proc = [](DfsClient& c, Buffer& out1, Buffer& out2) -> sim::Task {
    std::unique_ptr<DfsInputStream> in;
    co_await c.open("/data", in);
    co_await in->read(100'000, out1);
    in->seek(6 * 1024 * 1024);
    co_await in->read(100'000, out2);
    co_await in->close();
  };
  bed.cluster.sim().spawn(proc(*client, a, b));
  bed.cluster.sim().run();
  EXPECT_EQ(a, Buffer::deterministic(10, 0, 100'000));
  EXPECT_EQ(b, Buffer::deterministic(10, 6 * 1024 * 1024, 100'000));
}

// 8 KiB preads at seeded offsets through the hedged vRead path (QoS with
// the EDF lane, coalescing, a local primary and a remote hedge replica).
// The counters are sampled after `warmup` reads.
sim::Task interning_reader(DfsClient* client, int warmup, int reads, std::size_t* calls,
                           std::size_t* names, std::uint64_t* bad) {
  std::unique_ptr<DfsInputStream> in;
  co_await client->open("/data", in);
  sim::Rng rng(5);
  for (int i = 0; i < warmup + reads; ++i) {
    if (i == warmup) {
      *calls = sim::Name::intern_calls();
      *names = sim::Name::interned_count();
    }
    ReadRequest req;
    req.offset = rng.next() % (in->size() / 8192) * 8192;
    req.len = 8192;
    req.deadline = client->vm().host().sim().now() + sim::ms(25);
    ReadResult res;
    co_await in->read(req, res);
    if (res.data != Buffer::deterministic(31, req.offset, req.len)) ++*bad;
  }
  co_await in->close();
}

// The interning rule (sim/name.h): names are built where they first
// appear, so once a stream is warm its reads build no Name at all — the
// intern table neither grows nor is consulted.
TEST(DfsRead, WarmPreadsBuildNoNames) {
  Cluster cluster(small_blocks());
  cluster.add_host("host1");
  cluster.add_host("host2");
  cluster.add_vm("host1", "client");
  cluster.create_namenode("client");
  cluster.add_datanode("host1", "datanode1");
  cluster.add_datanode("host2", "datanode2");
  DfsClient& client = cluster.add_client("client");
  cluster.preload_file("/data", 12 * 1024 * 1024, 31, {{"datanode1", "datanode2"}});
  core::DaemonConfig dc;
  dc.workers = 2;
  dc.qos.edf = true;
  cluster.enable_vread(dc);
  HedgeConfig hc;
  hc.enabled = true;
  hc.min_delay = sim::us(20);
  hc.max_delay = sim::us(40);
  hc.warmup = 1u << 30;  // every read hedges after max_delay
  client.set_hedge(hc);
  std::size_t calls = 0;
  std::size_t names = 0;
  std::uint64_t bad = 0;
  cluster.run_job(interning_reader(&client, 100, 1000, &calls, &names, &bad));
  EXPECT_EQ(bad, 0u);
  EXPECT_GT(client.vread_path_reads(), 1000u);
  EXPECT_GT(client.hedge_launched(), 0u);
  EXPECT_EQ(sim::Name::interned_count(), names);
  EXPECT_EQ(sim::Name::intern_calls(), calls);
}

TEST(DfsWrite, PipelineReplicatesToAllDatanodes) {
  Cluster cluster(small_blocks());
  cluster.add_host("host1");
  cluster.add_host("host2");
  cluster.add_vm("host1", "client");
  cluster.create_namenode("client");
  cluster.add_datanode("host1", "datanode1");
  cluster.add_datanode("host2", "datanode2");
  DfsClient& client = cluster.add_client("client");

  const std::uint64_t size = 6 * 1024 * 1024;
  Buffer data = Buffer::deterministic(11, 0, size);
  auto writer = [](DfsClient& c, const Buffer& d, std::uint64_t bs) -> sim::Task {
    std::vector<std::string> pipeline = {"datanode1", "datanode2"};
    co_await c.write_file("/out", d, Cluster::place_on(pipeline), bs);
  };
  cluster.sim().spawn(writer(client, data, cluster.config().block_size));
  cluster.sim().run();

  EXPECT_EQ(cluster.namenode().file_size("/out"), size);
  // Every block file exists on both datanodes with identical bytes.
  for (const BlockInfo& b : cluster.namenode().all_blocks("/out")) {
    for (const std::string& dn_id : {std::string("datanode1"), std::string("datanode2")}) {
      DataNode* dn = cluster.datanode(dn_id);
      auto ino = dn->vm().fs().lookup(DataNode::block_path(b.name));
      ASSERT_TRUE(ino.has_value()) << dn_id << " missing " << b.name;
      EXPECT_EQ(dn->vm().fs().file_size(*ino), b.size);
    }
  }
  // Read back through HDFS and verify.
  Buffer got;
  cluster.sim().spawn(dfsio_read_all(client, "/out", 1 << 20, got));
  cluster.sim().run();
  EXPECT_EQ(got, data);
}

TEST(DfsWrite, UnalignedStreamWritesReplicateEveryBlockExactly) {
  // 3 MiB + 1 byte writes never line up with the 4 MiB blocks, so the
  // stream's pending bytes (views of the caller's buffer) cross a block
  // boundary on almost every write.
  Cluster cluster(small_blocks());
  cluster.add_host("host1");
  cluster.add_host("host2");
  cluster.add_vm("host1", "client");
  cluster.create_namenode("client");
  cluster.add_datanode("host1", "datanode1");
  cluster.add_datanode("host2", "datanode2");
  DfsClient& client = cluster.add_client("client");

  const std::uint64_t size = 64ULL << 20;
  const std::uint64_t piece = (3ULL << 20) + 1;
  const Buffer data = Buffer::deterministic(13, 0, size);
  auto writer = [](DfsClient& c, const Buffer& d, std::uint64_t bs,
                   std::uint64_t step) -> sim::Task {
    std::unique_ptr<DfsOutputStream> out;
    std::vector<std::string> pipeline = {"datanode1", "datanode2"};
    co_await c.create("/big", Cluster::place_on(pipeline), bs, out);
    for (std::uint64_t off = 0; off < d.size(); off += step) {
      co_await out->write(d.slice(off, std::min(step, d.size() - off)));
    }
    co_await out->close();
  };
  cluster.sim().spawn(writer(client, data, cluster.config().block_size, piece));
  cluster.sim().run();

  const std::vector<BlockInfo> blocks = cluster.namenode().all_blocks("/big");
  ASSERT_EQ(blocks.size(), 16u);
  std::uint64_t covered = 0;
  for (const BlockInfo& b : blocks) {
    EXPECT_EQ(b.offset_in_file, covered);
    for (const std::string& dn_id : {std::string("datanode1"), std::string("datanode2")}) {
      fs::SimFs& fs = cluster.datanode(dn_id)->vm().fs();
      auto ino = fs.lookup(DataNode::block_path(b.name));
      ASSERT_TRUE(ino.has_value()) << dn_id << " missing " << b.name;
      EXPECT_EQ(fs.read(*ino, 0, b.size), data.slice(b.offset_in_file, b.size))
          << dn_id << " " << b.name;
    }
    covered += b.size;
  }
  EXPECT_EQ(covered, size);
}

TEST(DfsRead, PrefersColocatedReplica) {
  Cluster cluster(small_blocks());
  cluster.add_host("host1");
  cluster.add_host("host2");
  cluster.add_vm("host1", "client");
  cluster.create_namenode("client");
  cluster.add_datanode("host1", "datanode1");
  cluster.add_datanode("host2", "datanode2");
  DfsClient& client = cluster.add_client("client");
  // Replicas on both; remote listed first to prove preference wins.
  cluster.preload_file("/data", 4 * 1024 * 1024, 12, {{"datanode2", "datanode1"}});
  Buffer got;
  cluster.sim().spawn(dfsio_read_all(client, "/data", 1 << 20, got));
  cluster.sim().run();
  EXPECT_EQ(got.size(), 4u * 1024 * 1024);
  EXPECT_GT(cluster.datanode("datanode1")->bytes_served(), 0u);
  EXPECT_EQ(cluster.datanode("datanode2")->bytes_served(), 0u);
}

TEST(DfsRead, RemoteReadWorksAndIsSlower) {
  auto run_scenario = [](bool colocated) {
    Cluster cluster(small_blocks());
    cluster.add_host("host1");
    cluster.add_host("host2");
    cluster.add_vm("host1", "client");
    cluster.create_namenode("client");
    cluster.add_datanode(colocated ? "host1" : "host2", "datanode1");
    DfsClient& client = cluster.add_client("client");
    cluster.preload_file("/data", 8 * 1024 * 1024, 13, {{"datanode1"}});
    cluster.drop_all_caches();
    Buffer got;
    cluster.sim().spawn(dfsio_read_all(client, "/data", 1 << 20, got));
    cluster.sim().run();
    EXPECT_EQ(got, Buffer::deterministic(13, 0, 8 * 1024 * 1024));
    return cluster.sim().now();
  };
  auto local_time = run_scenario(true);
  auto remote_time = run_scenario(false);
  EXPECT_GT(remote_time, local_time);
}

TEST(DfsRead, MissingFileThrows) {
  ColocatedBed bed;
  DfsClient* client = bed.cluster.client("client");
  auto proc = [](DfsClient& c) -> sim::Task {
    std::unique_ptr<DfsInputStream> in;
    co_await c.open("/nope", in);
  };
  bed.cluster.sim().spawn(proc(*client));
  EXPECT_THROW(bed.cluster.sim().run(), HdfsError);
}

TEST(DfsRead, RereadIsFasterThanColdRead) {
  ColocatedBed bed;
  const std::uint64_t size = 8 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 14, {{"datanode1"}});
  bed.cluster.drop_all_caches();
  DfsClient* client = bed.cluster.client("client");

  Buffer got;
  bed.cluster.sim().spawn(dfsio_read_all(*client, "/data", 1 << 20, got));
  bed.cluster.sim().run();
  sim::SimTime cold = bed.cluster.sim().now();

  Buffer got2;
  bed.cluster.sim().spawn(dfsio_read_all(*client, "/data", 1 << 20, got2));
  bed.cluster.sim().run();
  sim::SimTime warm = bed.cluster.sim().now() - cold;
  EXPECT_LT(warm, cold);
  EXPECT_EQ(got2, got);
}

TEST(Determinism, IdenticalClusterRunsProduceIdenticalTiming) {
  auto run_once = [] {
    ColocatedBed bed;
    bed.cluster.preload_file("/data", 6 * 1024 * 1024, 15, {{"datanode1"}});
    bed.cluster.drop_all_caches();
    Buffer got;
    bed.cluster.sim().spawn(
        dfsio_read_all(*bed.cluster.client("client"), "/data", 1 << 20, got));
    bed.cluster.sim().run();
    return std::pair{bed.cluster.sim().now(), got.checksum()};
  };
  auto [t1, c1] = run_once();
  auto [t2, c2] = run_once();
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(c1, c2);
}

}  // namespace
}  // namespace vread::hdfs
