// Concurrent shortcut-path properties (DESIGN.md §10): N overlapping
// readers stay byte-identical on every read path, the worker pool +
// multi-outstanding ring + pread fan-out stay deterministic, cache hits
// keep the two-copy structure, vRead_update invalidates the daemon block
// cache, and one request's injected timeout never stalls another request
// on the same channel.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "core/vread_daemon.h"
#include "fault/fault.h"
#include "fault/status.h"
#include "hdfs/datanode.h"
#include "hdfs/dfs_client.h"
#include "hw/cost_model.h"
#include "mem/buffer.h"
#include "metrics/accounting.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "testutil.h"
#include "virt/host.h"
#include "virt/shm_channel.h"
#include "virt/vm.h"

namespace vread::core {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;
using mem::Buffer;
using testutil::Bed;
using testutil::small_blocks;

constexpr std::uint64_t kFileBytes = 12 * 1024 * 1024;
constexpr std::uint64_t kSeed = 77;
constexpr std::size_t kReaders = 4;

DaemonConfig concurrent_stack(Transport t = Transport::kRdma) {
  DaemonConfig dc;
  dc.transport = t;
  dc.workers = 4;
  dc.shm_max_outstanding = 8;
  return dc;  // cache on by default
}

// One overlapping reader: preads the WHOLE file (same range as every other
// reader) and records its checksum. Free function: spawned coroutines must
// not be lambdas.
sim::Task overlapped_reader(hdfs::DfsClient& client, std::uint64_t size,
                            std::uint64_t* checksum, sim::Latch* done) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client.open("/data", in);
  mem::Buffer all;
  co_await in->pread(0, size, all);
  *checksum = all.size() == size ? all.checksum() : 0;
  co_await in->close();
  done->count_down();
}

sim::Task spawn_readers(Cluster& c, std::vector<std::uint64_t>& sums) {
  sim::Latch done(c.sim(), sums.size());
  for (std::size_t i = 0; i < sums.size(); ++i) {
    c.sim().spawn(overlapped_reader(*c.client("client"), kFileBytes, &sums[i], &done));
  }
  co_await done.wait();
}

enum class Path {
  kVanillaSocket,
  kShortCircuit,
  kVreadColocated,
  kVreadRemoteRdma,
  kVreadRemoteTcp,
  kDirectRead,
};

// Runs N fully-overlapping concurrent readers on the given path and
// returns (end-of-run sim time, per-reader checksums).
std::pair<sim::SimTime, std::vector<std::uint64_t>> run_path(Path path) {
  Cluster c(small_blocks());
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  if (path == Path::kShortCircuit) {
    // Same-OS deployment: the replica lives inside the client VM itself.
    c.add_datanode_in_vm("client");
    c.add_client("client");
    c.preload_file("/data", kFileBytes, kSeed, {{"client"}});
    c.client("client")->set_short_circuit(true);
  } else {
    c.add_datanode("host1", "datanode1");
    c.add_datanode("host2", "datanode2");
    c.add_client("client");
    const bool remote =
        path == Path::kVreadRemoteRdma || path == Path::kVreadRemoteTcp;
    c.preload_file("/data", kFileBytes, kSeed,
                   {{remote ? "datanode2" : "datanode1"}});
    if (path != Path::kVanillaSocket) {
      DaemonConfig dc = concurrent_stack(
          path == Path::kVreadRemoteTcp ? Transport::kTcp : Transport::kRdma);
      dc.direct_read = path == Path::kDirectRead;
      c.enable_vread(dc);
    }
  }
  c.drop_all_caches();
  std::vector<std::uint64_t> sums(kReaders, 0);
  c.run_job(spawn_readers(c, sums));
  return {c.sim().now(), sums};
}

TEST(ConcurrentStreams, OverlappingReadersByteIdenticalAcrossAllPaths) {
  const std::uint64_t expected =
      Buffer::deterministic(kSeed, 0, kFileBytes).checksum();
  for (Path path :
       {Path::kVanillaSocket, Path::kShortCircuit, Path::kVreadColocated,
        Path::kVreadRemoteRdma, Path::kVreadRemoteTcp, Path::kDirectRead}) {
    auto [end, sums] = run_path(path);
    for (std::size_t i = 0; i < sums.size(); ++i) {
      EXPECT_EQ(sums[i], expected)
          << "path " << static_cast<int>(path) << " reader " << i;
    }
  }
}

TEST(ConcurrentStreams, DeterministicWithWorkerPoolAndFanout) {
  auto [end1, sums1] = run_path(Path::kVreadColocated);
  auto [end2, sums2] = run_path(Path::kVreadColocated);
  EXPECT_EQ(end1, end2);  // bit-identical schedule, not just same bytes
  EXPECT_EQ(sums1, sums2);
  auto [rend1, rsums1] = run_path(Path::kVreadRemoteRdma);
  auto [rend2, rsums2] = run_path(Path::kVreadRemoteRdma);
  EXPECT_EQ(rend1, rend2);
  EXPECT_EQ(rsums1, rsums2);
}

TEST(BlockCacheCopies, CacheHitsKeepTwoCopiesPerByte) {
  Bed bed;
  bed.cluster.preload_file("/data", kFileBytes, 78, {{"datanode1"}});
  bed.cluster.enable_vread(concurrent_stack());
  bed.cluster.drop_all_caches();
  DfsIoResult warmup, hit;
  bed.cluster.sim().spawn(
      TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, warmup));
  bed.cluster.sim().run();
  VReadDaemon* d = bed.cluster.daemon("host1");
  ASSERT_NE(d, nullptr);
  const std::uint64_t hits_before = d->cache().hits();
  const auto copies = [&bed] {
    return bed.cluster.acct().group_total("host1",
                                          metrics::CycleCategory::kVreadBufferCopy) +
           bed.cluster.acct().group_total("client",
                                          metrics::CycleCategory::kVreadBufferCopy);
  };
  const sim::Cycles copies_before = copies();
  bed.cluster.sim().spawn(
      TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, hit));
  bed.cluster.sim().run();
  EXPECT_EQ(hit.checksum, Buffer::deterministic(78, 0, kFileBytes).checksum());
  EXPECT_GT(d->cache().hits(), hits_before);  // warm pass served from cache
  // Still exactly the two standing ring copies per delivered byte: a cache
  // hit replaces the loop-device traversal, not a copy.
  const double per_copy = static_cast<double>(bed.cluster.costs().copy_cost(kFileBytes));
  const double delta = static_cast<double>(copies() - copies_before);
  EXPECT_NEAR(delta / per_copy, 2.0, 0.25);
}

// Copy regression guard: reading a preloaded multi-block file over the
// hybrid vRead path (blocks alternate between the co-located and the
// remote datanode, RDMA) hands views of the image runs all the way to the
// reader, cold and warm, so no slab byte is allocated per delivered byte.
// Copying each mount read out of the image and concatenating ring chunks
// costs 2.33 slab bytes per delivered byte cold and 1.33 re-read; the
// bound is twice the measured ratio — zero — so any per-read copy fails.
TEST(PayloadCopies, HybridReadsMaterialiseNoPayloadBytes) {
  Bed bed;
  bed.cluster.preload_file("/data", kFileBytes, 81, {{"datanode1"}, {"datanode2"}});
  bed.cluster.enable_vread(Transport::kRdma);
  bed.cluster.drop_all_caches();
  const auto slab_bytes_per_delivered_byte = [&bed] {
    DfsIoResult r;
    const std::uint64_t before = Buffer::slab_bytes_allocated();
    bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
    bed.cluster.sim().run();
    const std::uint64_t materialised = Buffer::slab_bytes_allocated() - before;
    EXPECT_EQ(r.bytes, kFileBytes);
    EXPECT_EQ(r.checksum, Buffer::deterministic(81, 0, kFileBytes).checksum());
    return static_cast<double>(materialised) / static_cast<double>(kFileBytes);
  };
  const double cold = slab_bytes_per_delivered_byte();
  const double reread = slab_bytes_per_delivered_byte();
  EXPECT_GT(bed.cluster.daemon("host1")->remote_reads(), 0u);
  EXPECT_GT(bed.cluster.daemon("host1")->cache().hits(), 0u);
  EXPECT_EQ(cold, 0.0);
  EXPECT_EQ(reread, 0.0);
}

// The write-side twin: every replica of a pipeline packet is a view of the
// writer's buffer, so a 2-replica write materialises no payload bytes. What
// is left is inode and directory metadata.
TEST(PayloadCopies, PipelineWritesMaterialiseNoPayloadBytes) {
  Bed bed;
  constexpr std::uint64_t kBytes = 64ULL << 20;
  const Buffer data = Buffer::deterministic(83, 0, kBytes);
  const std::string path = "/written";  // outlives the spawned write
  const std::uint64_t before = Buffer::slab_bytes_allocated();
  bed.cluster.sim().spawn(bed.cluster.client("client")->write_file(
      path, data, Cluster::place_on({"datanode1", "datanode2"}),
      bed.cluster.config().block_size));
  bed.cluster.sim().run();
  const double per_written_byte =
      static_cast<double>(Buffer::slab_bytes_allocated() - before) / static_cast<double>(kBytes);

  const std::vector<hdfs::BlockInfo> blocks = bed.cluster.namenode().all_blocks(path);
  ASSERT_EQ(blocks.size(), kBytes / bed.cluster.config().block_size);
  for (const hdfs::BlockInfo& b : blocks) {
    for (const char* dn : {"datanode1", "datanode2"}) {
      fs::SimFs& fs = bed.cluster.datanode(dn)->vm().fs();
      const auto ino = fs.lookup(hdfs::DataNode::block_path(b.name));
      ASSERT_TRUE(ino.has_value()) << dn << " missing " << b.name;
      EXPECT_EQ(fs.read(*ino, 0, b.size), data.slice(b.offset_in_file, b.size))
          << dn << " " << b.name;
    }
  }
  EXPECT_LE(per_written_byte, 0.01);
}

TEST(BlockCacheVisibility, UpdateInvalidatesCache) {
  Bed bed;
  bed.cluster.preload_file("/data", 6 * 1024 * 1024, 79, {{"datanode1"}});
  bed.cluster.enable_vread(concurrent_stack());
  bed.cluster.drop_all_caches();
  DfsIoResult r1;
  bed.cluster.sim().spawn(
      TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r1));
  bed.cluster.sim().run();
  VReadDaemon* d = bed.cluster.daemon("host1");
  EXPECT_GT(d->cache().bytes(), 0u);  // populated by the first pass
  // A write to the same datanode fires vRead_update -> refresh -> the
  // daemon drops every cached range of that datanode.
  DfsIoResult wr;
  bed.cluster.sim().spawn(TestDfsIo::write(bed.cluster, "client", "/extra",
                                           4 * 1024 * 1024, 80,
                                           Cluster::place_on({"datanode1"}), wr));
  bed.cluster.sim().run();
  EXPECT_GT(d->cache().invalidations(), 0u);
  // Both files still read back byte-identical afterwards (repopulating).
  DfsIoResult r2, r3;
  bed.cluster.sim().spawn(
      TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r2));
  bed.cluster.sim().run();
  bed.cluster.sim().spawn(
      TestDfsIo::read(bed.cluster, "client", "/extra", 1 << 20, r3));
  bed.cluster.sim().run();
  EXPECT_EQ(r2.checksum, Buffer::deterministic(79, 0, 6 * 1024 * 1024).checksum());
  EXPECT_EQ(r3.checksum, Buffer::deterministic(80, 0, 4 * 1024 * 1024).checksum());
}

TEST(BlockCacheVisibility, WriteOnceVisibilityAndHitsMatchVanillaBytes) {
  // Write-once visibility (vread_test's property) with the cache enabled,
  // plus: bytes served on cache hits equal the vanilla path's bytes.
  std::uint64_t vanilla_sum = 0;
  {
    Bed bed;  // no vread: pure socket path as ground truth
    const std::uint64_t size = 6 * 1024 * 1024;
    DfsIoResult wr, rd;
    bed.cluster.sim().spawn(TestDfsIo::write(bed.cluster, "client", "/out", size, 81,
                                             Cluster::place_on({"datanode1"}), wr));
    bed.cluster.sim().run();
    bed.cluster.sim().spawn(
        TestDfsIo::read(bed.cluster, "client", "/out", 1 << 20, rd));
    bed.cluster.sim().run();
    vanilla_sum = rd.checksum;
  }
  Bed bed;
  bed.cluster.enable_vread(concurrent_stack());  // mounted BEFORE data exists
  const std::uint64_t size = 6 * 1024 * 1024;
  DfsIoResult wr, rd1, rd2;
  bed.cluster.sim().spawn(TestDfsIo::write(bed.cluster, "client", "/out", size, 81,
                                           Cluster::place_on({"datanode1"}), wr));
  bed.cluster.sim().run();
  EXPECT_GT(bed.cluster.daemon("host1")->refreshes(), 0u);
  bed.cluster.sim().spawn(
      TestDfsIo::read(bed.cluster, "client", "/out", 1 << 20, rd1));
  bed.cluster.sim().run();
  bed.cluster.sim().spawn(
      TestDfsIo::read(bed.cluster, "client", "/out", 1 << 20, rd2));
  bed.cluster.sim().run();
  EXPECT_GT(bed.cluster.daemon("host1")->cache().hits(), 0u);  // re-read hit
  EXPECT_EQ(rd1.checksum, vanilla_sum);
  EXPECT_EQ(rd2.checksum, vanilla_sum);  // a hit never differs from vanilla
  EXPECT_GT(bed.cluster.daemon("host1")->reads(), 0u);
  EXPECT_EQ(bed.cluster.datanode("datanode1")->bytes_served(), 0u);
}

}  // namespace
}  // namespace vread::core

// ---- channel-level concurrency (virt layer) ----

namespace vread::virt {
namespace {

using mem::Buffer;

struct ChannelBed {
  sim::Simulation sim;
  metrics::CycleAccounting acct;
  hw::CostModel costs;
  hw::Lan lan{sim, {}};
  std::unique_ptr<Host> host;
  Vm* vm = nullptr;

  ChannelBed() {
    fault::registry().reset();
    host = std::make_unique<Host>(
        sim, acct, costs, lan,
        Host::Config{.name = "host1", .cores = 4, .freq_ghz = 2.0});
    vm = &host->add_vm("vm1");
  }
  ChannelBed(const ChannelBed&) = delete;
  ~ChannelBed() { fault::registry().reset(); }
};

sim::Task respond_one(ShmChannel& ch, hw::ThreadId tid, std::uint64_t payload_seed,
                      std::uint64_t payload_len) {
  ShmRequest req = co_await ch.requests().recv();
  ShmResponse resp;
  resp.id = req.id;
  resp.status = 0;
  resp.data = Buffer::deterministic(payload_seed, req.offset, payload_len);
  co_await ch.respond(tid, std::move(resp));
}

sim::Task issue_call(ShmChannel& ch, std::uint64_t id, std::uint64_t offset,
                     ShmResponse* out, sim::SimTime* done_at) {
  ShmRequest req;
  req.id = id;
  req.op = 1;
  req.offset = offset;
  co_await ch.call(std::move(req), *out);
  *done_at = ch.guest().host().sim().now();
}

TEST(ShmChannelConcurrency, InjectedTimeoutDoesNotStallOtherCalls) {
  ChannelBed tb;
  ShmChannel ch(*tb.vm, tb.costs, /*max_outstanding=*/8);
  hw::ThreadId daemon = tb.host->cpu().add_thread("vread-daemon", "host1");
  // First call loses its request and burns the 5 ms timeout; the second
  // call (issued while the first waits) must complete long before that.
  fault::registry().arm(fault::points::kShmTimeout, {.every = 1, .max_fires = 1});
  ShmResponse r1, r2;
  sim::SimTime done1 = 0, done2 = 0;
  tb.sim.spawn(respond_one(ch, daemon, 55, 1 << 20));
  tb.sim.spawn(issue_call(ch, 1, 0, &r1, &done1));
  tb.sim.spawn(issue_call(ch, 2, 64, &r2, &done2));
  tb.sim.run();
  EXPECT_EQ(r1.status, kVReadErrTimeout);
  EXPECT_EQ(r2.status, 0);
  EXPECT_EQ(r2.data, Buffer::deterministic(55, 64, 1 << 20));
  EXPECT_GE(done1, sim::ms(5));  // the victim paid the full timeout
  EXPECT_LT(done2, sim::ms(5));  // the bystander never noticed
  EXPECT_EQ(ch.inflight(), 0u);
  EXPECT_EQ(ch.free_slots(), tb.costs.shm_slot_count);
}

sim::Task respond_out_of_order(ShmChannel& ch, hw::ThreadId tid, std::uint64_t len) {
  ShmRequest a = co_await ch.requests().recv();
  ShmRequest b = co_await ch.requests().recv();
  // Answer the SECOND request first: completion order inverts issue order.
  ShmResponse rb;
  rb.id = b.id;
  rb.data = Buffer::deterministic(b.id, b.offset, len);
  co_await ch.respond(tid, std::move(rb));
  ShmResponse ra;
  ra.id = a.id;
  ra.data = Buffer::deterministic(a.id, a.offset, len);
  co_await ch.respond(tid, std::move(ra));
}

TEST(ShmChannelConcurrency, OutOfOrderCompletionRoutesChunksById) {
  ChannelBed tb;
  ShmChannel ch(*tb.vm, tb.costs, /*max_outstanding=*/8);
  hw::ThreadId daemon = tb.host->cpu().add_thread("vread-daemon", "host1");
  const std::uint64_t len = 1 << 20;
  ShmResponse r1, r2;
  sim::SimTime done1 = 0, done2 = 0;
  tb.sim.spawn(respond_out_of_order(ch, daemon, len));
  tb.sim.spawn(issue_call(ch, 101, 0, &r1, &done1));
  tb.sim.spawn(issue_call(ch, 202, 4096, &r2, &done2));
  tb.sim.run();
  // Each caller got the payload generated for ITS request id, not the
  // other's, even though the daemon answered in reverse order.
  EXPECT_EQ(r1.data, Buffer::deterministic(101, 0, len));
  EXPECT_EQ(r2.data, Buffer::deterministic(202, 4096, len));
  EXPECT_LE(done2, done1);  // id 202 really finished first
  EXPECT_EQ(ch.inflight(), 0u);
  EXPECT_EQ(ch.free_slots(), tb.costs.shm_slot_count);
  EXPECT_GE(ch.inflight_high(), 2);  // both were genuinely in flight at once
}

}  // namespace
}  // namespace vread::virt
