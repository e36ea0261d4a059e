// Edge-case and failure-injection tests across the stack: protocol errors,
// truncated/stale reads, fragmentation limits, channel serialization, and
// the scheduling-delay mechanism behind Fig. 3.
#include <gtest/gtest.h>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "apps/netperf.h"
#include "core/libvread.h"
#include "fs/loop_mount.h"
#include "fs/simfs.h"
#include "mem/buffer.h"
#include "virt/shm_channel.h"

namespace vread {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;
using mem::Buffer;

ClusterConfig fast_cfg() {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  return cfg;
}

struct Bed {
  Cluster cluster;
  explicit Bed() : cluster(fast_cfg()) {
    cluster.add_host("host1");
    cluster.add_vm("host1", "client");
    cluster.create_namenode("client");
    cluster.add_datanode("host1", "datanode1");
    cluster.add_client("client");
  }
};

// --- HDFS protocol edges ---

TEST(HdfsEdge, DatanodeMissingBlockYieldsError) {
  Bed bed;
  Cluster& c = bed.cluster;
  // Register a block in the namenode whose file never reached the datanode.
  c.namenode().create_file("/ghost", 1024);
  hdfs::BlockInfo& b = c.namenode().add_block("/ghost", {"datanode1"});
  c.namenode().complete_block("/ghost", b.id, 1024);
  DfsIoResult r;
  EXPECT_THROW(c.run_job(TestDfsIo::read(c, "client", "/ghost", 1 << 20, r)),
               hdfs::HdfsError);
}

TEST(HdfsEdge, PreadBeyondEofReturnsAvailableBytes) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/f", 100'000, 3, {{"datanode1"}});
  Buffer got;
  auto proc = [](Cluster* cl, Buffer* out) -> sim::Task {
    std::unique_ptr<hdfs::DfsInputStream> in;
    co_await cl->client("client")->open("/f", in);
    co_await in->pread(90'000, 50'000, *out);  // only 10k available
    co_await in->close();
  };
  c.run_job(proc(&c, &got));
  EXPECT_EQ(got.size(), 10'000u);
  EXPECT_EQ(got, Buffer::deterministic(3, 90'000, 10'000));
}

TEST(HdfsEdge, EmptyFileReadsEmpty) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.namenode().create_file("/empty", 1024);
  Buffer got;
  bool eof = false;
  auto proc = [](Cluster* cl, Buffer* out, bool* flag) -> sim::Task {
    std::unique_ptr<hdfs::DfsInputStream> in;
    co_await cl->client("client")->open("/empty", in);
    co_await in->read(4096, *out);
    *flag = out->empty() && in->size() == 0;
    co_await in->close();
  };
  c.run_job(proc(&c, &got, &eof));
  EXPECT_TRUE(eof);
}

TEST(HdfsEdge, ConnectionReuseAcrossPreads) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/f", 4 * 1024 * 1024, 4, {{"datanode1"}});
  const std::uint64_t before = c.net().segments_sent();
  auto proc = [](Cluster* cl) -> sim::Task {
    std::unique_ptr<hdfs::DfsInputStream> in;
    co_await cl->client("client")->open("/f", in);
    for (int i = 0; i < 20; ++i) {
      Buffer b;
      co_await in->pread(static_cast<std::uint64_t>(i) * 1000, 500, b);
      if (b != Buffer::deterministic(4, static_cast<std::uint64_t>(i) * 1000, 500)) {
        throw std::runtime_error("pread content mismatch");
      }
    }
    co_await in->close();
  };
  c.run_job(proc(&c));
  EXPECT_GT(c.net().segments_sent(), before);
  // One cached connection: the datanode accepted exactly one data socket.
  EXPECT_EQ(c.datanode("datanode1")->blocks_served(), 20u);
}

TEST(HdfsEdge, ExactBlockBoundaryFile) {
  Bed bed;
  Cluster& c = bed.cluster;
  const std::uint64_t size = 2 * c.config().block_size;  // exactly 2 blocks
  c.preload_file("/b", size, 5, {{"datanode1"}});
  ASSERT_EQ(c.namenode().all_blocks("/b").size(), 2u);
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, "client", "/b", 1 << 20, r));
  EXPECT_EQ(r.bytes, size);
  EXPECT_EQ(r.checksum, Buffer::deterministic(5, 0, size).checksum());
}

// --- vRead stale-descriptor / range errors ---

TEST(VReadEdge, ReadPastSnapshotSizeFailsCleanly) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/f", 1'000'000, 6, {{"datanode1"}});
  c.enable_vread();
  const std::string blk = c.namenode().all_blocks("/f").front().name;
  core::LibVread* lib = c.libvread("client");
  vread::Status result;
  auto proc = [](core::LibVread* l, const std::string& name,
                 vread::Status* res) -> sim::Task {
    std::uint64_t vfd = 0;
    vread::Status st;
    co_await l->open(sim::Name(name), "datanode1", vfd, st);
    if (!st.ok()) throw std::runtime_error("open failed");
    mem::Buffer out;
    co_await l->read(vfd, 2'000'000, 100, out, *res);  // past the snapshot
    co_await l->close(vfd);
  };
  c.run_job(proc(lib, blk, &result));
  // RANGE is a stale-category failure -> HDFS falls back, no cooldown.
  EXPECT_EQ(result.code(), vread::StatusCode::kRange);
  EXPECT_TRUE(result.is_stale());
  EXPECT_FALSE(result.is_retryable());
}

TEST(VReadEdge, FallbackAfterRangeErrorStillDeliversData) {
  // A block grows after the daemon's snapshot (no vRead_update): the
  // client reads the stale prefix via vRead, hits the range error, falls
  // back, and still gets every byte.
  Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/f", 1'000'000, 7, {{"datanode1"}});
  c.enable_vread();
  c.run_job([](Cluster* cl) -> sim::Task {  // force mounts fresh
    co_await cl->sim().delay(sim::ms(1));
  }(&c));

  // Grow the block file behind vRead's back (no vRead_update fires): the
  // daemon's mount snapshot stays at 1,000,000 bytes.
  hdfs::DataNode* dn = c.datanode("datanode1");
  const hdfs::BlockInfo blk = c.namenode().all_blocks("/f").front();
  auto ino = dn->vm().fs().lookup(hdfs::DataNode::block_path(blk.name));
  dn->vm().fs().append(*ino, Buffer::deterministic(7, 1'000'000, 500'000));
  // The namenode still reports 1,000,000 bytes, so reads stay within the
  // stale-but-sufficient snapshot and correctness holds throughout.
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, "client", "/f", 64 << 10, r));
  EXPECT_EQ(r.bytes, 1'000'000u);
  EXPECT_EQ(r.checksum, Buffer::deterministic(7, 0, 1'000'000).checksum());
}

// --- ShmChannel serialization ---

TEST(ShmEdge, ConcurrentCallersSerializeWithoutInterleaving) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/f", 4 * 1024 * 1024, 8, {{"datanode1"}});
  c.enable_vread();
  const std::string blk = c.namenode().all_blocks("/f").front().name;
  core::LibVread* lib = c.libvread("client");

  bool ok1 = false, ok2 = false;
  auto reader = [](core::LibVread* l, std::string name, std::uint64_t off,
                   bool* flag) -> sim::Task {
    std::uint64_t vfd = 0;
    vread::Status st;
    co_await l->open(sim::Name(name), "datanode1", vfd, st);
    for (int i = 0; i < 8; ++i) {
      mem::Buffer out;
      vread::Status res;
      co_await l->read(vfd, off + static_cast<std::uint64_t>(i) * 10'000, 10'000, out,
                       res);
      if (out != Buffer::deterministic(8, off + static_cast<std::uint64_t>(i) * 10'000,
                                       10'000)) {
        co_return;  // flag stays false
      }
    }
    co_await l->close(vfd);
    *flag = true;
  };
  c.sim().spawn(reader(lib, blk, 0, &ok1));
  c.sim().spawn(reader(lib, blk, 2'000'000, &ok2));
  c.sim().run_until(c.sim().now() + sim::sec(30));
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
}

// --- SimFs limits ---

TEST(FsEdge, FragmentationBeyondMaxExtentsThrows) {
  auto img = std::make_shared<fs::DiskImage>(64ULL << 20);
  fs::SimFs fs = fs::SimFs::format(img);
  std::uint32_t a = fs.create("/a");
  std::uint32_t b = fs.create("/b");
  // Interleaved appends prevent extent merging: each append to `a` gets a
  // fresh extent until the 14-extent limit trips.
  Buffer chunk = Buffer::deterministic(1, 0, 4096);
  bool threw = false;
  for (int i = 0; i < 20; ++i) {
    try {
      fs.append(a, chunk);
      fs.append(b, chunk);
    } catch (const fs::FsError&) {
      threw = true;
      EXPECT_GE(i, static_cast<int>(fs::kMaxExtents) - 1);
      break;
    }
  }
  EXPECT_TRUE(threw);
}

TEST(FsEdge, LoopMountOnUnformattedImageThrows) {
  auto img = std::make_shared<fs::DiskImage>(1 << 20);
  EXPECT_THROW(fs::LoopMount mount(img), fs::FsError);
}

TEST(ClusterEdge, PreloadToUnknownDatanodeThrows) {
  Bed bed;
  EXPECT_THROW(bed.cluster.preload_file("/x", 1024, 1, {{"nope"}}),
               std::runtime_error);
}

// --- the Fig. 3 mechanism as an invariant ---

TEST(SchedulingDelay, LookbusyVmsReduceTransactionRate) {
  auto run = [](bool with_bg) {
    ClusterConfig cfg;
    cfg.freq_ghz = 3.2;
    Cluster c(cfg);
    c.add_host("host1");
    c.add_vm("host1", "s");
    c.add_vm("host1", "cl");
    if (with_bg) {
      c.add_lookbusy("host1", "bg1", 0.85);
      c.add_lookbusy("host1", "bg2", 0.85);
    }
    apps::NetperfResult r;
    c.sim().spawn(apps::Netperf::server(c, "s", 64 * 1024, 500));
    c.run_job(apps::Netperf::client(c, "cl", "s", 64 * 1024, 500, r));
    return r.rate_per_sec;
  };
  const double r2 = run(false);
  const double r4 = run(true);
  EXPECT_LT(r4, r2);
  // The drop is sizable but the host is NOT saturated — pure sync delay.
  EXPECT_GT(r4, r2 * 0.5);
}

}  // namespace
}  // namespace vread
