// End-to-end tests of the vRead system: local (co-located) and remote
// (RDMA / TCP) shortcut reads through the full HDFS client, correctness of
// the fallback path, write-once visibility via vRead_update, the copy-count
// structural property, and the headline performance claims (faster + fewer
// CPU cycles than vanilla).
#include <gtest/gtest.h>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "core/libvread.h"
#include "core/vread_daemon.h"
#include "mem/buffer.h"
#include "testutil.h"

namespace vread::core {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;
using mem::Buffer;
using testutil::Bed;
using testutil::small_blocks;

TEST(VReadLocal, ColocatedReadReturnsIdenticalBytes) {
  Bed bed;
  const std::uint64_t size = 10 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 31, {{"datanode1"}});
  bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  DfsIoResult r;
  bed.cluster.sim().spawn(
      TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  EXPECT_EQ(r.bytes, size);
  EXPECT_EQ(r.checksum, Buffer::deterministic(31, 0, size).checksum());
  VReadDaemon* d = bed.cluster.daemon("host1");
  EXPECT_GT(d->reads(), 0u);
  EXPECT_EQ(d->bytes_read(), size);
  EXPECT_EQ(d->failed_opens(), 0u);
  // The datanode process never served a byte: true shortcut.
  EXPECT_EQ(bed.cluster.datanode("datanode1")->bytes_served(), 0u);
}

TEST(VReadLocal, FasterAndCheaperThanVanilla) {
  auto run = [](bool vread) {
    Bed bed;
    const std::uint64_t size = 16 * 1024 * 1024;
    bed.cluster.preload_file("/data", size, 32, {{"datanode1"}});
    if (vread) bed.cluster.enable_vread();
    bed.cluster.drop_all_caches();
    DfsIoResult r;
    bed.cluster.sim().spawn(
        TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
    bed.cluster.sim().run();
    EXPECT_EQ(r.checksum, Buffer::deterministic(32, 0, size).checksum());
    // total CPU across client VM, datanode VM and host-side daemons
    double total_cpu = bed.cluster.window_cpu_ms(apps::Cluster::Window{}, "client") +
                       bed.cluster.window_cpu_ms(apps::Cluster::Window{}, "datanode1") +
                       bed.cluster.window_cpu_ms(apps::Cluster::Window{}, "host1");
    return std::pair{r, total_cpu};
  };
  auto [vanilla, vanilla_cpu] = run(false);
  auto [vr, vread_cpu] = run(true);
  EXPECT_GT(vr.throughput_mbps, vanilla.throughput_mbps);
  EXPECT_LT(vread_cpu, vanilla_cpu);
  EXPECT_LT(vr.cpu_time_ms, vanilla.cpu_time_ms);  // client-side CPU savings
}

TEST(VReadLocal, RereadServedFromHostPageCache) {
  Bed bed;
  const std::uint64_t size = 8 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 33, {{"datanode1"}});
  bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  DfsIoResult cold, warm;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, cold));
  bed.cluster.sim().run();
  const std::uint64_t disk_after_cold = bed.cluster.host("host1")->disk().bytes_read();
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, warm));
  bed.cluster.sim().run();
  EXPECT_EQ(bed.cluster.host("host1")->disk().bytes_read(), disk_after_cold);
  EXPECT_GT(warm.throughput_mbps, cold.throughput_mbps);
  EXPECT_EQ(warm.checksum, cold.checksum);
}

TEST(VReadRemote, RdmaReadReturnsIdenticalBytes) {
  Bed bed;
  const std::uint64_t size = 10 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 34, {{"datanode2"}});  // remote only
  bed.cluster.enable_vread(VReadDaemon::Transport::kRdma);
  bed.cluster.drop_all_caches();
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  EXPECT_EQ(r.checksum, Buffer::deterministic(34, 0, size).checksum());
  EXPECT_GT(bed.cluster.daemon("host1")->remote_reads(), 0u);
  EXPECT_GT(bed.cluster.daemon("host2")->reads(), 0u);  // served by peer mount
  EXPECT_EQ(bed.cluster.datanode("datanode2")->bytes_served(), 0u);
  // RDMA cycles on both hosts; zero vRead-net cycles.
  EXPECT_GT(bed.cluster.acct().group_total("host1", metrics::CycleCategory::kRdma), 0u);
  EXPECT_GT(bed.cluster.acct().group_total("host2", metrics::CycleCategory::kRdma), 0u);
  EXPECT_EQ(bed.cluster.acct().group_total("host1", metrics::CycleCategory::kVreadNet),
            0u);
}

TEST(VReadRemote, TcpTransportWorksButCostsMoreCpu) {
  auto run = [](VReadDaemon::Transport t) {
    Bed bed;
    const std::uint64_t size = 10 * 1024 * 1024;
    bed.cluster.preload_file("/data", size, 35, {{"datanode2"}});
    bed.cluster.enable_vread(t);
    bed.cluster.drop_all_caches();
    DfsIoResult r;
    bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
    bed.cluster.sim().run();
    EXPECT_EQ(r.checksum, Buffer::deterministic(35, 0, size).checksum());
    const sim::Cycles daemon_cycles =
        bed.cluster.acct().group_total("host1") + bed.cluster.acct().group_total("host2") -
        bed.cluster.acct().group_total("client") -
        bed.cluster.acct().group_total("datanode1") -
        bed.cluster.acct().group_total("datanode2");
    (void)daemon_cycles;
    const sim::Cycles host_cycles =
        bed.cluster.acct().group_total("host1", metrics::CycleCategory::kRdma) +
        bed.cluster.acct().group_total("host2", metrics::CycleCategory::kRdma) +
        bed.cluster.acct().group_total("host1", metrics::CycleCategory::kVreadNet) +
        bed.cluster.acct().group_total("host2", metrics::CycleCategory::kVreadNet);
    return host_cycles;
  };
  sim::Cycles rdma = run(VReadDaemon::Transport::kRdma);
  sim::Cycles tcp = run(VReadDaemon::Transport::kTcp);
  EXPECT_GT(tcp, rdma * 3);  // user-space TCP burns far more transport CPU
}

TEST(VReadFallback, UnknownBlockFallsBackToVanillaPath) {
  Bed bed;
  const std::uint64_t size = 4 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 36, {{"datanode1"}});
  bed.cluster.enable_vread();
  // Sabotage: the daemon forgets datanode1 entirely (e.g. migration race).
  bed.cluster.daemon("host1")->unregister_datanode("datanode1");
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  // Data still correct — served by the vanilla datanode path.
  EXPECT_EQ(r.checksum, Buffer::deterministic(36, 0, size).checksum());
  EXPECT_GT(bed.cluster.datanode("datanode1")->bytes_served(), 0u);
  EXPECT_EQ(bed.cluster.daemon("host1")->reads(), 0u);
}

TEST(VReadVisibility, TimedWriteThenVReadReadViaUpdate) {
  Bed bed;
  bed.cluster.enable_vread();  // daemons mounted BEFORE any data exists
  const std::uint64_t size = 6 * 1024 * 1024;
  DfsIoResult wr, rd;
  bed.cluster.sim().spawn(TestDfsIo::write(bed.cluster, "client", "/out", size, 37,
                                           Cluster::place_on({"datanode1"}), wr));
  bed.cluster.sim().run();
  EXPECT_GT(bed.cluster.daemon("host1")->refreshes(), 0u);  // vRead_update fired
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/out", 1 << 20, rd));
  bed.cluster.sim().run();
  EXPECT_EQ(rd.checksum, Buffer::deterministic(37, 0, size).checksum());
  // The read went through the daemon, not the datanode service.
  EXPECT_GT(bed.cluster.daemon("host1")->reads(), 0u);
  EXPECT_EQ(bed.cluster.datanode("datanode1")->bytes_served(), 0u);
  EXPECT_EQ(bed.cluster.daemon("host1")->failed_opens(), 0u);
}

TEST(VReadCopies, TwoCopyStructureOfShortcutPath) {
  Bed bed;
  const std::uint64_t size = 8 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 38, {{"datanode1"}});
  bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  const double per_copy = static_cast<double>(bed.cluster.costs().copy_cost(size));
  // Ring copies: daemon->ring + ring->app = 2 per byte (plus slot overheads).
  const double ring_cycles = static_cast<double>(
      bed.cluster.acct().group_total("host1", metrics::CycleCategory::kVreadBufferCopy) +
      bed.cluster.acct().group_total("client", metrics::CycleCategory::kVreadBufferCopy));
  EXPECT_NEAR(ring_cycles / per_copy, 2.0, 0.25);
  // No vanilla-path copies at all: no virtio-net, no vhost on the client VM.
  EXPECT_EQ(bed.cluster.acct().group_total("datanode1", metrics::CycleCategory::kVirtioCopy),
            0u);
  EXPECT_EQ(bed.cluster.acct().group_total("client", metrics::CycleCategory::kGuestNetRx),
            0u);
}

TEST(VReadApi, Table1FunctionsWorkDirectly) {
  Bed bed;
  const std::uint64_t size = 2 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 39, {{"datanode1"}});
  bed.cluster.enable_vread();
  LibVread* lib = bed.cluster.libvread("client");
  ASSERT_NE(lib, nullptr);
  const std::string blk =
      bed.cluster.namenode().all_blocks("/data").front().name;

  auto proc = [](LibVread& l, const std::string& name, Buffer& out1, Buffer& out2,
                 vread::Status& seek_status, vread::Status& close_status) -> sim::Task {
    std::uint64_t vfd = 0;
    vread::Status st;
    co_await l.vread_open(sim::Name(name), "datanode1", vfd, st);
    co_await l.vread_read(vfd, 1000, out1, st);          // offset 0..1000
    co_await l.vread_seek(vfd, 500'000, seek_status);    // jump
    co_await l.vread_read(vfd, 1000, out2, st);          // offset 500k..
    co_await l.vread_close(vfd, close_status);
  };
  Buffer a, b;
  vread::Status seek_status(vread::StatusCode::kUnknown);
  vread::Status close_status(vread::StatusCode::kUnknown);
  bed.cluster.sim().spawn(proc(*lib, blk, a, b, seek_status, close_status));
  bed.cluster.sim().run();
  EXPECT_EQ(a, Buffer::deterministic(39, 0, 1000));
  EXPECT_EQ(b, Buffer::deterministic(39, 500'000, 1000));
  EXPECT_TRUE(seek_status.ok()) << seek_status.to_string();
  EXPECT_TRUE(close_status.ok()) << close_status.to_string();
}

TEST(VReadApi, OpenUnknownBlockFails) {
  Bed bed;
  bed.cluster.enable_vread();
  LibVread* lib = bed.cluster.libvread("client");
  auto proc = [](LibVread& l, std::uint64_t& vfd_out) -> sim::Task {
    vread::Status st;
    co_await l.vread_open("blk_99999", "datanode1", vfd_out, st);
  };
  std::uint64_t vfd = 123;
  bed.cluster.sim().spawn(proc(*lib, vfd));
  bed.cluster.sim().run();
  EXPECT_EQ(vfd, 0u);  // no descriptor -> HDFS would fall back
  EXPECT_GT(bed.cluster.daemon("host1")->failed_opens(), 0u);
}

TEST(VReadHybrid, MixedLocalAndRemoteBlocks) {
  Bed bed;
  const std::uint64_t size = 16 * 1024 * 1024;  // 4 blocks
  // Round-robin placement: blocks alternate datanode1 (local) / datanode2.
  bed.cluster.preload_file("/data", size, 40, {{"datanode1"}, {"datanode2"}});
  bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  EXPECT_EQ(r.checksum, Buffer::deterministic(40, 0, size).checksum());
  EXPECT_GT(bed.cluster.daemon("host1")->reads(), 0u);        // local shortcut
  EXPECT_GT(bed.cluster.daemon("host1")->remote_reads(), 0u); // remote shortcut
}

TEST(VReadDeterminism, SameSeedSameCyclesAndTiming) {
  auto run_once = [] {
    Bed bed;
    bed.cluster.preload_file("/data", 8 * 1024 * 1024, 41, {{"datanode1"}});
    bed.cluster.enable_vread();
    bed.cluster.drop_all_caches();
    DfsIoResult r;
    bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
    bed.cluster.sim().run();
    return std::tuple{bed.cluster.sim().now(), r.checksum,
                      bed.cluster.acct().group_total("client"),
                      bed.cluster.acct().group_total("host1")};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace vread::core
