// Failure-injection and configuration-sweep properties: daemon restart
// recovery, and correctness across block sizes / replication factors
// (parameterized sweeps).
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "mem/buffer.h"

namespace vread {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;
using mem::Buffer;

TEST(DaemonRecovery, RestartMidWorkloadFallsBackThenRecovers) {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_client("client");
  const std::uint64_t bytes = 12 * 1024 * 1024;
  c.preload_file("/f", bytes, 90, {{"datanode1"}});
  c.enable_vread();
  c.drop_all_caches();

  // Reader that "restarts" the daemon between two half-file reads: the
  // client's cached vfds dangle, the next vRead_read returns an error, and
  // Algorithm 1's fallback keeps the stream correct.
  Buffer got;
  std::uint64_t opens_before_crash = 0;
  std::uint64_t net_before_crash = 0;
  auto proc = [](Cluster* cl, Buffer* out, std::uint64_t* opens_pre,
                 std::uint64_t* net_pre) -> sim::Task {
    std::unique_ptr<hdfs::DfsInputStream> in;
    co_await cl->client("client")->open("/f", in);
    for (int half = 0; half < 2; ++half) {
      for (int i = 0; i < 6; ++i) {
        Buffer chunk;
        co_await in->read(1 << 20, chunk);
        out->append(chunk);
      }
      if (half == 0) {
        *opens_pre = cl->daemon("host1")->opens();
        *net_pre = cl->net().bytes_sent();
        cl->daemon("host1")->drop_all_descriptors();  // crash!
      }
    }
    co_await in->close();
  };
  c.run_job(proc(&c, &got, &opens_before_crash, &net_before_crash));
  EXPECT_EQ(got, Buffer::deterministic(90, 0, bytes));
  // The dangling vfd triggered a one-off socket fallback (virtual-network
  // traffic after the crash) and the client re-opened fresh descriptors.
  EXPECT_GT(c.net().bytes_sent(), net_before_crash + (1 << 20));
  EXPECT_GT(c.daemon("host1")->opens(), opens_before_crash);
  // The shortcut resumed: the daemon kept reading after the crash too.
  EXPECT_GT(c.daemon("host1")->bytes_read(), 6u << 20);
}

TEST(DaemonRecovery, DescriptorsAccumulateAndCloseOnStreamClose) {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_client("client");
  c.preload_file("/f", 12 * 1024 * 1024, 91, {{"datanode1"}});
  c.enable_vread();
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, "client", "/f", 1 << 20, r));
  // Sequential read1 closes each block's vfd when the block is consumed.
  EXPECT_EQ(c.daemon("host1")->open_descriptors(), 0u);
}

TEST(DeleteRecreate, DeleteRefreshesMountsAndRecreateWorks) {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_client("client");
  c.preload_file("/f", 4 << 20, 92, {{"datanode1"}});
  c.enable_vread();
  DfsIoResult r1;
  c.run_job(TestDfsIo::read(c, "client", "/f", 1 << 20, r1));
  EXPECT_EQ(r1.checksum, Buffer::deterministic(92, 0, 4 << 20).checksum());

  const std::uint64_t refreshes_before = c.daemon("host1")->refreshes();
  auto del = [](Cluster* cl) -> sim::Task {
    co_await cl->client("client")->remove("/f");
  };
  c.run_job(del(&c));
  EXPECT_GT(c.daemon("host1")->refreshes(), refreshes_before);  // §3.2 delete event

  // Reading the deleted file fails at the namenode.
  DfsIoResult r2;
  EXPECT_THROW(c.run_job(TestDfsIo::read(c, "client", "/f", 1 << 20, r2)),
               hdfs::HdfsError);

  // Recreate under the same path with new content; vRead serves the new
  // blocks (fresh names -> no stale aliasing possible).
  DfsIoResult wr, r3;
  c.run_job(TestDfsIo::write(c, "client", "/f", 4 << 20, 93,
                             Cluster::place_on({"datanode1"}), wr));
  c.run_job(TestDfsIo::read(c, "client", "/f", 1 << 20, r3));
  EXPECT_EQ(r3.checksum, Buffer::deterministic(93, 0, 4 << 20).checksum());
  EXPECT_EQ(c.daemon("host1")->failed_opens(), 0u);
}

// --- parameterized configuration sweeps ---

// gtest names each case after the raw bytes of its SweepCase, so the
// struct must have no padding (padding bytes are whatever the stack held,
// which made the test names differ between builds). `reserved` fills the
// gap after `vread` and is always zero.
struct SweepCase {
  std::uint64_t block_size;
  int replication;
  bool vread;
  std::uint8_t reserved[3] = {};
};
static_assert(std::has_unique_object_representations_v<SweepCase>,
              "SweepCase must have no padding bytes");

class ConfigSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConfigSweep, WriteReadRoundTripAcrossConfigs) {
  const SweepCase& p = GetParam();
  ClusterConfig cfg;
  cfg.block_size = p.block_size;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_datanode("host2", "datanode2");
  c.add_client("client");
  if (p.vread) c.enable_vread();

  const std::uint64_t bytes = 3 * p.block_size + p.block_size / 3;  // odd tail
  DfsIoResult wr, rd;
  c.run_job(TestDfsIo::write(c, "client", "/f", bytes, 95,
                             c.client("client")->default_placement(p.replication),
                             wr));
  c.drop_all_caches();
  c.run_job(TestDfsIo::read(c, "client", "/f", 1 << 20, rd));
  EXPECT_EQ(rd.bytes, bytes);
  EXPECT_EQ(rd.checksum, Buffer::deterministic(95, 0, bytes).checksum());
  for (const hdfs::BlockInfo& b : c.namenode().all_blocks("/f")) {
    EXPECT_EQ(b.locations.size(), static_cast<std::size_t>(p.replication));
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlockAndReplication, ConfigSweep,
    ::testing::Values(SweepCase{1 << 20, 1, false}, SweepCase{1 << 20, 2, true},
                      SweepCase{4 << 20, 1, true}, SweepCase{4 << 20, 2, false},
                      SweepCase{16 << 20, 2, true},
                      // paper-default 64 MB blocks
                      SweepCase{64 << 20, 1, true}));

}  // namespace
}  // namespace vread
