// Coverage for smaller surfaces: the wire codec, TCP window backpressure,
// worker-thread composition, deadlock detection, and assorted accessors.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "hdfs/datanode.h"
#include "hdfs/wire.h"
#include "hw/worker.h"
#include "mem/buffer.h"
#include "virt/vnet.h"

namespace vread {
namespace {

using mem::Buffer;

// --- wire codec ---

TEST(WireCodec, RoundTripsAllFieldTypes) {
  hdfs::wire::Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.str("blk_12345");
  w.str("");
  Buffer raw = w.take();
  hdfs::wire::Reader r(raw);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "blk_12345");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.pos(), raw.size());
}

TEST(WireCodec, OpcodesAreStable) {
  // Protocol constants are on-the-wire ABI; lock them down.
  EXPECT_EQ(static_cast<int>(hdfs::wire::Op::kReadBlock), 1);
  EXPECT_EQ(static_cast<int>(hdfs::wire::Op::kWriteBlock), 2);
}

TEST(WireCodec, StringOverU16LengthIsRejectedBeforeWriting) {
  hdfs::wire::Writer w;
  w.u8(7);
  EXPECT_THROW(w.str(std::string(65'536, 'x')), std::length_error);
  w.str(std::string(65'535, 'y'));  // the largest length the field holds
  Buffer raw = w.take();
  EXPECT_EQ(raw.size(), 1u + 2u + 65'535u);  // nothing of the rejected string
  hdfs::wire::Reader r(raw);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.str(), std::string(65'535, 'y'));
}

TEST(WireCodec, FrameOverU16LengthIsRejectedBeforeSending) {
  sim::Simulation sim;
  metrics::CycleAccounting acct;
  hw::CostModel costs;
  hw::Lan lan(sim, {});
  virt::VirtualNetwork net(sim, lan, costs);
  virt::Host host(sim, acct, costs, lan, {.name = "h"});
  virt::Vm& a = host.add_vm({.name = "a"});
  virt::Vm& b = host.add_vm({.name = "b"});
  net.register_vm(a);
  net.register_vm(b);
  net.listen(b, 1);
  auto server = [](virt::VirtualNetwork* n, virt::Vm* vm, Buffer* got) -> sim::Task {
    virt::TcpSocket conn;
    co_await n->accept(*vm, 1, conn);
    co_await hdfs::recv_frame(conn, *got, hw::CycleCategory::kDatanodeApp);
  };
  auto client = [](virt::VirtualNetwork* n, virt::Vm* vm, bool* rejected) -> sim::Task {
    virt::TcpSocket conn;
    co_await n->connect(*vm, "b", 1, conn);
    try {
      co_await hdfs::send_frame(conn, Buffer::deterministic(5, 0, 65'536),
                                hw::CycleCategory::kClientApp);
    } catch (const std::length_error&) {
      *rejected = true;
    }
    co_await hdfs::send_frame(conn, Buffer::deterministic(6, 0, 65'535),
                              hw::CycleCategory::kClientApp);
  };
  Buffer got;
  bool rejected = false;
  sim.spawn(server(&net, &b, &got));
  sim.spawn(client(&net, &a, &rejected));
  sim.run();
  EXPECT_TRUE(rejected);
  // Only the second frame reached the wire, and it arrived intact.
  EXPECT_EQ(net.bytes_sent(), 2u + 65'535u);
  EXPECT_EQ(got, Buffer::deterministic(6, 0, 65'535));
}

// --- TCP window backpressure ---

TEST(TcpWindow, SenderBlocksUntilReceiverConsumes) {
  sim::Simulation sim;
  metrics::CycleAccounting acct;
  hw::CostModel costs;
  hw::Lan lan(sim, {});
  virt::VirtualNetwork net(sim, lan, costs);
  virt::Host host(sim, acct, costs, lan, {.name = "h"});
  virt::Vm& a = host.add_vm({.name = "a"});
  virt::Vm& b = host.add_vm({.name = "b"});
  net.register_vm(a);
  net.register_vm(b);
  net.listen(b, 1);

  sim::SimTime send_done = -1;
  sim::SimTime recv_started = -1;
  auto server = [](virt::VirtualNetwork* n, virt::Vm* vm, sim::SimTime* started,
                   sim::Simulation* s) -> sim::Task {
    virt::TcpSocket conn;
    co_await n->accept(*vm, 1, conn);
    // Consume slowly, after a long pause.
    co_await s->delay(sim::ms(50));
    *started = s->now();
    Buffer got;
    co_await conn.recv_exact(4 * virt::VirtualNetwork::kSocketWindow, got,
                             hw::CycleCategory::kDatanodeApp);
  };
  auto client = [](virt::VirtualNetwork* n, virt::Vm* vm, sim::SimTime* done,
                   sim::Simulation* s) -> sim::Task {
    virt::TcpSocket conn;
    co_await n->connect(*vm, "b", 1, conn);
    co_await conn.send(Buffer::deterministic(1, 0, 4 * virt::VirtualNetwork::kSocketWindow),
                        hw::CycleCategory::kClientApp);
    *done = s->now();
  };
  sim.spawn(server(&net, &b, &recv_started, &sim));
  sim.spawn(client(&net, &a, &send_done, &sim));
  sim.run();
  // A payload of four windows: the sender cannot finish before the
  // receiver starts draining at t=50ms.
  EXPECT_GT(send_done, recv_started);
  EXPECT_GE(recv_started, sim::ms(50));
}

TEST(TcpWindow, NetworkCountsSegmentsAndBytes) {
  sim::Simulation sim;
  metrics::CycleAccounting acct;
  hw::CostModel costs;
  hw::Lan lan(sim, {});
  virt::VirtualNetwork net(sim, lan, costs);
  virt::Host host(sim, acct, costs, lan, {.name = "h"});
  virt::Vm& a = host.add_vm({.name = "a"});
  virt::Vm& b = host.add_vm({.name = "b"});
  net.register_vm(a);
  net.register_vm(b);
  net.listen(b, 1);
  auto server = [](virt::VirtualNetwork* n, virt::Vm* vm) -> sim::Task {
    virt::TcpSocket conn;
    co_await n->accept(*vm, 1, conn);
    Buffer got;
    co_await conn.recv_exact(200'000, got, hw::CycleCategory::kDatanodeApp);
  };
  auto client = [](virt::VirtualNetwork* n, virt::Vm* vm) -> sim::Task {
    virt::TcpSocket conn;
    co_await n->connect(*vm, "b", 1, conn);
    co_await conn.send(Buffer(200'000), hw::CycleCategory::kClientApp);
  };
  sim.spawn(server(&net, &b));
  sim.spawn(client(&net, &a));
  sim.run();
  EXPECT_EQ(net.bytes_sent(), 200'000u);
  // 200000 / 65536 -> 4 segments.
  EXPECT_EQ(net.segments_sent(), 4u);
}

// --- worker composition ---

TEST(WorkerCompose, JobsMaySubmitFollowOnJobs) {
  sim::Simulation sim;
  metrics::CycleAccounting acct;
  hw::CpuScheduler cpu(sim, acct, {.cores = 2, .freq_ghz = 1.0});
  hw::WorkerThread w(sim, cpu, "w", "g");
  std::vector<int> order;
  w.submit([&]() -> sim::Task {
    co_await w.cpu().consume(w.tid(), 1000, hw::CycleCategory::kOther);
    order.push_back(1);
    w.submit([&]() -> sim::Task {
      co_await w.cpu().consume(w.tid(), 1000, hw::CycleCategory::kOther);
      order.push_back(3);
    });
    order.push_back(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(w.backlog(), 0u);
}

// --- deadlock detection ---

TEST(RunJob, DetectsDeadlockInsteadOfSpinning) {
  apps::ClusterConfig cfg;
  apps::Cluster c(cfg);
  c.add_host("host1");
  auto stuck = [](apps::Cluster* cl) -> sim::Task {
    sim::Event never(cl->sim());
    co_await never.wait();  // nothing will ever set this
  };
  EXPECT_THROW(c.run_job(stuck(&c)), std::runtime_error);
}

// --- namenode bookkeeping ---

TEST(NameNodeMisc, ListFilesAndRpcCounter) {
  apps::ClusterConfig cfg;
  apps::Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "client");
  hdfs::NameNode& nn = c.create_namenode("client");
  c.add_datanode("host1", "dn1");
  nn.create_file("/a");
  nn.create_file("/b");
  auto files = nn.list_files();
  EXPECT_EQ(files.size(), 2u);
  const std::uint64_t rpcs = nn.rpc_count();
  hdfs::BlockInfo& blk = nn.add_block("/a", {"dn1"});
  nn.complete_block("/a", blk.id, 10);
  nn.get_block_locations("/a", 0, 10);
  EXPECT_GT(nn.rpc_count(), rpcs);
}

// --- datanode stats ---

TEST(DataNodeStats, ServeCountersTrackTraffic) {
  apps::ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  apps::Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "dn1");
  c.add_client("client");
  c.preload_file("/f", 6 * 1024 * 1024, 2, {{"dn1"}});
  apps::DfsIoResult r;
  c.run_job(apps::TestDfsIo::read(c, "client", "/f", 1 << 20, r));
  EXPECT_EQ(c.datanode("dn1")->bytes_served(), 6u * 1024 * 1024);
  EXPECT_EQ(c.datanode("dn1")->blocks_served(), 2u);  // 2 block streams
}

}  // namespace
}  // namespace vread
