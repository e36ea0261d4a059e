// Deeper behavioral coverage: engine corner cases, scheduler frequency
// changes and wakeup-placement statistics, channel request ordering,
// connection independence, three-replica pipelines, and remote control
// operations.
#include <gtest/gtest.h>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "core/libvread.h"
#include "hw/cpu.h"
#include "mem/buffer.h"
#include "virt/shm_channel.h"

namespace vread {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;
using mem::Buffer;

// --- engine corners ---

TEST(SimCorners, RunUntilExactEventBoundaryIncludesEvent) {
  sim::Simulation s;
  bool fired = false;
  s.post_at(sim::ms(5), [&] { fired = true; });
  s.run_until(sim::ms(5));
  EXPECT_TRUE(fired);  // deadline is inclusive
}

TEST(SimCorners, TaskMoveTransfersOwnership) {
  sim::Simulation s;
  auto coro = [](sim::Simulation& sm, int* x) -> sim::Task {
    co_await sm.delay(sim::ms(1));
    *x = 7;
  };
  int x = 0;
  sim::Task a = coro(s, &x);
  sim::Task b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  s.spawn(std::move(b));
  s.run();
  EXPECT_EQ(x, 7);
}

TEST(SimCorners, YieldRunsQueuedEventsFirst) {
  sim::Simulation s;
  std::vector<int> order;
  auto proc = [](sim::Simulation& sm, std::vector<int>* o) -> sim::Task {
    o->push_back(1);
    co_await sm.yield();
    o->push_back(3);
  };
  s.spawn(proc(s, &order));
  s.post_at(0, [&] { order.push_back(2); });
  s.run();
  // spawn posts the coroutine start at t=0 (seq before the lambda), so: the
  // coroutine runs 1, yields; lambda runs 2; coroutine resumes 3.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SemaphoreCorners, TryAcquireRespectsWaiterQueue) {
  sim::Simulation s;
  sim::Semaphore sem(s, 1);
  EXPECT_TRUE(sem.try_acquire());
  auto waiter = [](sim::Semaphore& sm, bool* got) -> sim::Task {
    co_await sm.acquire();
    *got = true;
  };
  bool got = false;
  s.spawn(waiter(sem, &got));
  s.run();
  EXPECT_FALSE(got);
  // With a queued waiter, try_acquire must not barge even after release.
  sem.release();
  EXPECT_FALSE(sem.try_acquire());
  s.run();
  EXPECT_TRUE(got);
}

// --- scheduler corners ---

TEST(SchedulerCorners, ConsumeTimeScalesWithFrequency) {
  // The same cycles take a quarter of the time on a 4 GHz package.
  auto elapsed = [](double ghz) {
    sim::Simulation s;
    metrics::CycleAccounting acct;
    hw::CpuScheduler cpu(s, acct, {.cores = 1, .freq_ghz = ghz, .slice = sim::ms(1)});
    hw::ThreadId t = cpu.add_thread("t", "g");
    sim::SimTime done = -1;
    auto proc = [](hw::CpuScheduler& c, hw::ThreadId tid, sim::Simulation& sm,
                   sim::SimTime* out) -> sim::Task {
      co_await c.consume(tid, 4'000'000, hw::CycleCategory::kOther);
      *out = sm.now();
    };
    s.spawn(proc(cpu, t, s, &done));
    s.run();
    return static_cast<double>(done);
  };
  EXPECT_NEAR(elapsed(1.0), static_cast<double>(sim::ms(4)), static_cast<double>(sim::us(10)));
  EXPECT_NEAR(elapsed(4.0), static_cast<double>(sim::ms(1)), static_cast<double>(sim::us(10)));
}

TEST(SchedulerCorners, WakeupPlacementPenaltyScalesWithLoad) {
  // Statistical property of the Fig. 3 mechanism: with busier cores, a
  // waking thread pays the migration penalty more often.
  auto avg_latency = [](int hogs) {
    sim::Simulation s;
    metrics::CycleAccounting acct;
    hw::CpuScheduler cpu(s, acct, {.cores = 4, .freq_ghz = 1.0});
    for (int h = 0; h < hogs; ++h) {
      hw::ThreadId tid = cpu.add_thread("hog", "g");
      s.spawn([](hw::CpuScheduler& c, hw::ThreadId t) -> sim::Task {
        co_await c.consume(t, 4'000'000'000ULL, hw::CycleCategory::kLookbusy);
      }(cpu, tid));
    }
    hw::ThreadId t = cpu.add_thread("lat", "g");
    sim::SimTime total = 0;
    auto prober = [](hw::CpuScheduler& c, hw::ThreadId tid, sim::Simulation& sm,
                     sim::SimTime* sum) -> sim::Task {
      for (int i = 0; i < 400; ++i) {
        co_await sm.delay(sim::us(500));  // sleep: the next burst is a wakeup
        const sim::SimTime t0 = sm.now();
        co_await c.consume(tid, 1000, hw::CycleCategory::kOther);  // 1 us of work
        *sum += sm.now() - t0;
      }
    }(cpu, t, s, &total);
    s.spawn(std::move(prober));
    s.run_until(sim::ms(400));
    return static_cast<double>(total) / 400.0;
  };
  const double idle = avg_latency(0);
  const double loaded = avg_latency(3);
  EXPECT_GT(loaded, idle + 1000.0);  // ≥1 us extra average wakeup latency
}

// --- ShmChannel request ordering ---

TEST(ShmOrdering, QueuedRequestsServeFifo) {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_client("client");
  c.preload_file("/f", 4 << 20, 21, {{"datanode1"}});
  c.enable_vread();
  const std::string blk = c.namenode().all_blocks("/f").front().name;
  core::LibVread* lib = c.libvread("client");

  // Many sequential reads via the Table 1 streaming API: responses must
  // come back in order with contiguous offsets.
  std::vector<std::uint64_t> sums;
  auto proc = [](core::LibVread* l, std::string name,
                 std::vector<std::uint64_t>* out) -> sim::Task {
    std::uint64_t vfd = 0;
    Status st;
    co_await l->vread_open(sim::Name(name), "datanode1", vfd, st);
    for (int i = 0; i < 16; ++i) {
      mem::Buffer b;
      co_await l->vread_read(vfd, 64 << 10, b, st);
      out->push_back(b.checksum());
    }
    co_await l->vread_close(vfd, st);
  };
  c.run_job(proc(lib, blk, &sums));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(sums[static_cast<std::size_t>(i)],
              Buffer::deterministic(21, static_cast<std::uint64_t>(i) * (64 << 10),
                                    64 << 10)
                  .checksum())
        << "request " << i;
  }
}

// --- connection independence ---

TEST(NetIndependence, ParallelConnectionsDoNotCrossData) {
  ClusterConfig cfg;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "a");
  c.add_vm("host1", "b");
  c.net().listen(*c.vm("b"), 7);
  bool ok1 = false, ok2 = false;
  auto server = [](Cluster* cl, int count) -> sim::Task {
    for (int i = 0; i < count; ++i) {
      virt::TcpSocket s;
      co_await cl->net().accept(*cl->vm("b"), 7, s);
      cl->sim().spawn([](virt::TcpSocket sock) -> sim::Task {
        Buffer got;
        co_await sock.recv_exact(100'000, got, hw::CycleCategory::kDatanodeApp);
        co_await sock.send(std::move(got), hw::CycleCategory::kDatanodeApp);  // echo
      }(s));
    }
  };
  auto client = [](Cluster* cl, std::uint64_t seed, bool* ok) -> sim::Task {
    virt::TcpSocket s;
    co_await cl->net().connect(*cl->vm("a"), "b", 7, s);
    Buffer payload = Buffer::deterministic(seed, 0, 100'000);
    co_await s.send(payload, hw::CycleCategory::kClientApp);
    Buffer echo;
    co_await s.recv_exact(100'000, echo, hw::CycleCategory::kClientApp);
    *ok = echo == payload;
  };
  c.sim().spawn(server(&c, 2));
  c.sim().spawn(client(&c, 111, &ok1));
  c.sim().spawn(client(&c, 222, &ok2));
  c.sim().run_until(sim::sec(10));
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
}

// --- three-replica pipeline ---

TEST(Replication, ThreeWayPipelineAcrossHosts) {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_host("host2");
  c.add_host("host3");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "dn1");
  c.add_datanode("host2", "dn2");
  c.add_datanode("host3", "dn3");
  c.add_client("client");
  const std::uint64_t bytes = 6 << 20;
  DfsIoResult wr;
  c.run_job(TestDfsIo::write(c, "client", "/r3", bytes, 77,
                             Cluster::place_on({"dn1", "dn2", "dn3"}), wr));
  for (const hdfs::BlockInfo& b : c.namenode().all_blocks("/r3")) {
    EXPECT_EQ(b.locations.size(), 3u);
    for (const char* dn : {"dn1", "dn2", "dn3"}) {
      auto ino = c.datanode(dn)->vm().fs().lookup(hdfs::DataNode::block_path(b.name));
      ASSERT_TRUE(ino.has_value()) << dn;
      EXPECT_EQ(c.datanode(dn)->vm().fs().file_size(*ino), b.size) << dn;
    }
  }
  // Each replica holds identical bytes (pipeline forwards faithfully).
  const hdfs::BlockInfo& b0 = c.namenode().all_blocks("/r3").front();
  Buffer ref = c.datanode("dn1")->vm().fs().read(
      *c.datanode("dn1")->vm().fs().lookup(hdfs::DataNode::block_path(b0.name)), 0,
      b0.size);
  for (const char* dn : {"dn2", "dn3"}) {
    auto ino = c.datanode(dn)->vm().fs().lookup(hdfs::DataNode::block_path(b0.name));
    EXPECT_EQ(c.datanode(dn)->vm().fs().read(*ino, 0, b0.size), ref) << dn;
  }
}

// --- remote vRead_update forwarding ---

TEST(RemoteUpdate, ClientUpdateReachesRemoteDaemon) {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host2", "datanode2");
  c.add_client("client");
  c.enable_vread();
  const std::uint64_t before = c.daemon("host2")->refreshes();
  // vRead_update for a remote datanode forwards daemon-to-daemon.
  auto proc = [](core::LibVread* lib) -> sim::Task {
    co_await lib->update("datanode2");
  };
  c.run_job(proc(c.libvread("client")));
  EXPECT_EQ(c.daemon("host2")->refreshes(), before + 1);
  EXPECT_EQ(c.daemon("host1")->refreshes(), 0u);  // nothing local to refresh
}

}  // namespace
}  // namespace vread
