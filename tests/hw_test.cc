// Unit tests for the hardware layer: CPU scheduler timing and fairness,
// worker-thread serialization, disk FIFO timing, network links, cost model.
#include <gtest/gtest.h>

#include <vector>

#include "hw/cost_model.h"
#include "hw/cpu.h"
#include "hw/disk.h"
#include "hw/network.h"
#include "hw/worker.h"
#include "metrics/accounting.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace vread::hw {
namespace {

using sim::ms;
using sim::SimTime;
using sim::us;

struct CpuFixture {
  sim::Simulation sim;
  metrics::CycleAccounting acct;
  CpuScheduler cpu;
  explicit CpuFixture(CpuScheduler::Config cfg) : cpu(sim, acct, cfg) {}
};

sim::Task burn(CpuScheduler& cpu, ThreadId tid, sim::Cycles cycles, CycleCategory cat,
               SimTime& done_at, sim::Simulation& sim) {
  co_await cpu.consume(tid, cycles, cat);
  done_at = sim.now();
}

TEST(CpuScheduler, SingleThreadTimeEqualsCyclesOverFrequency) {
  CpuFixture f({.cores = 4, .freq_ghz = 2.0, .slice = ms(1)});
  ThreadId t = f.cpu.add_thread("t", "g");
  SimTime done = -1;
  // 10e6 cycles at 2 GHz = 5 ms.
  f.sim.spawn(burn(f.cpu, t, 10'000'000, CycleCategory::kClientApp, done, f.sim));
  f.sim.run();
  EXPECT_EQ(done, ms(5));
  EXPECT_EQ(f.acct.thread_total(t, CycleCategory::kClientApp), 10'000'000u);
  EXPECT_EQ(f.acct.thread_busy_time(t), ms(5));
}

TEST(CpuScheduler, FrequencyScalesTime) {
  for (double ghz : {1.6, 2.0, 3.2}) {
    CpuFixture f({.cores = 1, .freq_ghz = ghz, .slice = ms(1)});
    ThreadId t = f.cpu.add_thread("t", "g");
    SimTime done = -1;
    f.sim.spawn(burn(f.cpu, t, 16'000'000, CycleCategory::kOther, done, f.sim));
    f.sim.run();
    SimTime expected = static_cast<SimTime>(16'000'000 / ghz);
    EXPECT_NEAR(static_cast<double>(done), static_cast<double>(expected), 1000.0)
        << "freq " << ghz;
  }
}

TEST(CpuScheduler, TwoThreadsOneCoreShareFairly) {
  CpuFixture f({.cores = 1, .freq_ghz = 1.0, .slice = ms(1)});
  ThreadId a = f.cpu.add_thread("a", "g");
  ThreadId b = f.cpu.add_thread("b", "g");
  SimTime done_a = -1, done_b = -1;
  // Each needs 10 ms of CPU; sharing one core both finish around 20 ms.
  f.sim.spawn(burn(f.cpu, a, 10'000'000, CycleCategory::kOther, done_a, f.sim));
  f.sim.spawn(burn(f.cpu, b, 10'000'000, CycleCategory::kOther, done_b, f.sim));
  f.sim.run();
  EXPECT_GE(done_a, ms(19));
  EXPECT_GE(done_b, ms(19));
  EXPECT_LE(done_a, ms(21));
  EXPECT_LE(done_b, ms(21));
  // Fairness: completion within one slice of each other.
  EXPECT_LE(std::abs(done_a - done_b), ms(1));
}

TEST(CpuScheduler, TwoThreadsTwoCoresRunInParallel) {
  CpuFixture f({.cores = 2, .freq_ghz = 1.0, .slice = ms(1)});
  ThreadId a = f.cpu.add_thread("a", "g");
  ThreadId b = f.cpu.add_thread("b", "g");
  SimTime done_a = -1, done_b = -1;
  f.sim.spawn(burn(f.cpu, a, 10'000'000, CycleCategory::kOther, done_a, f.sim));
  f.sim.spawn(burn(f.cpu, b, 10'000'000, CycleCategory::kOther, done_b, f.sim));
  f.sim.run();
  EXPECT_EQ(done_a, ms(10));
  EXPECT_EQ(done_b, ms(10));
}

TEST(CpuScheduler, WorkConservation) {
  // Total busy time equals total demanded cycles / frequency regardless of
  // contention pattern.
  CpuFixture f({.cores = 2, .freq_ghz = 2.0, .slice = ms(1)});
  std::vector<ThreadId> tids;
  std::vector<SimTime> dones(5, -1);
  for (int i = 0; i < 5; ++i) tids.push_back(f.cpu.add_thread("t", "g"));
  for (int i = 0; i < 5; ++i) {
    f.sim.spawn(burn(f.cpu, tids[static_cast<size_t>(i)], 4'000'000,
                     CycleCategory::kOther, dones[static_cast<size_t>(i)], f.sim));
  }
  f.sim.run();
  EXPECT_EQ(f.acct.group_total("g"), 20'000'000u);
  EXPECT_EQ(f.acct.group_busy_time("g"), ms(10));  // 20e6 cycles / 2GHz
}

TEST(CpuScheduler, QueueingDelayEmergesUnderOversubscription) {
  // A short burst arriving while the core is saturated waits for a slice.
  CpuFixture f({.cores = 1, .freq_ghz = 1.0, .slice = ms(1)});
  ThreadId hog = f.cpu.add_thread("hog", "g");
  ThreadId lat = f.cpu.add_thread("lat", "g");
  SimTime hog_done = -1, lat_done = -1;
  f.sim.spawn(burn(f.cpu, hog, 50'000'000, CycleCategory::kLookbusy, hog_done, f.sim));
  // 0.1 ms of work; alone it would finish at t=0.1ms. Behind the hog it
  // must wait at least one slice.
  f.sim.spawn(burn(f.cpu, lat, 100'000, CycleCategory::kOther, lat_done, f.sim));
  f.sim.run();
  EXPECT_GE(lat_done, ms(1));
  EXPECT_LE(lat_done, ms(3));
}

TEST(CpuScheduler, ZeroCycleConsumeIsImmediate) {
  CpuFixture f({.cores = 1, .freq_ghz = 1.0, .slice = ms(1)});
  ThreadId t = f.cpu.add_thread("t", "g");
  SimTime done = -1;
  f.sim.spawn(burn(f.cpu, t, 0, CycleCategory::kOther, done, f.sim));
  f.sim.run();
  EXPECT_EQ(done, 0);
}

TEST(WorkerThread, JobsRunSeriallyInSubmitOrder) {
  CpuFixture f({.cores = 4, .freq_ghz = 1.0, .slice = ms(1)});
  WorkerThread w(f.sim, f.cpu, "io", "host");
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    w.submit([&w, &order, i]() -> sim::Task {
      co_await w.cpu().consume(w.tid(), 1'000'000, CycleCategory::kVhostNet);
      order.push_back(i);
    });
  }
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(f.acct.thread_total(w.tid(), CycleCategory::kVhostNet), 3'000'000u);
  // Serial: 3 ms of busy time even with 4 idle cores.
  EXPECT_EQ(f.acct.thread_busy_time(w.tid()), ms(3));
}

sim::Task disk_read_proc(Disk& disk, std::uint64_t bytes, sim::Simulation& sim,
                         SimTime& done) {
  co_await disk.read(bytes, {});
  done = sim.now();
}

TEST(Disk, ReadTimeIsLatencyPlusTransfer) {
  sim::Simulation s;
  Disk disk(s, Disk::Config{.read_bw_mbps = 400.0});
  SimTime done = -1;
  // 4 MB at 400 MB/s = 10 ms, plus the access latency.
  s.spawn(disk_read_proc(disk, 4'000'000, s, done));
  s.run();
  EXPECT_EQ(done, ms(10) + Disk::kReadLatency);
}

TEST(Disk, RequestsSerializeFifo) {
  sim::Simulation s;
  Disk disk(s, Disk::Config{.read_bw_mbps = 100.0});
  SimTime d1 = -1, d2 = -1;
  s.spawn(disk_read_proc(disk, 1'000'000, s, d1));  // 10 ms + latency
  s.spawn(disk_read_proc(disk, 1'000'000, s, d2));  // queued behind
  s.run();
  EXPECT_EQ(d1, ms(10) + Disk::kReadLatency);
  EXPECT_EQ(d2, ms(20) + 2 * Disk::kReadLatency);
  EXPECT_EQ(disk.bytes_read(), 2'000'000u);
  EXPECT_EQ(disk.read_count(), 2u);
}

TEST(Disk, WriteUsesWriteBandwidth) {
  sim::Simulation s;
  Disk disk(s, Disk::Config{});
  // 10 ms worth of bytes at the write bandwidth.
  const auto bytes = static_cast<std::uint64_t>(Disk::kWriteBwMbps * 10'000);
  SimTime done = -1;
  auto proc = [](Disk& d, std::uint64_t n, sim::Simulation& sm, SimTime& out) -> sim::Task {
    co_await d.write(n);
    out = sm.now();
  };
  s.spawn(proc(disk, bytes, s, done));
  s.run();
  EXPECT_EQ(done, ms(10) + Disk::kWriteLatency);
  EXPECT_EQ(disk.bytes_written(), bytes);
}

TEST(NetworkLink, TransferTimeMatchesBandwidthPlusPropagation) {
  NetworkLink link({.bw_gbps = 10.0, .propagation = us(30)});
  // 1.25 MB at 10 Gbps (1.25 GB/s) = 1 ms.
  EXPECT_EQ(link.schedule_at(0, 1'250'000), ms(1) + us(30));
  EXPECT_EQ(link.bytes_sent(), 1'250'000u);
}

TEST(NetworkLink, SenderSerializesButPropagationOverlaps) {
  NetworkLink link({.bw_gbps = 10.0, .propagation = us(30)});
  EXPECT_EQ(link.schedule_at(0, 1'250'000), ms(1) + us(30));
  // Serialized on the wire, not the latency.
  EXPECT_EQ(link.schedule_at(0, 1'250'000), ms(2) + us(30));
  // A hop that may not start before its predecessor landed starts then.
  EXPECT_EQ(link.schedule_at(ms(5), 1'250'000), ms(6) + us(30));
}

TEST(Lan, HostsGetIndependentEgressLinks) {
  sim::Simulation s;
  Lan lan(s, {.bw_gbps = 10.0, .propagation = us(30)});
  HostId h1 = lan.add_host();
  HostId h2 = lan.add_host();
  SimTime d1 = -1, d2 = -1;
  auto xfer = [](Lan& l, HostId src, HostId dst, sim::Simulation& sm,
                 SimTime& out) -> sim::Task {
    co_await l.transfer(src, dst, 1'250'000);
    out = sm.now();
  };
  s.spawn(xfer(lan, h1, h2, s, d1));
  s.spawn(xfer(lan, h2, h1, s, d2));
  s.run();
  // Different NICs: both complete in parallel.
  EXPECT_EQ(d1, ms(1) + us(30));
  EXPECT_EQ(d2, ms(1) + us(30));
}

TEST(CostModel, Helpers) {
  CostModel cm;
  EXPECT_EQ(cm.segments(0), 0u);
  EXPECT_EQ(cm.segments(1), 1u);
  EXPECT_EQ(cm.segments(64 * 1024), 1u);
  EXPECT_EQ(cm.segments(64 * 1024 + 1), 2u);
  EXPECT_EQ(cm.pages(1), 1u);
  EXPECT_EQ(cm.pages(4096), 1u);
  EXPECT_EQ(cm.pages(4097), 2u);
  EXPECT_EQ(cm.copy_cost(1000), static_cast<sim::Cycles>(1000 * cm.copy_cycles_per_byte));
  EXPECT_EQ(cm.per_byte(1000, 2.0), 2000u);
}

}  // namespace
}  // namespace vread::hw
