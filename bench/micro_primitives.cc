// google-benchmark microbenchmarks of the simulator's own primitives: how
// fast does the engine itself run? These guard against regressions that
// would make the figure-level benches impractically slow (the event loop
// executes millions of events per simulated second of a busy host).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/block_cache.h"
#include "fs/disk_image.h"
#include "fs/simfs.h"
#include "hw/cpu.h"
#include "mem/buffer.h"
#include "mem/page_cache.h"
#include "metrics/accounting.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace vread {
namespace {

void BM_EventLoopDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.post_at(i, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopDispatch);

sim::Task ping(sim::Simulation& sim, sim::Mailbox<int>& a, sim::Mailbox<int>& b, int n) {
  (void)sim;
  for (int i = 0; i < n; ++i) {
    a.send(i);
    int v = co_await b.recv();
    benchmark::DoNotOptimize(v);
  }
}

sim::Task pong(sim::Mailbox<int>& a, sim::Mailbox<int>& b, int n) {
  for (int i = 0; i < n; ++i) {
    int v = co_await a.recv();
    b.send(v);
  }
}

void BM_MailboxPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Mailbox<int> a(sim), b(sim);
    sim.spawn(pong(a, b, 1000));
    sim.spawn(ping(sim, a, b, 1000));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MailboxPingPong);

sim::Task pool_worker(sim::Mailbox<int>& jobs, sim::Latch& done, int n) {
  for (int i = 0; i < n; ++i) {
    int v = co_await jobs.recv();
    benchmark::DoNotOptimize(v);
    done.count_down();
  }
}

// The daemon worker pool is N receivers parked on one mailbox; this
// measures the multi-waiter dispatch path (send -> FIFO waiter handoff).
void BM_MailboxMultiWaiter(benchmark::State& state) {
  const int kWorkers = 4;
  const int kJobs = 1000;  // divisible by kWorkers: every worker terminates
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Mailbox<int> jobs(sim);
    sim::Latch done(sim, kJobs);
    for (int w = 0; w < kWorkers; ++w) {
      sim.spawn(pool_worker(jobs, done, kJobs / kWorkers));
    }
    for (int i = 0; i < kJobs; ++i) jobs.send(i);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_MailboxMultiWaiter);

// One request of ShmChannel::call's pattern: the caller builds a
// completion mailbox in its frame, parks on it, and the server answers
// through it; the mailbox dies with the request.
sim::Task per_request_caller(sim::Simulation& sim, sim::Mailbox<int>& requests,
                             sim::Mailbox<std::uint64_t>** reply_to, int n) {
  for (int i = 0; i < n; ++i) {
    sim::Mailbox<std::uint64_t> reply(sim);
    *reply_to = &reply;
    requests.send(i);
    std::uint64_t v = co_await reply.recv();
    benchmark::DoNotOptimize(v);
  }
}

sim::Task per_request_server(sim::Mailbox<int>& requests,
                             sim::Mailbox<std::uint64_t>** reply_to, int n) {
  for (int i = 0; i < n; ++i) {
    const int id = co_await requests.recv();
    (*reply_to)->send(static_cast<std::uint64_t>(id));
  }
}

void BM_MailboxPerRequest(benchmark::State& state) {
  const int kRequests = 1000;
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Mailbox<int> requests(sim);
    sim::Mailbox<std::uint64_t>* reply_to = nullptr;
    sim.spawn(per_request_server(requests, &reply_to, kRequests));
    sim.spawn(per_request_caller(sim, requests, &reply_to, kRequests));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
}
BENCHMARK(BM_MailboxPerRequest);

sim::Task sem_contender(sim::Semaphore& sem, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sem.acquire();
    sem.release();
  }
}

// The multi-outstanding shm ring bounds in-flight requests with a FIFO
// semaphore; this measures acquire/release under heavy waiter queues.
void BM_SemaphoreContention(benchmark::State& state) {
  const int kContenders = 8;
  const int kRounds = 500;
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Semaphore sem(sim, 2);
    for (int t = 0; t < kContenders; ++t) {
      sim.spawn(sem_contender(sem, kRounds));
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * kContenders * kRounds);
}
BENCHMARK(BM_SemaphoreContention);

sim::Task burn_loop(hw::CpuScheduler& cpu, hw::ThreadId tid, int n) {
  for (int i = 0; i < n; ++i) {
    co_await cpu.consume(tid, 100'000, hw::CycleCategory::kOther);
  }
}

void BM_CpuSchedulerBursts(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    metrics::CycleAccounting acct;
    hw::CpuScheduler cpu(sim, acct, {.cores = 4, .freq_ghz = 2.0});
    for (int t = 0; t < 6; ++t) {
      sim.spawn(burn_loop(cpu, cpu.add_thread("t", "g"), 200));
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1200);
}
BENCHMARK(BM_CpuSchedulerBursts);

void BM_PageCacheMissTrack(benchmark::State& state) {
  mem::PageCache cache(64ULL << 20);
  std::uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.miss_bytes(1, off, 65536));
    cache.fill(1, off, 65536);
    off += 65536;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_PageCacheMissTrack);

// A 1 MiB cache (256 pages) fed 64 KiB windows at advancing offsets:
// once warm, every fill evicts 16 pages.
void BM_PageCacheEvictingFill(benchmark::State& state) {
  mem::PageCache cache(1ULL << 20);
  std::uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.miss_bytes(1, off, 65536));
    cache.fill(1, off, 65536);
    off += 65536;
  }
  benchmark::DoNotOptimize(cache.evictions());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_PageCacheEvictingFill);

void BM_SimFsSequentialRead(benchmark::State& state) {
  auto img = std::make_shared<fs::DiskImage>(64ULL << 20);
  fs::SimFs fs = fs::SimFs::format(img);
  std::uint32_t ino = fs.write_file("/f", mem::Buffer::deterministic(1, 0, 8 << 20));
  std::uint64_t off = 0;
  for (auto _ : state) {
    mem::Buffer b = fs.read(ino, off % (7 << 20), 65536);
    benchmark::DoNotOptimize(b.data());
    off += 65536;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_SimFsSequentialRead);

void BM_BufferChecksum(benchmark::State& state) {
  mem::Buffer b = mem::Buffer::deterministic(9, 0, 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.checksum());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_BufferChecksum);

// The verify-side page digest of a view (every byte hashed, whole pages
// through the batched kernel), at a block-cache window and a block size.
void BM_PageDigest(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const mem::Buffer b = mem::Buffer::deterministic(10, 0, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.page_digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_PageDigest)->Arg(256 << 10)->Arg(16 << 20);

// A block-cache insert of one 256 KiB window of a 4 MiB image run, in a
// cache with room for one window: every insert evicts the other key's
// entry and re-inserts the same view.
void BM_BlockCacheReinsertSameView(benchmark::State& state) {
  constexpr std::size_t kWindow = 256 * 1024;
  const mem::Buffer run = mem::Buffer::deterministic(11, 0, 4 << 20);
  const mem::Buffer view = run.slice(kWindow, kWindow);
  core::BlockCache cache(kWindow, "micro");
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.insert("dn", (i++ & 1) ? "blk_a" : "blk_b", 0, view));
  }
  benchmark::DoNotOptimize(cache.evictions());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kWindow);
}
BENCHMARK(BM_BlockCacheReinsertSameView);

// The same insert, but of a window of a fresh slab each time (built
// outside the timed region), so no digest was ever taken of it.
void BM_BlockCacheInsertFreshView(benchmark::State& state) {
  constexpr std::size_t kWindow = 256 * 1024;
  const mem::Buffer source = mem::Buffer::deterministic(12, 0, kWindow);
  core::BlockCache cache(kWindow, "micro");
  std::uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const mem::Buffer fresh(source.data(), kWindow);
    state.ResumeTiming();
    benchmark::DoNotOptimize(cache.insert("dn", (i++ & 1) ? "blk_a" : "blk_b", 0, fresh));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kWindow);
}
BENCHMARK(BM_BlockCacheInsertFreshView);

void BM_DeterministicPayload(benchmark::State& state) {
  for (auto _ : state) {
    mem::Buffer b = mem::Buffer::deterministic(7, 0, 1 << 20);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_DeterministicPayload);

}  // namespace
}  // namespace vread

namespace {

// Console output as usual, plus every run's adjusted real time captured
// into the shared bench-telemetry report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(vread::bench::BenchReport& report) : report_(report) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      report_.metric(run.benchmark_name() + "_ns", run.GetAdjustedRealTime(), "ns",
                     "lower");
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  vread::bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  vread::bench::BenchReport report("micro_primitives");
  // Strip --json [FILE] before google-benchmark sees the flags (it rejects
  // unknown arguments); maybe_write() re-reads the original argv.
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') ++i;
      continue;
    }
    filtered.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) return 1;
  CapturingReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.maybe_write(argc, argv);
  return 0;
}
