// Fair-share multi-core CPU scheduler.
//
// Models a physical host's CPU package: N cores, a run queue, round-robin
// time slices, and a configurable frequency (the paper's cpufreq-set
// experiments). Simulated threads execute work by awaiting
// `consume(thread, cycles, category)`; when more threads are runnable than
// there are cores, the wait in the run queue *is* the paper's
// "VM / I/O-thread synchronization delay" (Fig. 3) — it emerges, it is not
// injected.
//
// Every consumed cycle is charged to the thread's accounting record tagged
// with the given category, which feeds the Fig. 6-8 CPU breakdowns.
#pragma once

#include <deque>
#include <vector>
#include <string>

#include "metrics/accounting.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "trace/tracer.h"

namespace vread::hw {

using metrics::CycleCategory;
using metrics::ThreadId;

class CpuScheduler {
 public:
  struct Config {
    int cores = 4;
    double freq_ghz = 2.0;            // cycles per nanosecond
    sim::SimTime slice = sim::ms(3);  // round-robin quantum (CFS-scale)
  };

  // Wakeup cost when a thread cannot run on the core it last used (its
  // cache-hot runqueue is busy and it must be migrated): runqueue locks,
  // IPI, cold caches. This is the mechanism behind the paper's Fig. 3 —
  // I/O threads and vCPUs that ping-pong per segment eat this penalty on
  // every handoff once background VMs keep cores busy.
  static constexpr sim::SimTime kMigrationDelay = sim::us(4);

  CpuScheduler(sim::Simulation& sim, metrics::CycleAccounting& acct, Config config)
      : sim_(sim), acct_(acct), config_(config), idle_cores_(config.cores) {}
  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  // Registers a schedulable thread (vCPU, vhost I/O thread, daemon, ...).
  ThreadId add_thread(std::string name, std::string group) {
    return acct_.register_thread(std::move(name), std::move(group));
  }

  // Awaitable unit of CPU work. The calling coroutine resumes once the
  // thread has been granted `cycles` cycles of core time, however many
  // quanta that takes. A thread may have only one outstanding burst
  // (threads are sequential).
  struct ConsumeAwaiter {
    CpuScheduler& cpu;
    ThreadId tid;
    sim::Cycles remaining;
    CycleCategory cat;
    trace::Ctx ctx{};         // read being serviced (trace attribution only)
    std::coroutine_handle<> waiter{};
    int core = -1;            // core currently executing this burst
    bool fresh = true;        // first quantum of the burst (wakeup path)
    sim::SimTime enqueue_t = 0;  // when the burst became runnable
    sim::SimTime busy_t = 0;     // core time granted so far
    sim::Cycles quantum = 0;     // cycles of the quantum in flight...
    sim::SimTime quantum_t = 0;  // ...and its core time

    bool await_ready() const noexcept { return remaining == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      waiter = h;
      enqueue_t = cpu.sim_.now();
      cpu.enqueue(this);
    }
    void await_resume() const noexcept {}
  };

  ConsumeAwaiter consume(ThreadId tid, sim::Cycles cycles, CycleCategory cat,
                         trace::Ctx ctx = {}) {
    return ConsumeAwaiter{*this, tid, cycles, cat, ctx};
  }

  int cores() const { return config_.cores; }

  sim::SimTime cycles_to_time(sim::Cycles cycles) const {
    return static_cast<sim::SimTime>(static_cast<double>(cycles) / config_.freq_ghz);
  }
  sim::Cycles time_to_cycles(sim::SimTime t) const {
    return static_cast<sim::Cycles>(static_cast<double>(t) * config_.freq_ghz);
  }

  metrics::CycleAccounting& accounting() { return acct_; }

 private:
  friend struct ConsumeAwaiter;

  void enqueue(ConsumeAwaiter* burst) {
    burst->fresh = true;
    run_queue_.push_back(burst);
    dispatch();
  }

  void dispatch() {
    while (idle_cores_ > 0 && !run_queue_.empty()) {
      const int busy_cores = config_.cores - idle_cores_;
      ConsumeAwaiter* b = run_queue_.front();
      run_queue_.pop_front();
      --idle_cores_;
      // Prefer the core this thread last ran on (cache-hot); otherwise
      // pick any idle core.
      const int last = last_core(b->tid);
      int core = -1;
      if (last >= 0 && !core_busy_[static_cast<std::size_t>(last)]) {
        core = last;
      } else {
        for (int i = 0; i < config_.cores; ++i) {
          if (!core_busy_[static_cast<std::size_t>(i)]) {
            core = i;
            break;
          }
        }
      }
      core_busy_[static_cast<std::size_t>(core)] = true;
      b->core = core;
      // Wakeup placement: with probability busy/cores the waking thread
      // first lands on a busy runqueue (CFS picks by load, not by what is
      // idle this nanosecond) and pays the migration penalty to get here.
      // First-ever dispatch of a thread has no cache affinity and is free.
      bool delayed = false;
      if (b->fresh && last >= 0 && busy_cores > 0) {
        const double p = static_cast<double>(busy_cores) / config_.cores;
        delayed = placement_rng_.uniform01() < p;
      }
      set_last_core(b->tid, core);
      start_quantum(b, delayed ? kMigrationDelay : 0);
    }
  }

  void start_quantum(ConsumeAwaiter* b, sim::SimTime extra_latency = 0) {
    const sim::Cycles slice_cycles = time_to_cycles(config_.slice);
    const sim::Cycles q = std::min(slice_cycles == 0 ? 1 : slice_cycles, b->remaining);
    const sim::SimTime dur = cycles_to_time(q);
    b->fresh = false;
    b->quantum = q;
    b->quantum_t = dur;
    sim_.call_at(sim_.now() + extra_latency + (dur == 0 ? 1 : dur), &on_quantum_end, b);
  }

  static void on_quantum_end(void* burst) {
    auto* b = static_cast<ConsumeAwaiter*>(burst);
    b->cpu.finish_quantum(b);
  }

  void finish_quantum(ConsumeAwaiter* b) {
    const sim::Cycles q = b->quantum;
    const sim::SimTime dur = b->quantum_t;
    acct_.charge(b->tid, b->cat, q);
    acct_.note_busy(b->tid, dur);
    b->remaining -= q;
    b->busy_t += dur;
    if (b->remaining == 0) {
      // Trace the finished burst: whatever part of the wall time was not
      // core time is run-queue wait + migration delay — the paper's Fig. 3
      // synchronization delay, measured per burst.
      if (auto& tr = trace::tracer(); tr.enabled()) {
        const sim::SimTime end = sim_.now();
        const sim::SimTime wait = (end - b->enqueue_t) - b->busy_t;
        if (wait > 0)
          tr.record(b->ctx, trace::SpanKind::kSyncWait, "cpu-queue",
                    static_cast<int>(b->tid), b->enqueue_t, b->enqueue_t + wait);
        tr.record(b->ctx, trace::SpanKind::kCompute, metrics::to_string(b->cat),
                  static_cast<int>(b->tid), end - b->busy_t, end);
      }
      release_core(b);
      sim_.resume_at(sim_.now(), b->waiter);
      dispatch();
    } else if (run_queue_.empty()) {
      // No competition: keep the core and run the next quantum immediately.
      start_quantum(b);
    } else {
      // Round-robin: yield the core, go to the back of the queue.
      run_queue_.push_back(b);
      release_core(b);
      dispatch();
    }
  }

  void release_core(ConsumeAwaiter* b) {
    core_busy_[static_cast<std::size_t>(b->core)] = false;
    b->core = -1;
    ++idle_cores_;
  }

  int last_core(ThreadId tid) {
    if (tid >= last_core_.size()) last_core_.resize(tid + 1, -1);
    return last_core_[tid];
  }
  void set_last_core(ThreadId tid, int core) {
    if (tid >= last_core_.size()) last_core_.resize(tid + 1, -1);
    last_core_[tid] = core;
  }

  sim::Simulation& sim_;
  metrics::CycleAccounting& acct_;
  Config config_;
  int idle_cores_;
  std::deque<ConsumeAwaiter*> run_queue_;
  std::vector<bool> core_busy_ = std::vector<bool>(static_cast<std::size_t>(config_.cores));
  std::vector<int> last_core_;
  sim::Rng placement_rng_{0x5eedcafe};  // fixed seed: runs stay deterministic
};

}  // namespace vread::hw
