// Deterministic discrete-event simulation driver.
//
// Single-threaded: events fire in (time, insertion-sequence) order, so two
// runs with identical inputs produce identical traces. All synchronization
// primitives (sync.h) route resumptions through this queue rather than
// resuming coroutines inline, which keeps wakeup order deterministic and
// bounds native stack depth.
//
// Scalability (DESIGN.md §13): the event queue is an epoch-bucketed
// calendar queue instead of one global binary heap. Near-future events
// (within the wheel's ~4 ms window) are pushed O(1) into their epoch's
// bucket; only the bucket currently being drained is kept heap-ordered,
// and far-future events (timeouts, background periods) overflow into a
// small auxiliary heap. Cluster-scale runs dispatch tens of millions of
// events, almost all within microseconds of `now`, so push cost — not
// pop cost — dominates; the wheel makes the hot path allocation-free
// (coroutine resumptions carry a raw handle, no std::function) and
// O(1) amortized. Dispatch order is STILL exactly (time, seq): the
// bucketing only changes where an event waits, never when it fires.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"

namespace vread::sim {

// Error raised for misuse of the engine (e.g. scheduling into the past).
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

// Passive observation hook driven by the dispatch loop, NOT by queued
// events. A probe never enters the event queue, so attaching one consumes
// no (time, seq) numbers and cannot perturb dispatch order — the property
// the observability plane's bit-identity guarantee rests on. The loop
// calls `on_advance(now)` the first time simulated time reaches the
// probe's deadline; the probe returns its next deadline (or kNever to
// detach itself).
class Probe {
 public:
  static constexpr SimTime kNever = INT64_MAX;
  virtual ~Probe() = default;
  // `now` is the timestamp of the event about to fire (>= the deadline the
  // probe last returned). Must not post events or resume coroutines.
  virtual SimTime on_advance(SimTime now) = 0;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (>= now).
  void post_at(SimTime at, std::function<void()> fn);

  // Schedules `fn` to run after `delay` nanoseconds.
  void post(SimTime delay, std::function<void()> fn) { post_at(now_ + delay, std::move(fn)); }

  // Schedules a coroutine resumption. The handle must stay valid until
  // fired. This is the hot path: no std::function, no allocation.
  void resume_at(SimTime at, std::coroutine_handle<> h);

  // Detaches a task onto the simulation: it starts at the current time and
  // its frame is reaped when it completes. Exceptions escaping a detached
  // task are captured and rethrown from run().
  void spawn(Task task);

  // Runs until the event queue drains (or a detached task failed).
  void run();

  // Runs until the queue drains or simulated time would exceed `deadline`;
  // `now()` is clamped to `deadline` when the limit is hit.
  void run_until(SimTime deadline);

  // Awaitable: `co_await sim.delay(d)` suspends for d nanoseconds.
  struct DelayAwaiter {
    Simulation& sim;
    SimTime duration;
    bool await_ready() const noexcept { return duration <= 0; }
    void await_suspend(std::coroutine_handle<> h) { sim.resume_at(sim.now_ + duration, h); }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(SimTime d) { return DelayAwaiter{*this, d}; }

  // Awaitable that yields control to the event loop at the current time
  // (other events already queued for `now` run first).
  DelayAwaiter yield() { return DelayAwaiter{*this, 1}; }

  // Number of events dispatched so far (exposed for tests/benchmarks).
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  // Attaches (or with nullptr detaches) the passive observation probe.
  // `first_deadline` is the simulated time at or after which the probe
  // first fires; it is checked against the time of each dispatched event,
  // one integer compare per event when attached.
  void set_probe(Probe* p, SimTime first_deadline) {
    probe_ = p;
    probe_deadline_ = p ? first_deadline : Probe::kNever;
  }
  Probe* probe() const { return probe_; }

  // Opt-in dispatch-order digest: an FNV-1a chain over the exact
  // (time, seq) of every dispatched event. Two runs with equal digests
  // (and equal events_dispatched()) dispatched the same events at the
  // same times in the same order — the bit-identity guard tests compare
  // this across obs-off/obs-on runs.
  void enable_dispatch_digest() { digest_enabled_ = true; }
  std::uint64_t dispatch_digest() const { return digest_; }

  // True when no events are pending (suspended coroutines may still exist:
  // an idle simulation with unfinished work is a deadlock).
  bool idle() const { return size_ == 0; }

  // Drops every pending event and destroys every still-suspended detached
  // frame, in that order (events hold resumption handles into the frames).
  // Destroying a suspended frame runs the destructors of everything alive
  // inside it — RAII guards included — which may write through pointers to
  // objects the simulation does not own. An owner whose other members are
  // declared after its Simulation (and so die first) must call this from
  // its own destructor, while those members are still alive; the
  // Simulation destructor itself runs it again harmlessly.
  void shutdown();

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::coroutine_handle<> handle{};  // coroutine resumption (hot path)...
    std::function<void()> fn{};        // ...or an arbitrary callback
    void fire() const {
      if (handle) {
        handle.resume();
      } else {
        fn();
      }
    }
  };
  // Min-heap comparator: earliest (time, seq) at the top.
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Calendar-queue geometry: 1024 buckets of 4096 ns cover a ~4.2 ms
  // window. `win_lo_` is the absolute epoch (time >> kBucketBits) mapped
  // to wheel slot `win_lo_ % kWheelSize`; events at or beyond the window
  // go to the `far_` heap and are redistributed when the window slides.
  static constexpr unsigned kBucketBits = 12;
  static constexpr std::size_t kWheelSize = 1024;

  struct Bucket {
    std::vector<Event> ev;
    bool heaped = false;  // true once this bucket became the drain target
  };

  static std::uint64_t epoch_of(SimTime t) {
    return static_cast<std::uint64_t>(t) >> kBucketBits;
  }
  Bucket& slot(std::uint64_t epoch) { return wheel_[epoch % kWheelSize]; }

  void push_event(Event e);
  // Positions cursor_ on the earliest pending event and returns its time;
  // call only when !idle(). Mutates cursor/heap state but removes nothing.
  SimTime peek_time();
  // Removes and returns the earliest event; call only after peek_time().
  Event pop_event();
  void clear_events();

  void reap_detached(bool force);
  void check_failure();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_dispatched_ = 0;

  Probe* probe_ = nullptr;
  SimTime probe_deadline_ = Probe::kNever;
  bool digest_enabled_ = false;
  std::uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a offset basis

  std::array<Bucket, kWheelSize> wheel_{};
  std::uint64_t win_lo_ = 0;    // first epoch addressable by the wheel
  std::uint64_t cursor_ = 0;    // epoch currently being drained (absolute)
  std::size_t near_count_ = 0;  // events resident in the wheel
  std::vector<Event> far_;      // min-heap of events beyond the window
  std::size_t size_ = 0;        // near_count_ + far_.size()

  std::vector<Task> detached_;
  std::exception_ptr detached_failure_{};
};

}  // namespace vread::sim
