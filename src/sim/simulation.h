// Deterministic discrete-event simulation driver.
//
// Single-threaded: events fire in (time, insertion-sequence) order, so two
// runs with identical inputs produce identical traces. All synchronization
// primitives (sync.h) route resumptions through this queue rather than
// resuming coroutines inline, which keeps wakeup order deterministic and
// bounds native stack depth.
//
// Event queue (DESIGN.md §13): a 4-ary min-heap on (time, seq) plus a FIFO
// lane for events due at `now()`. An event is 32 trivially-copyable bytes
// (a function pointer and its argument), so a coroutine resume or a CPU
// quantum allocates nothing; only std::function callers box a callable.
// The lane keeps (time, seq) order exactly: a heap event due at `now()` was
// pushed before the clock got there, so its seq is below every lane
// event's, and dispatch takes the heap top if it is due now, else the lane
// head, else the heap top.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
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

  // Schedules `fn` to run at absolute time `at` (>= now). The callable is
  // boxed on the heap; hot paths use call_at() or resume_at() instead.
  void post_at(SimTime at, std::function<void()> fn);

  // Schedules `fn` to run after `delay` nanoseconds.
  void post(SimTime delay, std::function<void()> fn) { post_at(now_ + delay, std::move(fn)); }

  // Schedules `fn(arg)` at absolute time `at` (>= now): no allocation.
  // Whatever `arg` points to must stay valid until the event fires or the
  // queue is cleared.
  void call_at(SimTime at, void (*fn)(void*), void* arg) {
    push_event(Event{at, next_seq_++, fn, arg});
  }

  // Schedules a coroutine resumption. The handle must stay valid until
  // fired. This is the hot path: no std::function, no allocation.
  void resume_at(SimTime at, std::coroutine_handle<> h) {
    call_at(at, [](void* frame) { std::coroutine_handle<>::from_address(frame).resume(); },
            h.address());
  }

  // Detaches a task onto the simulation: it starts at the current time and
  // its frame is reaped when it completes. Exceptions escaping a detached
  // task are captured and rethrown from run().
  void spawn(Task task);

  // Runs until the event queue drains (or a detached task failed).
  void run();

  // Runs until the queue drains or simulated time would exceed `deadline`;
  // `now()` is clamped to `deadline` when the limit is hit. Throws SimError
  // if `deadline` is before `now()`: the clock never runs backwards.
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

  // Awaitable that yields control to the event loop for 1 ns: every event
  // queued for `now` runs first, and so does any event they post for `now`.
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
  bool idle() const { return heap_.empty() && lane_head_ == lane_.size(); }

  // Drops every pending event and destroys every still-suspended detached
  // frame, in that order (events hold resumption handles into the frames).
  // Destroying a suspended frame runs the destructors of everything alive
  // inside it — RAII guards included — which may write through pointers to
  // objects the simulation does not own. An owner whose other members are
  // declared after its Simulation (and so die first) must call this from
  // its own destructor, while those members are still alive; the
  // Simulation destructor itself runs it again harmlessly.
  void shutdown();
  // True from shutdown() on: a guard running now is tearing its frame down,
  // not finishing its work.
  bool shutting_down() const { return shutting_down_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    void (*fn)(void*);
    void* arg;
    bool before(const Event& o) const { return time < o.time || (time == o.time && seq < o.seq); }
  };
  static_assert(sizeof(Event) == 32 && std::is_trivially_copyable_v<Event>);

  void push_event(const Event& e);
  // Removes and returns the earliest event; call only when !idle().
  Event pop_event();
  // Destroys every unfired boxed callable, then empties the queue.
  void clear_events();

  void reap_detached(bool force);
  void check_failure();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_dispatched_ = 0;

  Probe* probe_ = nullptr;
  SimTime probe_deadline_ = Probe::kNever;
  bool digest_enabled_ = false;
  bool shutting_down_ = false;
  std::uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a offset basis

  std::vector<Event> heap_;  // 4-ary min-heap on (time, seq)
  std::vector<Event> lane_;  // events due at now_, in seq order from lane_head_
  std::size_t lane_head_ = 0;

  std::vector<Task> detached_;
  std::exception_ptr detached_failure_{};
};

}  // namespace vread::sim
