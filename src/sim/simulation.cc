#include "sim/simulation.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <memory>
#include <utility>

namespace vread::sim {

namespace {

// Frame pool: per-thread free lists in 64-byte size classes up to 2 KiB.
// Trivially destructible, so a frame freed after the lists were released
// (static destruction on the main thread) still finds `closed`.
constexpr std::size_t kClassBytes = 64, kClasses = 32;
struct FrameLists { void* head[kClasses]; bool closed; };
thread_local FrameLists lists{};

void* pop_free(std::size_t c) {
  void* p = lists.head[c];
  if (p == nullptr) return nullptr;
  ASAN_UNPOISON_MEMORY_REGION(p, (c + 1) * kClassBytes);
  lists.head[c] = *static_cast<void**>(p);
  return p;
}

struct FrameListsCloser {
  ~FrameListsCloser() {
    lists.closed = true;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (void* p = pop_free(c)) ::operator delete(p);
    }
  }
};

using Boxed = std::function<void()>;

// Fires and frees a post_at() callable, even when it throws.
void fire_boxed(void* box) { (*std::unique_ptr<Boxed>(static_cast<Boxed*>(box)))(); }

}  // namespace

void* frame_alloc(std::size_t bytes) {
  const std::size_t c = (bytes - 1) / kClassBytes;
  if (c >= kClasses || lists.closed) return ::operator new(bytes);
  if (void* p = pop_free(c)) return p;
  thread_local FrameListsCloser closer;  // the first miss on a thread arms it
  return ::operator new((c + 1) * kClassBytes);
}

void frame_free(void* frame, std::size_t bytes) noexcept {
  const std::size_t c = (bytes - 1) / kClassBytes;
  if (c >= kClasses || lists.closed) return ::operator delete(frame);
  *static_cast<void**>(frame) = lists.head[c];
  lists.head[c] = frame;
  // Poisoned while free: ASan still reports a frame resumed after destroy.
  ASAN_POISON_MEMORY_REGION(frame, (c + 1) * kClassBytes);
}

Simulation::~Simulation() { shutdown(); }

void Simulation::shutdown() {
  shutting_down_ = true;
  // Drop pending events first: they may hold handles into detached frames.
  clear_events();
  detached_.clear();
}

void Simulation::clear_events() {
  const auto drop = [](const Event& e) {
    if (e.fn == &fire_boxed) delete static_cast<Boxed*>(e.arg);
  };
  std::for_each(heap_.begin(), heap_.end(), drop);
  std::for_each(lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_), lane_.end(), drop);
  heap_.clear();
  lane_.clear();
  lane_head_ = 0;
}

void Simulation::push_event(const Event& e) {
  if (e.time < now_) throw SimError("post_at: scheduling into the past");
  if (e.time == now_) {
    lane_.push_back(e);
    return;
  }
  std::size_t i = heap_.size();  // sift up; the parent of slot i is (i - 1) / 4
  heap_.push_back(e);
  for (; i > 0 && e.before(heap_[(i - 1) / 4]); i = (i - 1) / 4) heap_[i] = heap_[(i - 1) / 4];
  heap_[i] = e;
}

Simulation::Event Simulation::pop_event() {
  // A heap event due now predates every lane event (see simulation.h).
  if (heap_.empty() || (heap_.front().time != now_ && lane_head_ < lane_.size())) {
    const Event e = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    return e;
  }
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  std::size_t i = 0;  // sift `last` down; the children of slot i are 4i+1 .. 4i+4
  for (std::size_t c; (c = 4 * i + 1) < heap_.size(); i = c) {
    const std::size_t end = std::min(c + 4, heap_.size());
    for (std::size_t k = c + 1; k < end; ++k) {
      if (heap_[k].before(heap_[c])) c = k;
    }
    if (!heap_[c].before(last)) break;
    heap_[i] = heap_[c];
  }
  if (!heap_.empty()) heap_[i] = last;
  return top;
}

void Simulation::post_at(SimTime at, std::function<void()> fn) {
  auto box = std::make_unique<Boxed>(std::move(fn));
  call_at(at, &fire_boxed, box.get());
  box.release();  // the queued event owns it now
}

void Simulation::spawn(Task task) {
  if (!task.valid()) throw SimError("spawn: empty task");
  task.handle_.promise().detached = true;
  Task::Handle h = task.handle_;
  detached_.push_back(std::move(task));
  // Start the coroutine from the event loop, not inline, so spawn order and
  // event order commute deterministically.
  resume_at(now_, h);
}

void Simulation::reap_detached(bool force) {
  if (!force && detached_.size() < 64) return;
  std::vector<Task> alive;
  alive.reserve(detached_.size());
  for (Task& t : detached_) {
    if (t.done()) {
      if (t.handle_.promise().exception && !detached_failure_) {
        detached_failure_ = t.handle_.promise().exception;
      }
    } else {
      alive.push_back(std::move(t));
    }
  }
  detached_ = std::move(alive);
}

void Simulation::check_failure() {
  // Surface failures from already-finished detached tasks promptly.
  for (Task& t : detached_) {
    if (t.done() && t.handle_.promise().exception && !detached_failure_) {
      detached_failure_ = t.handle_.promise().exception;
    }
  }
  if (detached_failure_) std::rethrow_exception(std::exchange(detached_failure_, nullptr));
}

void Simulation::run() { run_until(INT64_MAX); }

void Simulation::run_until(SimTime deadline) {
  if (deadline < now_) throw SimError("run_until: deadline is in the past");
  while (!idle()) {
    const SimTime next = lane_head_ < lane_.size() ? now_ : heap_.front().time;
    if (next > deadline) {
      now_ = deadline;
      check_failure();
      return;
    }
    const Event e = pop_event();
    now_ = e.time;
    ++events_dispatched_;
    if (digest_enabled_) {
      constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
      digest_ = (digest_ ^ static_cast<std::uint64_t>(e.time)) * kFnvPrime;
      digest_ = (digest_ ^ e.seq) * kFnvPrime;
    }
    // The probe runs between events: it observes state as of `now_` but
    // fires no events and consumes no sequence numbers, so dispatch order
    // (and the digest above) is independent of whether one is attached.
    if (now_ >= probe_deadline_) {
      probe_deadline_ = probe_->on_advance(now_);
    }
    e.fn(e.arg);
    if ((events_dispatched_ & 1023) == 0) reap_detached(/*force=*/false);
    if (detached_failure_) check_failure();
  }
  reap_detached(/*force=*/true);
  check_failure();
}

}  // namespace vread::sim
