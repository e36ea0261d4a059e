// Coroutine synchronization primitives for simulation processes.
//
// All wakeups are routed through the Simulation event queue (never resumed
// inline), so wakeup order is FIFO and deterministic. Primitives must
// outlive any coroutine suspended on them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace vread::sim {

// Manual-reset broadcast event: set() releases every current waiter; wait()
// on an already-set event completes immediately.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void set() {
    set_ = true;
    for (auto h : waiters_) sim_.resume_at(sim_.now(), h);
    waiters_.clear();
  }

  void reset() { set_ = false; }

  struct Awaiter {
    Event& ev;
    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{*this}; }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulation& sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

namespace detail {

// Intrusive FIFO of suspended awaiters. Each awaiter lives in its
// coroutine's frame, which does not move while suspended, and carries its
// own `next` link, so queueing a waiter allocates nothing.
template <typename W>
class WaitList {
 public:
  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }
  W* front() const { return head_; }
  void push_back(W* w) {
    w->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = w;
    tail_ = w;
    ++size_;
  }
  W* pop_front() {
    W* w = head_;
    head_ = w->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return w;
  }

 private:
  W* head_ = nullptr;
  W* tail_ = nullptr;
  std::size_t size_ = 0;
};

// FIFO ring of values with power-of-two capacity. Allocates on the first
// push (an empty ring owns no storage) and doubles when full.
template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    while (size_ > 0) pop_front();
    std::allocator<T>().deallocate(buf_, cap_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  T& front() { return buf_[head_]; }

  void push_back(T value) {
    if (size_ == cap_) grow();
    std::construct_at(buf_ + ((head_ + size_) & (cap_ - 1)), std::move(value));
    ++size_;
  }
  void pop_front() {
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

 private:
  void grow() {
    const std::size_t cap = cap_ == 0 ? 4 : cap_ * 2;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = buf_ + ((head_ + i) & (cap_ - 1));
      std::construct_at(buf + i, std::move(*from));
      std::destroy_at(from);
    }
    std::allocator<T>().deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

// Unbounded FIFO channel. send() never blocks; recv() suspends until an item
// is available. Items are delivered in send order; waiting receivers are
// served in arrival order.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim) : sim_(sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void send(T value) {
    if (!waiters_.empty()) {
      RecvAwaiter* w = waiters_.pop_front();
      w->value.emplace(std::move(value));
      sim_.resume_at(sim_.now(), w->handle);
    } else {
      items_.push_back(std::move(value));
    }
  }

  struct RecvAwaiter {
    Mailbox& mb;
    std::optional<T> value{};
    std::coroutine_handle<> handle{};
    RecvAwaiter* next = nullptr;

    bool await_ready() {
      if (!mb.items_.empty()) {
        value.emplace(std::move(mb.items_.front()));
        mb.items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      mb.waiters_.push_back(this);
    }
    T await_resume() { return std::move(*value); }
  };
  RecvAwaiter recv() { return RecvAwaiter{*this}; }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

 private:
  friend struct RecvAwaiter;
  Simulation& sim_;
  detail::Ring<T> items_;
  detail::WaitList<RecvAwaiter> waiters_;
};

// Counting semaphore with FIFO waiters. acquire(n) suspends until n units
// are available *and* every earlier waiter has been served (no barging),
// which models fair queueing on constrained resources (link slots, ring
// slots, window bytes).
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::uint64_t initial) : sim_(sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct AcquireAwaiter {
    Semaphore& sem;
    std::uint64_t need;
    std::coroutine_handle<> handle{};
    AcquireAwaiter* next = nullptr;

    bool await_ready() { return sem.try_acquire(need); }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      sem.waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };

  AcquireAwaiter acquire(std::uint64_t n = 1) { return AcquireAwaiter{*this, n}; }

  // Non-blocking acquire; returns true on success.
  bool try_acquire(std::uint64_t n = 1) {
    if (waiters_.empty() && count_ >= n) {
      count_ -= n;
      return true;
    }
    return false;
  }

  void release(std::uint64_t n = 1) {
    count_ += n;
    while (!waiters_.empty() && waiters_.front()->need <= count_) {
      AcquireAwaiter* w = waiters_.pop_front();
      count_ -= w->need;
      sim_.resume_at(sim_.now(), w->handle);
    }
  }

  std::uint64_t available() const { return count_; }
  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  friend struct AcquireAwaiter;
  Simulation& sim_;
  std::uint64_t count_;
  detail::WaitList<AcquireAwaiter> waiters_;
};

// Completion latch: wait() suspends until count_down() has been called
// `count` times. Used to join fan-out of spawned tasks.
class Latch {
 public:
  Latch(Simulation& sim, std::uint64_t count) : event_(sim), count_(count) {
    if (count_ == 0) event_.set();
  }

  void count_down(std::uint64_t n = 1) {
    if (n >= count_) {
      count_ = 0;
      event_.set();
    } else {
      count_ -= n;
    }
  }

  Event::Awaiter wait() { return event_.wait(); }
  std::uint64_t pending() const { return count_; }

 private:
  Event event_;
  std::uint64_t count_;
};

}  // namespace vread::sim
