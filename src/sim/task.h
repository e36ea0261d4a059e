// Coroutine task type for simulation processes.
//
// A `Task` is a lazily-started coroutine that either:
//  - is awaited by a parent coroutine (`co_await some_task()`), in which case
//    completion resumes the parent via symmetric transfer, or
//  - is detached onto the simulation (`Simulation::spawn`), in which case the
//    simulation owns the frame and reaps it on completion.
//
// Exceptions thrown inside a task propagate to the awaiting coroutine; for
// detached tasks they are captured by the Simulation and rethrown from
// `Simulation::run()` so tests never lose failures silently.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

namespace vread::sim {

// Coroutine frames come from a thread-local pool (simulation.cc).
void* frame_alloc(std::size_t bytes);
void frame_free(void* frame, std::size_t bytes) noexcept;

class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation{};
    std::exception_ptr exception{};
    // Set when the task is detached via Simulation::spawn; the simulation
    // reaps the frame after completion instead of an awaiting parent.
    bool detached = false;
    bool done_flag = false;

    static void* operator new(std::size_t n) { return frame_alloc(n); }
    static void operator delete(void* p, std::size_t n) noexcept { frame_free(p, n); }

    Task get_return_object() { return Task{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        promise_type& p = h.promise();
        p.done_flag = true;
        if (p.continuation) return p.continuation;
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.promise().done_flag; }

  // Awaiter used by `co_await task`. Takes ownership of the frame for the
  // duration of the await; the Task object must outlive the co_await
  // expression (which it does when awaiting an rvalue or a local).
  struct Awaiter {
    Handle handle;
    bool await_ready() const noexcept { return !handle || handle.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
      handle.promise().continuation = parent;
      return handle;  // symmetric transfer: start the child now
    }
    void await_resume() const {
      if (handle && handle.promise().exception) {
        std::rethrow_exception(handle.promise().exception);
      }
    }
  };

  Awaiter operator co_await() const& { return Awaiter{handle_}; }
  Awaiter operator co_await() && { return Awaiter{handle_}; }

 private:
  friend class Simulation;

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle release() { return std::exchange(handle_, {}); }

  Handle handle_{};
};

}  // namespace vread::sim
