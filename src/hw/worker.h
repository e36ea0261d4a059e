// Serialized worker thread (the simulator's model of a per-VM I/O thread,
// a vhost-net thread, or a vRead daemon thread).
//
// A worker drains a FIFO mailbox of coroutine jobs, one at a time, running
// them on its own schedulable thread. Because all a worker's CPU work goes
// through CpuScheduler::consume with the worker's ThreadId, the worker
// competes for cores like any vCPU — producing the I/O-thread scheduling
// delays the paper measures in Fig. 3 when cores are oversubscribed.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "hw/cpu.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace vread::hw {

class WorkerThread {
 public:
  using Job = std::function<sim::Task()>;

  WorkerThread(sim::Simulation& sim, CpuScheduler& cpu, const std::string& name,
               const std::string& group)
      : sim_(sim), cpu_(cpu), tid_(cpu.add_thread(name, group)), jobs_(sim) {
    sim_.spawn(run());
  }
  WorkerThread(const WorkerThread&) = delete;
  WorkerThread& operator=(const WorkerThread&) = delete;

  // Enqueues a job; it runs after all previously submitted jobs complete.
  void submit(Job job) { jobs_.send(std::move(job)); }

  ThreadId tid() const { return tid_; }
  CpuScheduler& cpu() { return cpu_; }
  std::size_t backlog() const { return jobs_.size(); }

 private:
  sim::Task run() {
    for (;;) {
      Job job = co_await jobs_.recv();
      co_await job();
    }
  }

  sim::Simulation& sim_;
  CpuScheduler& cpu_;
  ThreadId tid_;
  sim::Mailbox<Job> jobs_;
};

}  // namespace vread::hw
