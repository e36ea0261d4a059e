// Unit tests for the discrete-event engine: event ordering, coroutine
// tasks, synchronization primitives, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace vread::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(us(1), 1000);
  EXPECT_EQ(ms(1), 1'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_millis(ms(7)), 7.0);
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.post_at(ms(30), [&] { order.push_back(3); });
  sim.post_at(ms(10), [&] { order.push_back(1); });
  sim.post_at(ms(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ms(30));
}

TEST(Simulation, SameTimeEventsFireInPostOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.post_at(ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// A callable that counts how often it is copied (moves are free).
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* copies, int* calls) : copies(copies), calls(calls) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies), calls(o.calls) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  void operator()() const { ++*calls; }
};

TEST(Simulation, PostMovesTheCallableAllTheWayToDispatch) {
  Simulation sim;
  int copies = 0;
  int calls = 0;
  for (int i = 0; i < 100; ++i) sim.post(i, CopyCounter(&copies, &calls));
  sim.run();
  EXPECT_EQ(calls, 100);
  EXPECT_EQ(copies, 0);
}

TEST(Simulation, PostIntoPastThrows) {
  Simulation sim;
  sim.post_at(ms(10), [] {});
  sim.run();
  EXPECT_THROW(sim.post_at(ms(5), [] {}), SimError);
}

TEST(Simulation, RunUntilStopsClockAtDeadline) {
  Simulation sim;
  bool fired = false;
  sim.post_at(sec(10), [&] { fired = true; });
  sim.run_until(sec(1));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), sec(1));
  sim.run();
  EXPECT_TRUE(fired);
}

Task delayer(Simulation& sim, std::vector<SimTime>& stamps) {
  stamps.push_back(sim.now());
  co_await sim.delay(ms(5));
  stamps.push_back(sim.now());
  co_await sim.delay(us(250));
  stamps.push_back(sim.now());
}

TEST(Task, DelayAdvancesClock) {
  Simulation sim;
  std::vector<SimTime> stamps;
  sim.spawn(delayer(sim, stamps));
  sim.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 0);
  EXPECT_EQ(stamps[1], ms(5));
  EXPECT_EQ(stamps[2], ms(5) + us(250));
}

Task child_task(Simulation& sim, int& state) {
  state = 1;
  co_await sim.delay(ms(1));
  state = 2;
}

Task parent_task(Simulation& sim, int& state, SimTime& done_at) {
  co_await child_task(sim, state);
  done_at = sim.now();
}

TEST(Task, AwaitingChildRunsToCompletion) {
  Simulation sim;
  int state = 0;
  SimTime done_at = -1;
  sim.spawn(parent_task(sim, state, done_at));
  sim.run();
  EXPECT_EQ(state, 2);
  EXPECT_EQ(done_at, ms(1));
}

Task thrower(Simulation& sim) {
  co_await sim.delay(ms(1));
  throw std::runtime_error("boom");
}

Task catcher(Simulation& sim, bool& caught) {
  try {
    co_await thrower(sim);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  sim.spawn(catcher(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, DetachedExceptionRethrownFromRun) {
  Simulation sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

Task waiter_proc(Simulation& sim, Event& ev, std::vector<std::pair<int, SimTime>>& log, int id) {
  co_await ev.wait();
  log.emplace_back(id, sim.now());
}

Task setter_proc(Simulation& sim, Event& ev) {
  co_await sim.delay(ms(3));
  ev.set();
}

TEST(Event, BroadcastReleasesAllWaitersFifo) {
  Simulation sim;
  Event ev(sim);
  std::vector<std::pair<int, SimTime>> log;
  sim.spawn(waiter_proc(sim, ev, log, 1));
  sim.spawn(waiter_proc(sim, ev, log, 2));
  sim.spawn(waiter_proc(sim, ev, log, 3));
  sim.spawn(setter_proc(sim, ev));
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].first, 1);
  EXPECT_EQ(log[1].first, 2);
  EXPECT_EQ(log[2].first, 3);
  for (auto& [id, t] : log) EXPECT_EQ(t, ms(3));
}

TEST(Event, WaitOnSetEventCompletesImmediately) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  std::vector<std::pair<int, SimTime>> log;
  sim.spawn(waiter_proc(sim, ev, log, 7));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 0);
}

Task producer(Simulation& sim, Mailbox<int>& mb, int count) {
  for (int i = 0; i < count; ++i) {
    co_await sim.delay(ms(1));
    mb.send(i);
  }
}

Task consumer(Simulation& sim, Mailbox<int>& mb, int count, std::vector<int>& got) {
  (void)sim;
  for (int i = 0; i < count; ++i) {
    int v = co_await mb.recv();
    got.push_back(v);
  }
}

TEST(Mailbox, FifoDelivery) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  sim.spawn(consumer(sim, mb, 5, got));
  sim.spawn(producer(sim, mb, 5));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mailbox, BufferedItemsReceivedWithoutBlocking) {
  Simulation sim;
  Mailbox<std::string> mb(sim);
  mb.send("a");
  mb.send("b");
  EXPECT_EQ(mb.size(), 2u);
  std::vector<std::string> got;
  auto receiver = [](Mailbox<std::string>& box, std::vector<std::string>& out) -> Task {
    out.push_back(co_await box.recv());
    out.push_back(co_await box.recv());
  };
  sim.spawn(receiver(mb, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

Task sem_holder(Simulation& sim, Semaphore& sem, std::vector<int>& order, int id,
                SimTime hold) {
  co_await sem.acquire();
  order.push_back(id);
  co_await sim.delay(hold);
  sem.release();
}

TEST(Semaphore, FifoNoBargin) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  sim.spawn(sem_holder(sim, sem, order, 1, ms(10)));
  sim.spawn(sem_holder(sim, sem, order, 2, ms(1)));
  sim.spawn(sem_holder(sim, sem, order, 3, ms(1)));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Semaphore, MultiUnitAcquireWaitsForEnough) {
  Simulation sim;
  Semaphore sem(sim, 3);
  EXPECT_TRUE(sem.try_acquire(2));
  EXPECT_FALSE(sem.try_acquire(2));
  EXPECT_EQ(sem.available(), 1u);
  std::vector<int> order;
  auto big = [](Semaphore& s, std::vector<int>& o) -> Task {
    co_await s.acquire(3);
    o.push_back(99);
  };
  sim.spawn(big(sem, order));
  sim.run_until(ms(1));
  EXPECT_TRUE(order.empty());
  sem.release(2);
  sim.run();
  EXPECT_EQ(order, std::vector<int>{99});
}

Task latch_downer(Simulation& sim, Latch& latch, SimTime at) {
  co_await sim.delay(at);
  latch.count_down();
}

Task latch_waiter(Simulation& sim, Latch& latch, SimTime& done) {
  co_await latch.wait();
  done = sim.now();
}

TEST(Latch, WaitsForAllCountdowns) {
  Simulation sim;
  Latch latch(sim, 3);
  SimTime done = -1;
  sim.spawn(latch_waiter(sim, latch, done));
  sim.spawn(latch_downer(sim, latch, ms(1)));
  sim.spawn(latch_downer(sim, latch, ms(9)));
  sim.spawn(latch_downer(sim, latch, ms(4)));
  sim.run();
  EXPECT_EQ(done, ms(9));
}

TEST(Latch, ZeroCountIsImmediatelyOpen) {
  Simulation sim;
  Latch latch(sim, 0);
  SimTime done = -1;
  sim.spawn(latch_waiter(sim, latch, done));
  sim.run();
  EXPECT_EQ(done, 0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// Determinism property: a mixed workload of interacting processes produces
// an identical event trace on repeated runs.
Task det_worker(Simulation& sim, Mailbox<int>& mb, Semaphore& sem, Rng& rng,
                std::vector<std::int64_t>& trace, int id) {
  for (int i = 0; i < 20; ++i) {
    co_await sim.delay(static_cast<SimTime>(rng.uniform(1, 1000)) * kMicrosecond);
    co_await sem.acquire();
    mb.send(id * 100 + i);
    trace.push_back(sim.now() * 31 + id);
    sem.release();
  }
}

Task det_drain(Mailbox<int>& mb, std::vector<std::int64_t>& trace, int total) {
  for (int i = 0; i < total; ++i) {
    int v = co_await mb.recv();
    trace.push_back(v);
  }
}

std::vector<std::int64_t> run_det_workload(std::uint64_t seed) {
  Simulation sim;
  Mailbox<int> mb(sim);
  Semaphore sem(sim, 2);
  Rng rng(seed);
  std::vector<Rng> rngs;
  for (int i = 0; i < 4; ++i) rngs.push_back(rng.fork());
  std::vector<std::int64_t> trace;
  sim.spawn(det_drain(mb, trace, 80));
  for (int i = 0; i < 4; ++i) {
    sim.spawn(det_worker(sim, mb, sem, rngs[static_cast<size_t>(i)], trace, i));
  }
  sim.run();
  return trace;
}

TEST(Determinism, IdenticalSeedIdenticalTrace) {
  auto t1 = run_det_workload(123);
  auto t2 = run_det_workload(123);
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(t1.empty());
}

TEST(Determinism, DifferentSeedDifferentTrace) {
  auto t1 = run_det_workload(123);
  auto t2 = run_det_workload(456);
  EXPECT_NE(t1, t2);
}

// Calendar-queue internals (DESIGN.md §13): the wheel covers ~4.2 ms of
// near future; events beyond it park in the far heap and migrate into the
// wheel as the window slides. None of that machinery may be observable —
// dispatch order must stay exactly (time, seq).

TEST(CalendarQueue, FarFutureEventsCrossTheWindowInOrder) {
  // Times straddle the wheel boundary: some land in the current window,
  // some far beyond it (seconds out), interleaved at post time.
  Simulation sim;
  std::vector<SimTime> fired;
  const std::vector<SimTime> times = {sec(2),  us(100), sec(1), us(4200),
                                      ms(500), us(1),   sec(3), ms(4)};
  for (SimTime t : times) {
    sim.post_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run();
  std::vector<SimTime> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(fired, sorted);
  EXPECT_EQ(sim.events_dispatched(), times.size());
}

TEST(CalendarQueue, SameTimeOrderSurvivesWindowRebase) {
  // Events posted in one order at a time far beyond the current window
  // must still fire in post order after the far heap drains into the
  // wheel (the (time, seq) tie-break survives the migration).
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.post_at(sec(5), [&order, i] { order.push_back(i); });
  }
  sim.post_at(ms(1), [] {});  // near event forces a later window rebase
  sim.run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(CalendarQueue, InterleavedPushPopStaysSorted) {
  // Handlers keep scheduling new work — some near (same wheel window),
  // some far (forces window slides) — while the queue drains. The
  // dispatch sequence must be non-decreasing in time throughout.
  Simulation sim;
  Rng rng(2024);
  std::vector<SimTime> fired;
  int remaining = 2000;
  std::function<void()> chain = [&] {
    fired.push_back(sim.now());
    if (--remaining <= 0) return;
    // 1 us .. 20 ms: spans within-bucket, cross-bucket and far-heap.
    sim.post_at(sim.now() + static_cast<SimTime>(rng.uniform(1, 20000)) * kMicrosecond,
                chain);
    if (remaining % 7 == 0) {
      sim.post_at(sim.now() + static_cast<SimTime>(rng.uniform(1, 100)), [&fired, &sim] {
        fired.push_back(sim.now());
      });
      --remaining;
    }
  };
  sim.post_at(0, chain);
  sim.run();
  ASSERT_GE(fired.size(), 2000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]) << i;
  }
}

TEST(CalendarQueue, IdleGapRebasesWindowCleanly) {
  // Long silent stretches between bursts: every burst lands in a window
  // far from the previous one, so each pop rebases the wheel.
  Simulation sim;
  std::vector<SimTime> fired;
  for (int burst = 0; burst < 10; ++burst) {
    const SimTime base = sec(burst * 7);
    for (int j = 0; j < 5; ++j) {
      sim.post_at(base + static_cast<SimTime>(j) * us(10),
                  [&fired, &sim] { fired.push_back(sim.now()); });
    }
  }
  sim.run();
  ASSERT_EQ(fired.size(), 50u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LT(fired[i - 1], fired[i]);
  EXPECT_EQ(sim.now(), sec(63) + us(40));
}

}  // namespace
}  // namespace vread::sim
