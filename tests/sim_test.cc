// Unit tests for the discrete-event engine: event ordering, coroutine
// tasks, synchronization primitives, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/name.h"
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

TEST(Simulation, RunUntilPastDeadlineThrowsAndKeepsTheClock) {
  Simulation sim;
  bool fired = false;
  sim.post_at(ms(10), [] {});
  sim.post_at(ms(50), [&] { fired = true; });
  sim.run_until(ms(20));
  ASSERT_EQ(sim.now(), ms(20));
  EXPECT_THROW(sim.run_until(ms(5)), SimError);
  EXPECT_EQ(sim.now(), ms(20));
  EXPECT_FALSE(fired);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), ms(50));
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
  for (int i = 0; i < 4; ++i) rngs.emplace_back(rng.next());  // one stream per worker
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

// Ordering cases written against the former calendar queue (a ~4.2 ms
// wheel plus a far heap, DESIGN.md §13). The engine is now one heap plus a
// same-instant lane; these mixes of near, far and idle-gap times still pin
// dispatch order to exactly (time, seq).

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

// The same-instant lane (DESIGN.md §13): events posted for `now()` skip the
// heap, but dispatch order must stay exactly (time, seq).

TEST(EventLane, HeapEventDueNowRunsBeforeQueuedLaneEvents) {
  // The ms(2) event was posted before the clock got to ms(2), so it
  // precedes everything posted *at* ms(2), even though those sit in the
  // lane before it is popped.
  Simulation sim;
  std::vector<std::string> order;
  sim.post_at(ms(1), [&] {
    order.push_back("a@1");
    sim.post_at(ms(2), [&] { order.push_back("heap@2"); });
  });
  sim.post_at(ms(2), [&] {
    order.push_back("b@2");
    sim.post_at(ms(2), [&] { order.push_back("lane1@2"); });
    sim.post_at(ms(2), [&] { order.push_back("lane2@2"); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a@1", "b@2", "heap@2", "lane1@2", "lane2@2"}));
}

TEST(EventLane, PostAtNowFromALaneEventRunsAfterTheQueuedLane) {
  Simulation sim;
  std::vector<int> order;
  sim.post_at(0, [&] {
    order.push_back(0);
    sim.post_at(0, [&] {
      order.push_back(1);
      sim.post_at(0, [&] { order.push_back(4); });
    });
    sim.post_at(0, [&] { order.push_back(2); });
    sim.post_at(0, [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 0);
}

TEST(EventLane, RunUntilStopsAcrossTheLane) {
  // Lane events at the deadline itself run; the heap event past it waits,
  // and the clock parks exactly at the deadline.
  Simulation sim;
  std::vector<int> order;
  sim.post_at(ms(3), [&] {
    order.push_back(1);
    sim.post_at(ms(3), [&] { order.push_back(2); });
    sim.post_at(ms(3) + 1, [&] { order.push_back(3); });
  });
  sim.run_until(ms(3));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), ms(3));
  EXPECT_FALSE(sim.idle());
  sim.post_at(ms(3), [&] { order.push_back(4); });  // lane again, before the heap event
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(EventLane, LaneEventsKeepTheirSequenceNumbersInTheDigest) {
  // The digest chains (time, seq) of every dispatch. Events that took the
  // lane must hash exactly as the (time, seq) order says.
  Simulation sim;
  sim.enable_dispatch_digest();
  sim.post_at(ms(1), [&sim] {                // seq 0 (heap)
    for (int i = 0; i < 3; ++i) sim.post_at(ms(1), [] {});  // seq 2..4 (lane)
  });
  sim.post_at(ms(1), [] {});                 // seq 1 (heap, due with the lane)
  sim.run();
  std::uint64_t want = 14695981039346656037ULL;
  for (std::uint64_t seq : {0, 1, 2, 3, 4}) {
    want = (want ^ static_cast<std::uint64_t>(ms(1))) * 1099511628211ULL;
    want = (want ^ seq) * 1099511628211ULL;
  }
  EXPECT_EQ(sim.events_dispatched(), 5u);
  EXPECT_EQ(sim.dispatch_digest(), want);
}

// A callable that counts its destructions; moved-from copies do not count.
struct DestroyCounter {
  int* destroyed;
  explicit DestroyCounter(int* d) : destroyed(d) {}
  DestroyCounter(const DestroyCounter& o) : destroyed(o.destroyed) {}
  DestroyCounter(DestroyCounter&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)) {}
  ~DestroyCounter() {
    if (destroyed) ++*destroyed;
  }
  void operator()() const {}
};

TEST(EventLane, UnfiredCallablesAreDestroyedExactlyOnceOnShutdown) {
  int destroyed = 0;
  {
    Simulation sim;
    sim.post_at(0, DestroyCounter(&destroyed));       // lane
    sim.post_at(ms(5), DestroyCounter(&destroyed));   // heap
    sim.post_at(sec(9), DestroyCounter(&destroyed));  // heap
    sim.run_until(ms(1));                             // fires (and frees) the first
    EXPECT_EQ(destroyed, 1);
    sim.post_at(ms(1), DestroyCounter(&destroyed));   // lane, unfired
    sim.shutdown();
    EXPECT_EQ(destroyed, 4);
    EXPECT_TRUE(sim.idle());
  }
  EXPECT_EQ(destroyed, 4);  // the destructor's second shutdown() frees nothing twice
}

TEST(EventLane, PostIntoThePastFreesTheRejectedCallable) {
  int destroyed = 0;
  Simulation sim;
  sim.post_at(ms(2), [] {});
  sim.run();
  EXPECT_THROW(sim.post_at(ms(1), DestroyCounter(&destroyed)), SimError);
  EXPECT_EQ(destroyed, 1);
  EXPECT_TRUE(sim.idle());
}

TEST(EventLane, ThrowingCallableIsFreedAndRethrown) {
  Simulation sim;
  int destroyed = 0;
  sim.post_at(ms(1), [d = DestroyCounter(&destroyed)] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(destroyed, 1);
}

std::pair<std::uint64_t, std::uint64_t> digest_of_det_workload(std::uint64_t seed) {
  Simulation sim;
  sim.enable_dispatch_digest();
  Mailbox<int> mb(sim);
  Semaphore sem(sim, 2);
  Rng rng(seed);
  std::vector<Rng> rngs;
  for (int i = 0; i < 4; ++i) rngs.emplace_back(rng.next());  // one stream per worker
  std::vector<std::int64_t> trace;
  sim.spawn(det_drain(mb, trace, 80));
  for (int i = 0; i < 4; ++i) {
    sim.spawn(det_worker(sim, mb, sem, rngs[static_cast<size_t>(i)], trace, i));
  }
  sim.run();
  return {sim.dispatch_digest(), sim.events_dispatched()};
}

TEST(FramePool, SimulationsOnTwoThreadsProduceIdenticalDigests) {
  // Coroutine frames come from thread-local free lists; two engines on two
  // threads must neither race on them nor see each other's frames.
  const auto reference = digest_of_det_workload(77);
  std::pair<std::uint64_t, std::uint64_t> got[2];
  std::thread a([&] {
    for (int i = 0; i < 20; ++i) got[0] = digest_of_det_workload(77);
  });
  std::thread b([&] {
    for (int i = 0; i < 20; ++i) got[1] = digest_of_det_workload(77);
  });
  a.join();
  b.join();
  EXPECT_EQ(got[0], reference);
  EXPECT_EQ(got[1], reference);
  EXPECT_GT(reference.second, 100u);
}

Task frame_of_size(std::vector<char>& sink, int depth) {
  char pad[512] = {};  // keeps the frame in a mid-size class across the await
  pad[depth % 512] = static_cast<char>(depth);
  if (depth > 0) co_await frame_of_size(sink, depth - 1);
  sink.push_back(pad[depth % 512]);
}

Task big_frame(std::vector<char>& sink, Simulation& sim) {
  char pad[4096] = {};  // past the largest class: plain operator new
  pad[100] = 7;
  co_await sim.delay(1);
  sink.push_back(pad[100]);
}

TEST(FramePool, NestedAndOversizedFramesRoundTrip) {
  Simulation sim;
  std::vector<char> sink;
  for (int round = 0; round < 3; ++round) {
    sim.spawn(frame_of_size(sink, 40));
    sim.spawn(big_frame(sink, sim));
    sim.run();
  }
  ASSERT_EQ(sink.size(), 3u * 42u);
  EXPECT_EQ(sink[0], 0);
  EXPECT_EQ(sink[40], 40);
  EXPECT_EQ(sink[41], 7);
}

// ---------------------------------------------------------------------------
// Interned names.
// ---------------------------------------------------------------------------

TEST(Name, EqualStringsInternToTheSamePointer) {
  const std::size_t before = Name::interned_count();
  const Name a("name-test-datanode-x");
  const Name b(std::string("name-test-datanode-") + "x");
  const Name c("name-test-other");
  EXPECT_EQ(&a.str(), &b.str());
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a, "name-test-datanode-x");
  EXPECT_EQ(a, std::string("name-test-datanode-x"));
  EXPECT_EQ(Name::Hash()(a), Name::Hash()(b));
  EXPECT_EQ(Name::interned_count(), before + 2);
  const Name again(std::string_view("name-test-other"));
  EXPECT_EQ(&again.str(), &c.str());
  EXPECT_EQ(Name::interned_count(), before + 2);
}

TEST(Name, OrderIsTheStringOrderAndMapsIterateAlike) {
  const std::vector<std::string> words = {"datanode10", "datanode2", "b",   "a",  "",
                                          "datanode1",  "B",         "aa",  "ab", "blk_1001",
                                          "blk_999",    "tenant",    "ten", "z"};
  std::vector<Name> names;
  std::map<Name, int> by_name;
  std::map<std::string, int> by_string;
  for (std::size_t i = 0; i < words.size(); ++i) {
    names.emplace_back(words[i]);
    by_name[names.back()] = static_cast<int>(i);
    by_string[words[i]] = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = 0; j < words.size(); ++j) {
      EXPECT_EQ(names[i] < names[j], words[i] < words[j]) << words[i] << " vs " << words[j];
    }
  }
  ASSERT_EQ(by_name.size(), by_string.size());
  auto n = by_name.begin();
  for (auto s = by_string.begin(); s != by_string.end(); ++s, ++n) {
    EXPECT_EQ(n->first.str(), s->first);
    EXPECT_EQ(n->second, s->second);
  }
}

TEST(Name, EmptyNameIsTheDefaultAndInternsNothing) {
  const Name d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.str(), "");
  EXPECT_FALSE(Name("a").empty());
  EXPECT_TRUE(d < Name("a"));
  EXPECT_FALSE(Name("a") < d);
  EXPECT_FALSE(d < d);
  const std::size_t before = Name::interned_count();
  EXPECT_EQ(d, Name(""));
  EXPECT_EQ(d, Name(std::string()));
  EXPECT_EQ(&d.str(), &Name(std::string_view()).str());
  EXPECT_EQ(Name::interned_count(), before);
}

TEST(Name, TwoThreadsInterningTheSameNamesGetIdenticalPointers) {
  constexpr int kNames = 2000;
  std::vector<const std::string*> got[2];
  auto intern_all = [](std::vector<const std::string*>& out, bool reverse) {
    out.assign(kNames, nullptr);
    for (int k = 0; k < kNames; ++k) {
      const int i = reverse ? kNames - 1 - k : k;
      out[static_cast<std::size_t>(i)] = &Name("two-threads-" + std::to_string(i)).str();
    }
  };
  std::thread a([&] { intern_all(got[0], false); });
  std::thread b([&] { intern_all(got[1], true); });
  a.join();
  b.join();
  for (int i = 0; i < kNames; ++i) {
    const std::string* p = got[0][static_cast<std::size_t>(i)];
    ASSERT_EQ(p, got[1][static_cast<std::size_t>(i)]) << i;
    EXPECT_EQ(*p, "two-threads-" + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Intrusive wait queues and the mailbox ring.
// ---------------------------------------------------------------------------

TEST(Semaphore, LaterSmallWaiterDoesNotJumpAheadOfALargerHead) {
  Simulation sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  auto taker = [](Semaphore& s, std::uint64_t n, int id, std::vector<int>& o) -> Task {
    co_await s.acquire(n);
    o.push_back(id);
  };
  sim.spawn(taker(sem, 3, 1, order));
  sim.spawn(taker(sem, 1, 2, order));
  sim.spawn(taker(sem, 2, 3, order));
  sim.run();
  EXPECT_EQ(sem.waiter_count(), 3u);
  sem.release(1);  // enough for waiter 2, but waiter 1 is ahead
  sim.run();
  EXPECT_TRUE(order.empty());
  EXPECT_FALSE(sem.try_acquire(1));  // no barging past queued waiters
  sem.release(2);  // 3 available: waiter 1 only
  sim.run();
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_EQ(sem.available(), 0u);
  sem.release(3);  // waiters 2 and 3, in order
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sem.waiter_count(), 0u);
  EXPECT_EQ(sem.available(), 0u);
}

TEST(Mailbox, ItemsSentBeforeAnyReceiverArriveInSendOrder) {
  Simulation sim;
  Mailbox<int> mb(sim);
  for (int i = 0; i < 10; ++i) mb.send(i);
  std::vector<int> got;
  sim.spawn(consumer(sim, mb, 10, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_TRUE(mb.empty());
}

TEST(Mailbox, ReceiversWaitingBeforeItemsAreServedInArrivalOrder) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<std::pair<int, int>> got;  // (receiver, item)
  auto receiver = [](Mailbox<int>& box, int id, std::vector<std::pair<int, int>>& out) -> Task {
    for (int k = 0; k < 2; ++k) out.emplace_back(id, co_await box.recv());
  };
  for (int id = 0; id < 3; ++id) sim.spawn(receiver(mb, id, got));
  for (int batch = 0; batch < 2; ++batch) {
    sim.run();  // all three park
    EXPECT_TRUE(mb.empty());
    for (int i = 0; i < 3; ++i) mb.send(100 + 3 * batch + i);
  }
  sim.run();
  EXPECT_EQ(got, (std::vector<std::pair<int, int>>{
                     {0, 100}, {1, 101}, {2, 102}, {0, 103}, {1, 104}, {2, 105}}));
}

TEST(Mailbox, RingGrowsCorrectlyAcrossWraparound) {
  // Sends and receives interleave so the ring's head has moved when it
  // grows: every growth copies a wrapped run back into send order.
  Simulation sim;
  Mailbox<std::unique_ptr<int>> mb(sim);
  std::vector<int> got;
  auto drain = [](Mailbox<std::unique_ptr<int>>& box, int n, std::vector<int>& out) -> Task {
    for (int k = 0; k < n; ++k) out.push_back(*co_await box.recv());
  };
  int next = 0;
  int expected_size = 0;
  for (int round = 1; round <= 12; ++round) {
    for (int k = 0; k < round * 3; ++k) mb.send(std::make_unique<int>(next++));
    expected_size += round * 3;
    const int take = round * 2;
    sim.spawn(drain(mb, take, got));
    sim.run();
    expected_size -= take;
    ASSERT_EQ(mb.size(), static_cast<std::size_t>(expected_size));
  }
  sim.spawn(drain(mb, expected_size, got));
  sim.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(Mailbox, UnreceivedItemsAreDestroyedWithTheMailbox) {
  auto item = std::make_shared<int>(7);
  {
    Simulation sim;
    Mailbox<std::shared_ptr<int>> mb(sim);
    for (int i = 0; i < 5; ++i) mb.send(item);  // grows 4 -> 8 on the fifth
    EXPECT_EQ(item.use_count(), 6);
  }
  EXPECT_EQ(item.use_count(), 1);
}

}  // namespace
}  // namespace vread::sim
