// Unit tests for the discrete-event engine: ordering, cancellation, clock
// semantics, reentrancy from callbacks.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"

namespace orion {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30.0, [&]() { order.push_back(3); });
  sim.ScheduleAt(10.0, [&]() { order.push_back(1); });
  sim.ScheduleAt(20.0, [&]() { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(SimulatorTest, FifoAmongSimultaneousEvents) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5.0, [&order, i]() { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  TimeUs observed = -1.0;
  sim.ScheduleAfter(42.5, [&]() { observed = sim.now(); });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(observed, 42.5);
}

TEST(SimulatorTest, CallbacksCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) {
      sim.ScheduleAfter(1.0, chain);
    }
  };
  sim.ScheduleAfter(1.0, chain);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, ZeroDelayEventRunsAtSameTimestamp) {
  Simulator sim;
  TimeUs inner_time = -1.0;
  sim.ScheduleAt(10.0, [&]() { sim.ScheduleAfter(0.0, [&]() { inner_time = sim.now(); }); });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(inner_time, 10.0);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10.0, [&]() { ++fired; });
  sim.ScheduleAt(20.0, [&]() { ++fired; });
  sim.ScheduleAt(30.0, [&]() { ++fired; });
  sim.RunUntil(20.0);
  EXPECT_EQ(fired, 2);  // events at exactly the horizon still run
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
  sim.RunUntil(100.0);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(500.0);
  EXPECT_DOUBLE_EQ(sim.now(), 500.0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventHandle handle = sim.ScheduleAt(10.0, [&]() { ++fired; });
  sim.ScheduleAt(5.0, [&]() { sim.Cancel(handle); });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, CancelAfterRunIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventHandle handle = sim.ScheduleAt(1.0, [&]() { ++fired; });
  sim.RunUntilIdle();
  sim.Cancel(handle);  // must not corrupt live-event accounting
  sim.ScheduleAt(2.0, [&]() { ++fired; });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, DoubleCancelIsNoOp) {
  Simulator sim;
  EventHandle handle = sim.ScheduleAt(1.0, []() {});
  sim.Cancel(handle);
  sim.Cancel(handle);
  EXPECT_TRUE(sim.Idle());
  sim.RunUntilIdle();
}

TEST(SimulatorTest, IdleReflectsLiveEvents) {
  Simulator sim;
  EXPECT_TRUE(sim.Idle());
  EventHandle handle = sim.ScheduleAt(1.0, []() {});
  EXPECT_FALSE(sim.Idle());
  sim.Cancel(handle);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, InvalidHandleCancelIsSafe) {
  Simulator sim;
  sim.Cancel(EventHandle());
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAfter(i, []() {});
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sim.events_processed(), 7u);
}

// --- Slab / heap invariants of the allocation-free engine. ---

// Cancelled slots are reclaimed immediately: heavy schedule/cancel churn
// must not grow the pool beyond the peak number of simultaneously live
// events (the old engine kept tombstones until their timestamp popped).
TEST(SimulatorSoakTest, CancelChurnHoldsBoundedMemory) {
  Simulator sim;
  constexpr std::size_t kLivePerRound = 64;
  std::vector<EventHandle> handles;
  std::size_t fired = 0;
  for (int round = 0; round < 10000; ++round) {
    handles.clear();
    for (std::size_t i = 0; i < kLivePerRound; ++i) {
      handles.push_back(
          sim.ScheduleAfter(1.0 + static_cast<double>(i), [&fired]() { ++fired; }));
    }
    // Cancel all but one; the survivor keeps the clock moving.
    for (std::size_t i = 1; i < kLivePerRound; ++i) {
      sim.Cancel(handles[i]);
    }
    sim.RunUntilIdle();
    EXPECT_EQ(sim.live_events(), 0u);
  }
  EXPECT_EQ(fired, 10000u);
  // The pool never needs more slots than the peak live population. A small
  // slack term keeps the assertion about the invariant, not the exact
  // allocation pattern.
  EXPECT_LE(sim.pool_slots(), kLivePerRound + 8);
}

// A handle whose slot was released and reused must not cancel the slot's
// new occupant: generations make stale handles exact no-ops.
TEST(SimulatorTest, StaleHandleCannotCancelReusedSlot) {
  Simulator sim;
  int first = 0;
  int second = 0;
  EventHandle stale = sim.ScheduleAt(1.0, [&]() { ++first; });
  sim.Cancel(stale);  // slot returns to the free list
  EXPECT_EQ(sim.pool_slots(), 1u);
  EventHandle fresh = sim.ScheduleAt(2.0, [&]() { ++second; });
  EXPECT_EQ(sim.pool_slots(), 1u);  // same slot, new generation
  sim.Cancel(stale);                // stale generation: must be a no-op
  sim.RunUntilIdle();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  sim.Cancel(fresh);  // already ran: also a no-op
}

// Same-timestamp FIFO order must hold across the ring fast path and the
// heap: events scheduled for time T before the clock reaches T (heap) and
// events scheduled at T once the clock is there (ring) interleave strictly
// by schedule order.
TEST(SimulatorTest, FifoOrderAcrossRingAndHeap) {
  Simulator sim;
  std::vector<int> order;
  // Seq 0 and 1 land in the heap for t=10.
  sim.ScheduleAt(10.0, [&]() {
    order.push_back(0);
    // Seq 2..4 land in the ring (now == 10).
    sim.ScheduleAfter(0.0, [&]() { order.push_back(2); });
    sim.ScheduleAfter(0.0, [&]() {
      order.push_back(3);
      sim.ScheduleAfter(0.0, [&]() { order.push_back(4); });
    });
  });
  sim.ScheduleAt(10.0, [&]() { order.push_back(1); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Cancelling a ring-resident event (scheduled at the current timestamp)
// must skip it without disturbing later same-timestamp events.
TEST(SimulatorTest, CancelRingResidentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(5.0, [&]() {
    order.push_back(0);
    EventHandle doomed = sim.ScheduleAfter(0.0, [&]() { order.push_back(99); });
    sim.ScheduleAfter(0.0, [&]() { order.push_back(1); });
    sim.Cancel(doomed);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// Move-only captures (the InlineFunction upgrade over std::function) work
// end to end through scheduling.
TEST(SimulatorTest, MoveOnlyCallbackCapture) {
  Simulator sim;
  auto value = std::make_unique<int>(7);
  int seen = 0;
  sim.ScheduleAfter(1.0, [v = std::move(value), &seen]() { seen = *v; });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 7);
}

// Random schedule/cancel/retime churn over a fixed set of timers. With
// `use_retime`, a move goes through Retime (falling back to Cancel +
// ScheduleAfter when it refuses); otherwise always through Cancel +
// ScheduleAfter. Delays come from a coarse grid, zero included, so many
// events tie on time and only their sequence numbers order them.
class RetimeChurn {
 public:
  RetimeChurn(std::uint64_t seed, bool use_retime) : rng_(seed), use_retime_(use_retime) {}

  void Run() {
    for (std::size_t i = 0; i < kTimers; ++i) {
      Move(i, Delay());
    }
    sim_.RunUntilIdle();
  }

  // (timer, time it fired, live events while it ran), in firing order.
  using Entry = std::tuple<std::size_t, TimeUs, std::size_t>;
  const std::vector<Entry>& log() const { return log_; }
  const Simulator& sim() const { return sim_; }
  std::size_t retimed() const { return retimed_; }

 private:
  static constexpr std::size_t kTimers = 24;
  static constexpr std::size_t kBudget = 10000;

  DurationUs Delay() { return 0.5 * static_cast<double>(rng_.UniformInt(0, 6)); }

  void Move(std::size_t timer, DurationUs delay) {
    if (use_retime_ && sim_.Retime(handles_[timer], delay)) {
      ++retimed_;
      return;
    }
    sim_.Cancel(handles_[timer]);
    handles_[timer] = sim_.ScheduleAfter(delay, [this, timer]() { Fire(timer); });
  }

  void Fire(std::size_t timer) {
    log_.emplace_back(timer, sim_.now(), sim_.live_events());
    if (log_.size() >= kBudget) {
      return;
    }
    if (rng_.NextDouble() < 0.9) {
      Move(timer, Delay());  // re-arm: the handle is stale, so this schedules
    }
    const std::int64_t actions = rng_.UniformInt(0, 2);
    for (std::int64_t a = 0; a < actions; ++a) {
      const auto target = static_cast<std::size_t>(rng_.UniformInt(0, kTimers - 1));
      if (rng_.NextDouble() < 0.1) {
        sim_.Cancel(handles_[target]);
      } else {
        Move(target, Delay());
      }
    }
  }

  Rng rng_;
  bool use_retime_;
  Simulator sim_;
  EventHandle handles_[kTimers];
  std::vector<Entry> log_;
  std::size_t retimed_ = 0;
};

TEST(SimulatorRetimeTest, ChurnMatchesCancelAndSchedule) {
  for (std::uint64_t seed : {1, 2, 3, 17, 97}) {
    RetimeChurn retime(seed, /*use_retime=*/true);
    RetimeChurn reschedule(seed, /*use_retime=*/false);
    retime.Run();
    reschedule.Run();
    EXPECT_GT(retime.retimed(), 1000u) << "seed " << seed;
    EXPECT_GE(retime.log().size(), 10000u) << "seed " << seed;
    EXPECT_EQ(retime.log(), reschedule.log()) << "seed " << seed;
    EXPECT_EQ(retime.sim().events_processed(), reschedule.sim().events_processed());
    EXPECT_EQ(retime.sim().live_events(), reschedule.sim().live_events());
    EXPECT_LE(retime.sim().pool_slots(), reschedule.sim().pool_slots());
  }
}

TEST(SimulatorRetimeTest, MovesEventsEarlierAndLater) {
  Simulator sim;
  std::vector<int> order;
  const EventHandle a = sim.ScheduleAt(1.0, [&]() { order.push_back(1); });
  sim.ScheduleAt(2.0, [&]() { order.push_back(2); });
  const EventHandle c = sim.ScheduleAt(3.0, [&]() { order.push_back(3); });
  EXPECT_TRUE(sim.Retime(c, 0.5));
  EXPECT_TRUE(sim.Retime(a, 5.0));
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(sim.now(), 5.0);
}

// A retimed event takes a fresh sequence number: it runs after events
// already scheduled for the same time, as a re-scheduled one would.
TEST(SimulatorRetimeTest, RetimedEventQueuesBehindSameTimeEvents) {
  Simulator sim;
  std::vector<int> order;
  const EventHandle first = sim.ScheduleAt(1.0, [&]() { order.push_back(0); });
  sim.ScheduleAt(2.0, [&]() { order.push_back(1); });
  EXPECT_TRUE(sim.Retime(first, 2.0));
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(SimulatorRetimeTest, RefusesStaleRingResidentAndZeroDelay) {
  Simulator sim;
  int ran = 0;
  EXPECT_FALSE(sim.Retime(EventHandle(), 1.0));  // never scheduled

  const EventHandle done = sim.ScheduleAt(1.0, [&]() { ++ran; });
  sim.RunUntilIdle();
  EXPECT_FALSE(sim.Retime(done, 1.0));  // already ran

  const EventHandle cancelled = sim.ScheduleAfter(1.0, [&]() { ++ran; });
  sim.Cancel(cancelled);
  EXPECT_FALSE(sim.Retime(cancelled, 1.0));  // already cancelled

  const EventHandle later = sim.ScheduleAfter(10.0, [&]() { ++ran; });
  EXPECT_FALSE(sim.Retime(later, 0.0));  // a zero delay belongs in the ring
  bool ring_refused = false;
  sim.ScheduleAfter(1.0, [&]() {
    const EventHandle ring = sim.ScheduleAfter(0.0, [&]() { ++ran; });
    ring_refused = !sim.Retime(ring, 3.0);
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(ring_refused);
  EXPECT_EQ(ran, 3);  // done, the ring event at its old time, and `later`
  EXPECT_EQ(sim.now(), 11.0);
}

TEST(SimulatorRetimeTest, CancelAfterRetimeAndFlatPool) {
  Simulator sim;
  int ran = 0;
  const EventHandle handle = sim.ScheduleAfter(1.0, [&]() { ++ran; });
  const std::size_t slots = sim.pool_slots();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(sim.Retime(handle, 1.0 + (i % 7)));
  }
  EXPECT_EQ(sim.pool_slots(), slots);
  EXPECT_EQ(sim.live_events(), 1u);
  sim.Cancel(handle);
  EXPECT_EQ(sim.live_events(), 0u);
  EXPECT_TRUE(sim.Idle());
  sim.RunUntilIdle();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.ScheduleAt(10.0, []() {});
  sim.RunUntilIdle();
  EXPECT_DEATH(sim.ScheduleAt(5.0, []() {}), "scheduled in the past");
}

}  // namespace
}  // namespace orion
