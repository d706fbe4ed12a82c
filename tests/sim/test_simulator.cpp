#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace das::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, EqualTimesDispatchInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 150.0);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::logic_error);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(-1, [] {}), std::logic_error);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1, nullptr), std::logic_error);
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(h);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  const EventHandle h = sim.schedule_at(10, [] {});
  sim.run();
  sim.cancel(h);  // already fired: no-op
  sim.cancel(h);
  sim.cancel(EventHandle{});  // invalid handle: no-op
  bool fired = false;
  sim.schedule_at(20, [&] { fired = true; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, PendingCountsLiveEventsOnly) {
  Simulator sim;
  const EventHandle a = sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  std::vector<SimTime> fired;
  for (double t : {10.0, 20.0, 30.0, 40.0})
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  sim.run_until(25.0);
  EXPECT_EQ(fired, (std::vector<SimTime>{10.0, 20.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 25.0);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilIncludesEventsAtHorizon) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(25.0, [&] { fired = true; });
  sim.run_until(25.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(1000.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1000.0);
}

TEST(Simulator, EventsScheduledDuringDispatchRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, DispatchCountTracks) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

TEST(PeriodicProcess, FiresAtMultiplesOfPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicProcess proc{sim, 10.0, [&] { fires.push_back(sim.now()); }};
  proc.start();
  sim.run_until(35.0);
  proc.stop();
  EXPECT_EQ(fires, (std::vector<SimTime>{10.0, 20.0, 30.0}));
  sim.run();  // nothing left
  EXPECT_EQ(fires.size(), 3u);
}

TEST(PeriodicProcess, StopFromWithinCallback) {
  Simulator sim;
  int count = 0;
  PeriodicProcess proc{sim, 5.0, [&] {
                         if (++count == 2) proc.stop();
                       }};
  proc.start();
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(PeriodicProcess, StartIsIdempotent) {
  Simulator sim;
  int count = 0;
  PeriodicProcess proc{sim, 5.0, [&] { ++count; }};
  proc.start();
  proc.start();
  sim.run_until(12.0);
  proc.stop();
  EXPECT_EQ(count, 2);
}

TEST(PeriodicProcess, DestructorCancelsPending) {
  Simulator sim;
  {
    PeriodicProcess proc{sim, 5.0, [] {}};
    proc.start();
  }
  EXPECT_TRUE(sim.empty());
}

TEST(PeriodicProcess, RestartFromCallbackKeepsOneChain) {
  // Regression: stop() + start() inside the callback used to leave BOTH the
  // restart's event and fire()'s tail reschedule pending — two interleaved
  // chains firing the callback at twice the period forever.
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicProcess proc{sim, 10.0, [&] {
                         fires.push_back(sim.now());
                         if (fires.size() == 2) {
                           proc.stop();
                           proc.start();
                         }
                       }};
  proc.start();
  sim.run_until(65.0);
  proc.stop();
  // One chain only: 10, 20 (restart), 30, 40, 50, 60 — period preserved.
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30, 40, 50, 60}));
  sim.run();
  EXPECT_EQ(fires.size(), 6u);
}

TEST(PeriodicProcess, RestartFromCallbackLeavesNoOrphanEvents) {
  Simulator sim;
  int count = 0;
  PeriodicProcess proc{sim, 5.0, [&] {
                         ++count;
                         proc.stop();
                         proc.start();
                       }};
  proc.start();
  sim.run_until(50.0);
  proc.stop();
  EXPECT_EQ(count, 10);
  EXPECT_TRUE(sim.empty());  // no orphaned chain left behind
}

TEST(Simulator, HeavyCancelTriggersCompaction) {
  // Regression: cancelled nodes used to stay in the heap until popped, so a
  // cancel-almost-everything workload (hedge/retransmit timers) grew the
  // queue without bound and paid O(log dead) per pop.
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 20000; ++i)
    handles.push_back(sim.schedule_at(i, [] {}));
  for (int i = 0; i < 20000; ++i)
    if (i % 100 != 0) sim.cancel(handles[static_cast<std::size_t>(i)]);
  EXPECT_EQ(sim.pending(), 200u);
  // Dead nodes never outnumber live ones (up to the compaction floor).
  EXPECT_LE(sim.queued_nodes(), 2 * sim.pending() + 64);
  EXPECT_GT(sim.compactions(), 0u);
  sim.audit_now();  // dead-fraction invariant holds
  std::vector<SimTime> fired;
  while (sim.step()) fired.push_back(sim.now());
  ASSERT_EQ(fired.size(), 200u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_DOUBLE_EQ(fired[i], static_cast<double>(100 * i));
}

TEST(Simulator, CompactionDisabledKeepsLazyBehaviour) {
  Simulator sim;
  sim.set_compaction_enabled(false);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i)
    handles.push_back(sim.schedule_at(i, [] {}));
  for (int i = 0; i < 999; ++i)
    sim.cancel(handles[static_cast<std::size_t>(i)]);
  EXPECT_EQ(sim.compactions(), 0u);
  EXPECT_EQ(sim.queued_nodes(), 1000u);  // dead nodes reclaimed only at pop
  EXPECT_EQ(sim.pending(), 1u);
  sim.audit_now();  // the dead-fraction bound is waived when disabled
  int fired = 0;
  sim.run();
  fired = static_cast<int>(sim.events_dispatched());
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CompactionPreservesInterleavedDispatchOrder) {
  // Same schedule/cancel sequence with and without compaction must fire the
  // surviving callbacks in the same order at the same times.
  const auto drive = [](bool compaction) {
    Simulator sim;
    sim.set_compaction_enabled(compaction);
    Rng rng{7};
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 5000; ++i) {
      handles.push_back(
          sim.schedule_at(rng.uniform(0, 1e5), [&order, i] { order.push_back(i); }));
      if (i % 3 != 0) sim.cancel(handles.back());
      // Also cancel a random earlier event to mix live/dead heap positions.
      if (i % 7 == 0)
        sim.cancel(handles[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(i) + 1))]);
    }
    sim.run();
    return order;
  };
  const auto with = drive(true);
  const auto without = drive(false);
  EXPECT_FALSE(with.empty());
  EXPECT_EQ(with, without);
}

// --- the FIFO lane ----------------------------------------------------------

TEST(SimulatorLane, EqualTimesInterleaveWithHeapInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(0); });
  sim.schedule_fifo(5.0, [&] { order.push_back(1); });
  sim.schedule_at(5.0, [&] { order.push_back(2); });
  sim.schedule_fifo(5.0, [&] { order.push_back(3); });
  sim.schedule_at(3.0, [&] { order.push_back(-1); });
  sim.schedule_fifo(7.0, [&] { order.push_back(5); });
  sim.schedule_at(7.0, [&] { order.push_back(6); });
  sim.schedule_at(6.0, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(sim.events_dispatched(), 8u);
  EXPECT_EQ(sim.lane_dispatched(), 3u);
}

TEST(SimulatorLane, RandomInterleavingDispatchesInTimeThenScheduleOrder) {
  // Lane times never decrease; heap times are arbitrary, often tied with the
  // lane's. Dispatch must follow (t, schedule order) exactly, including for
  // events scheduled from inside callbacks.
  Simulator sim;
  Rng rng{31};
  struct Fired {
    SimTime t;
    int id;
  };
  std::vector<Fired> fired;
  int next_id = 0;
  SimTime lane_t = 0;
  const auto schedule_one = [&](auto& self, int depth) -> void {
    const int id = next_id++;
    const bool lane = rng.chance(0.6);
    SimTime t = 0;
    if (lane) {
      lane_t = std::max(lane_t, sim.now()) + static_cast<double>(rng.next_below(3));
      t = lane_t;
    } else {
      t = sim.now() + static_cast<double>(rng.next_below(6));
    }
    auto fn = [&, id, depth, t] {
      fired.push_back({sim.now(), id});
      EXPECT_EQ(sim.now(), t);
      if (depth < 3 && rng.chance(0.5)) self(self, depth + 1);
    };
    if (lane) {
      sim.schedule_fifo(t, fn);
    } else {
      sim.schedule_at(t, fn);
    }
  };
  for (int i = 0; i < 2000; ++i) schedule_one(schedule_one, 0);
  EXPECT_NO_THROW(sim.check_invariants());
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(next_id));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].t, fired[i].t);
    // Equal times fire in schedule order (ids are issued in schedule order).
    if (fired[i - 1].t == fired[i].t) {
      ASSERT_LT(fired[i - 1].id, fired[i].id);
    }
  }
  EXPECT_GT(sim.lane_dispatched(), 0u);
  EXPECT_LT(sim.lane_dispatched(), sim.events_dispatched());
}

TEST(SimulatorLane, RunUntilLeavesLaneEventBeyondHorizon) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_fifo(10.0, [&] { order.push_back(1); });
  sim.schedule_fifo(20.0, [&] { order.push_back(2); });
  sim.run_until(15.0);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.heap_pending(), 0u);
  EXPECT_NO_THROW(sim.check_invariants());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorLane, NonMonotoneLaneTimeThrows) {
  Simulator sim;
  sim.schedule_fifo(10.0, [] {});
  EXPECT_THROW(sim.schedule_fifo(5.0, [] {}), std::logic_error);
  // The heap still takes any future time.
  EXPECT_NO_THROW(sim.schedule_at(5.0, [] {}));
  EXPECT_THROW(sim.schedule_fifo(10.0, EventFn{}), std::logic_error);
  EXPECT_NO_THROW(sim.check_invariants());
  EXPECT_EQ(sim.pending(), 2u);
}

TEST(SimulatorLane, RingGrowsAcrossWrapAround) {
  // Keep the ring part-full while it wraps, then force growth mid-wrap.
  Simulator sim;
  std::vector<int> order;
  int next = 0;
  for (int i = 0; i < 40; ++i) {
    const int id = next++;
    sim.schedule_fifo(static_cast<double>(id), [&order, id] { order.push_back(id); });
  }
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(sim.step());
  for (int i = 0; i < 200; ++i) {
    const int id = next++;
    sim.schedule_fifo(static_cast<double>(id), [&order, id] { order.push_back(id); });
  }
  EXPECT_NO_THROW(sim.check_invariants());
  sim.run();
  ASSERT_EQ(order.size(), 240u);
  for (int i = 0; i < 240; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorLane, CompactionBoundsDeadHeapNodesWhileLaneIsBusy) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 5000; ++i) sim.schedule_fifo(static_cast<double>(i), [] {});
  for (int i = 0; i < 20000; ++i)
    handles.push_back(sim.schedule_at(i, [] {}));
  for (int i = 0; i < 20000; ++i)
    if (i % 100 != 0) sim.cancel(handles[static_cast<std::size_t>(i)]);
  EXPECT_EQ(sim.heap_pending(), 200u);
  EXPECT_EQ(sim.pending(), 5200u);
  // The bound is against the heap's live events, not the lane's.
  EXPECT_LE(sim.queued_nodes(), 2 * sim.heap_pending() + 64);
  EXPECT_GT(sim.compactions(), 0u);
  sim.audit_now();
  std::uint64_t fired = 0;
  while (sim.step()) {
    ++fired;
    if (fired % 997 == 0) sim.audit_now();
  }
  EXPECT_EQ(fired, 5200u);
  EXPECT_EQ(sim.lane_dispatched(), 5000u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotone = true;
  Rng rng{99};
  for (int i = 0; i < 20000; ++i) {
    sim.schedule_at(rng.uniform(0, 1e6), [&] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_dispatched(), 20000u);
}

}  // namespace
}  // namespace das::sim
