#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace gae::sim {
namespace {

TEST(Simulation, FiresInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulation, TiesBreakByScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, ClockAdvancesOnlyToFiredEvents) {
  Simulation sim;
  sim.schedule_at(100, [] {});
  sim.schedule_at(500, [] {});
  sim.step();
  EXPECT_EQ(sim.now(), 100);
  sim.step();
  EXPECT_EQ(sim.now(), 500);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, ScheduleAfterRelative) {
  Simulation sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulation, PastSchedulesClampToNow) {
  Simulation sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_at(100, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double cancel reports false
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelInvalidIds) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
  EXPECT_FALSE(sim.cancel(9999));  // never existed
}

TEST(Simulation, CancelFromInsideEvent) {
  Simulation sim;
  bool fired = false;
  const EventId victim = sim.schedule_at(200, [&] { fired = true; });
  sim.schedule_at(100, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(100, [&] { ++count; });
  sim.schedule_at(200, [&] { ++count; });
  sim.schedule_at(300, [&] { ++count; });
  sim.run_until(200);
  EXPECT_EQ(count, 2);  // events at t <= 200 fired
  EXPECT_EQ(sim.now(), 200);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents) {
  Simulation sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulation, EventsCanScheduleChains) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(10, chain);
  };
  sim.schedule_at(0, chain);
  const auto fired = sim.run();
  EXPECT_EQ(fired, 100u);
  EXPECT_EQ(sim.now(), 990);
}

TEST(Simulation, MaxEventsGuardStopsRunaway) {
  Simulation sim;
  std::function<void()> forever = [&] { sim.schedule_after(1, forever); };
  sim.schedule_at(0, forever);
  const auto fired = sim.run(1000);
  EXPECT_EQ(fired, 1000u);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    std::vector<SimTime> log;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at((i * 37) % 100, [&log, &sim] { log.push_back(sim.now()); });
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, EmptyReflectsCancelledEvents) {
  Simulation sim;
  EXPECT_TRUE(sim.empty());
  const EventId id = sim.schedule_at(10, [] {});
  EXPECT_FALSE(sim.empty());
  sim.cancel(id);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, CancelAfterFiringIsRefusedAndLeavesNoGhost) {
  // Regression: cancel() only checked that the id had been handed out, so a
  // fired event could be "cancelled"; its id then sat in the cancelled set
  // forever and empty() (which compared set and queue sizes) reported an
  // empty queue while a later event was still pending.
  Simulation sim;
  int fired = 0;
  const EventId a = sim.schedule_at(10, [&] { ++fired; });
  sim.run();
  EXPECT_FALSE(sim.cancel(a));
  sim.schedule_at(20, [&] { ++fired; });
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, StepUntilFiresOnlyDueEvents) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  const EventId cancelled = sim.schedule_at(50, [&] { order.push_back(0); });
  sim.cancel(cancelled);

  EXPECT_FALSE(sim.step_until(99));  // the cancelled event at 50 does not count
  EXPECT_EQ(sim.now(), 0);           // and the clock stays put
  EXPECT_TRUE(sim.step_until(100));  // due exactly at the bound
  EXPECT_EQ(sim.now(), 100);
  EXPECT_FALSE(sim.step_until(150));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_TRUE(sim.step_until(1000));  // fires one event, not all that are due
  EXPECT_EQ(sim.now(), 200);
  EXPECT_FALSE(sim.step_until(1000));  // queue empty
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulation, CancelledEventsDoNotAccumulate) {
  // Regression: cancel() only forgot the id, so every cancelled event (and
  // its std::function) stayed in the heap until its time came round.
  Simulation sim;
  constexpr int kPending = 10;
  int fired = 0;
  for (int i = 0; i < kPending; ++i) sim.schedule_at(1'000'000 + i, [&] { ++fired; });
  for (int i = 0; i < 100'000; ++i) {
    EXPECT_TRUE(sim.cancel(sim.schedule_after(10 + i % 7, [&] { ++fired; })));
    ASSERT_LE(sim.queued(), 2 * kPending + Simulation::kCompactionFloor) << "cycle " << i;
  }
  EXPECT_EQ(sim.run(), static_cast<std::uint64_t>(kPending));
  EXPECT_EQ(fired, kPending);
  EXPECT_EQ(sim.queued(), 0u);
}

TEST(Simulation, FireOrderSurvivesHeapRebuilds) {
  // Rebuilding the heap to shed cancelled entries must not move the
  // (time, schedule order) firing sequence of the events that remain.
  Simulation sim;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 1000; ++i) {
    const SimTime at = (i * 37) % 100;
    if (i % 3 == 0) {
      sim.schedule_at(at, [&order, i] { order.push_back(i); });
    } else {
      doomed.push_back(sim.schedule_at(at, [] { FAIL() << "cancelled event fired"; }));
    }
  }
  for (EventId id : doomed) sim.cancel(id);
  EXPECT_LT(sim.queued(), 1000u);
  sim.run();

  std::vector<int> expected;
  for (int i = 0; i < 1000; i += 3) expected.push_back(i);
  std::stable_sort(expected.begin(), expected.end(),
                   [](int a, int b) { return (a * 37) % 100 < (b * 37) % 100; });
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace gae::sim
