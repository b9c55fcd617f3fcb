// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace wsnlink::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(FromMilliseconds(1.5), 1500);
  EXPECT_EQ(FromSeconds(2.0), 2'000'000);
  EXPECT_DOUBLE_EQ(ToMilliseconds(2500), 2.5);
  EXPECT_DOUBLE_EQ(ToSeconds(500'000), 0.5);
  EXPECT_EQ(FromMilliseconds(0.2235), 224);  // rounds to nearest us
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, FifoStableForEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(10, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Lane-structured keys: same-time events run in (lane, lane-local order),
// not in global scheduling order, and an event's follow-ups inherit its
// lane. Multi-node output bytes depend on this tie-break.
TEST(Simulator, SameTimeEventsOrderByLaneThenSequence) {
  Simulator sim;
  sim.ConfigureLanes(3);
  std::vector<std::pair<Time, int>> log;

  sim.SetCurrentLane(1);
  sim.ScheduleAt(10, [&] {
    log.emplace_back(sim.Now(), 1);
    sim.Schedule(5, [&] { log.emplace_back(sim.Now(), 11); });
    sim.Schedule(0, [&] { log.emplace_back(sim.Now(), 12); });
  });
  sim.SetCurrentLane(2);
  sim.ScheduleAt(10, [&] { log.emplace_back(sim.Now(), 2); });
  sim.ScheduleAt(15, [&] { log.emplace_back(sim.Now(), 21); });
  sim.SetCurrentLane(0);
  sim.ScheduleAt(10, [&] { log.emplace_back(sim.Now(), 0); });

  sim.Run();
  // A global counter would run 1, 2, 0 at t=10 and 21 before 11 at t=15.
  // Lanes put lane 0 first and let lane 1's follow-ups (12, 11), scheduled
  // mid-run, overtake lane 2's events scheduled before the run.
  const std::vector<std::pair<Time, int>> expected = {
      {10, 0}, {10, 1}, {10, 12}, {10, 2}, {15, 11}, {15, 21}};
  EXPECT_EQ(log, expected);
}

TEST(Simulator, NestedSchedulingFromCallback) {
  Simulator sim;
  std::vector<Time> fire_times;
  sim.Schedule(5, [&] {
    fire_times.push_back(sim.Now());
    sim.Schedule(7, [&] { fire_times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(fire_times, (std::vector<Time>{5, 12}));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<int> fired;
  sim.Schedule(10, [&] { fired.push_back(10); });
  sim.Schedule(20, [&] { fired.push_back(20); });
  sim.Schedule(30, [&] { fired.push_back(30); });
  const auto count = sim.RunUntil(20);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.Now(), 20);
  sim.Run();
  EXPECT_EQ(fired.back(), 30);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.Schedule(1, [&] { ++count; });
  sim.Schedule(2, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RejectsInvalidScheduling) {
  Simulator sim;
  EXPECT_THROW(sim.Schedule(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.ScheduleAt(0, nullptr), std::invalid_argument);
  sim.Schedule(5, [] {});
  sim.Run();
  EXPECT_THROW(sim.ScheduleAt(1, [] {}), std::invalid_argument);
}

TEST(Simulator, ManyEventsCountTracked) {
  Simulator sim;
  for (int i = 0; i < 1000; ++i) sim.Schedule(i, [] {});
  EXPECT_EQ(sim.QueueSize(), 1000u);
  sim.Run();
  EXPECT_EQ(sim.EventsExecuted(), 1000u);
}

}  // namespace
}  // namespace wsnlink::sim
