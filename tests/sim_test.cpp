// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

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
  EXPECT_EQ(sim.Run(), 1000u);
  EXPECT_EQ(sim.EventsExecuted(), 1000u);
}

// ------------------------------------------------- differential order ----

// A seeded workload driven through the kernel beside a reference queue
// ordered by (time, lane, per-lane scheduling order). Every callback checks
// that it is the reference's earliest event, then schedules zero to two
// follow-ups: zero delays, ties with the lane's other pending events, and
// times before them, sometimes into another lane via SetCurrentLane.
class OrderCheck {
 public:
  OrderCheck(std::uint32_t lanes, std::uint64_t seed, int budget)
      : rng_(seed),
        lanes_(lanes),
        lane_order_(lanes, 0),
        lane_times_(lanes),
        budget_(budget) {
    sim_.ConfigureLanes(lanes);
  }

  void Run() {
    // Events before the run land in random lanes, several in some.
    for (std::uint32_t i = 0; i < lanes_ + lanes_ / 2 + 1; ++i) {
      const auto lane = static_cast<std::uint32_t>(
          rng_.UniformInt(0, static_cast<std::int64_t>(lanes_) - 1));
      sim_.SetCurrentLane(lane);
      Add(lane, rng_.UniformInt(0, 20));
    }
    sim_.Run();
    EXPECT_TRUE(pending_.empty()) << pending_.size() << " never ran";
    EXPECT_EQ(executed_, static_cast<std::uint64_t>(next_id_));
    EXPECT_EQ(sim_.EventsExecuted(), executed_);
  }

 private:
  using Key = std::tuple<Time, std::uint32_t, std::uint64_t, int>;

  void Add(std::uint32_t lane, Time at) {
    const int id = next_id_++;
    pending_.emplace(at, lane, lane_order_[lane]++, id);
    lane_times_[lane].insert(at);
    sim_.ScheduleAt(at, [this, lane, id] { Fire(lane, id); });
  }

  // Earliest pending reference time in `lane`, or -1 when it has none.
  Time LaneHead(std::uint32_t lane) const {
    return lane_times_[lane].empty() ? -1 : *lane_times_[lane].begin();
  }

  void Fire(std::uint32_t lane, int id) {
    ASSERT_FALSE(pending_.empty());
    const Key expected = *pending_.begin();
    pending_.erase(pending_.begin());
    lane_times_[std::get<1>(expected)].erase(
        lane_times_[std::get<1>(expected)].find(std::get<0>(expected)));
    ++executed_;
    ASSERT_EQ(std::get<3>(expected), id)
        << "lanes " << lanes_ << ": ran event " << id << " (lane " << lane
        << ") before event " << std::get<3>(expected) << " (lane "
        << std::get<1>(expected) << ", t " << std::get<0>(expected) << ")";
    ASSERT_EQ(sim_.Now(), std::get<0>(expected));
    std::uint32_t target = lane;
    const double draw = rng_.NextDouble();
    const int follow_ups = draw < 0.2 ? 0 : draw < 0.6 ? 1 : 2;
    for (int k = 0; k < follow_ups && next_id_ < budget_; ++k) {
      if (lanes_ > 1 && rng_.NextDouble() < 0.1) {
        target = static_cast<std::uint32_t>(
            rng_.UniformInt(0, static_cast<std::int64_t>(lanes_) - 1));
        sim_.SetCurrentLane(target);
      }
      const Time now = sim_.Now();
      const Time other = LaneHead(target);
      Time at = now;
      switch (rng_.UniformInt(0, 3)) {
        case 0:  // zero delay
          break;
        case 1:  // tie with the lane's pending event
          at = other >= now ? other : now;
          break;
        case 2:  // before the lane's pending event
          at = other > now ? rng_.UniformInt(now, other - 1) : now;
          break;
        default:
          at = now + rng_.UniformInt(1, 6);
          break;
      }
      Add(target, at);
    }
  }

  Simulator sim_;
  util::Rng rng_;
  std::uint32_t lanes_;
  std::vector<std::uint64_t> lane_order_;
  std::set<Key> pending_;
  std::vector<std::multiset<Time>> lane_times_;
  std::uint64_t executed_ = 0;
  int next_id_ = 0;
  int budget_;
};

TEST(Simulator, ExecutionOrderMatchesAReferenceSortByTimeLaneAndLaneOrder) {
  for (const std::uint32_t lanes : {1u, 3u, 37u, 600u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << "lanes " << lanes << " seed " << seed);
      OrderCheck check(lanes, seed * 7919 + lanes, 3'000);
      check.Run();
    }
  }
}

// ---------------------------------------------------------- edge cases ----

TEST(Simulator, ThrowingCallbackLeavesTheRestOfTheQueueInOrder) {
  Simulator sim;
  sim.ConfigureLanes(4);
  std::vector<int> log;
  sim.SetCurrentLane(3);
  sim.ScheduleAt(10, [&] { log.push_back(30); });
  sim.SetCurrentLane(2);
  sim.ScheduleAt(5, [&] {
    log.push_back(20);
    sim.Schedule(5, [&] { log.push_back(21); });  // ties lane 3 at t=10
    throw std::runtime_error("boom");
  });
  sim.ScheduleAt(7, [&] { log.push_back(22); });
  sim.SetCurrentLane(0);
  sim.ScheduleAt(10, [&] { log.push_back(0); });

  EXPECT_THROW(sim.Run(), std::runtime_error);
  EXPECT_EQ(sim.Now(), 5);
  sim.Run();
  EXPECT_EQ(log, (std::vector<int>{20, 22, 0, 21, 30}));
  EXPECT_EQ(sim.EventsExecuted(), 5u);
}

// Counts the destructions of live callables (moved-from shells excluded).
class DestructionProbe {
 public:
  explicit DestructionProbe(int* destroyed) : destroyed_(destroyed) {}
  DestructionProbe(DestructionProbe&& other) noexcept
      : destroyed_(other.destroyed_) {
    other.destroyed_ = nullptr;
  }
  ~DestructionProbe() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }
  void operator()() const { ADD_FAILURE() << "a reset event ran"; }

 private:
  int* destroyed_;
};

TEST(Simulator, ResetDestroysEveryPendingCallbackAndStartsClean) {
  Simulator sim;
  sim.ConfigureLanes(3);
  int destroyed = 0;
  int ran = 0;
  sim.ScheduleAt(1, [&] { ++ran; });
  for (std::uint32_t i = 0; i < 7; ++i) {
    sim.SetCurrentLane(i % 3);
    sim.ScheduleAt(100 - static_cast<Time>(i), DestructionProbe(&destroyed));
  }
  ASSERT_TRUE(sim.Step());
  ASSERT_EQ(ran, 1);
  ASSERT_EQ(destroyed, 0);
  sim.Reset();
  EXPECT_EQ(destroyed, 7);
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.EventsExecuted(), 0u);
  EXPECT_THROW(sim.SetCurrentLane(1), std::invalid_argument);
  EXPECT_FALSE(sim.Step());

  // The next run starts from an empty queue with a fresh lane table.
  sim.ConfigureLanes(2);
  std::vector<int> log;
  sim.SetCurrentLane(1);
  sim.ScheduleAt(3, [&] { log.push_back(1); });
  sim.SetCurrentLane(0);
  sim.ScheduleAt(3, [&] { log.push_back(0); });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(log, (std::vector<int>{0, 1}));
}

TEST(Simulator, StepFromInsideACallbackThrows) {
  Simulator sim;
  int nested_throws = 0;
  int later = 0;
  sim.Schedule(1, [&] {
    try {
      sim.Step();
    } catch (const std::logic_error&) {
      ++nested_throws;
    }
    try {
      sim.Run();
    } catch (const std::logic_error&) {
      ++nested_throws;
    }
  });
  sim.Schedule(2, [&] { ++later; });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(nested_throws, 2);
  EXPECT_EQ(later, 1);
}

TEST(Simulator, ScheduleAtPastTheTimeFieldThrows) {
  Simulator sim;
  EXPECT_THROW(sim.ScheduleAt(Simulator::kTimeLimit, [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.Schedule(std::numeric_limits<Duration>::max(), [] {}),
               std::invalid_argument);
  sim.ScheduleAt(Simulator::kTimeLimit - 2, [] {});
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(sim.Now(), Simulator::kTimeLimit - 2);
  EXPECT_THROW(sim.Schedule(2, [] {}), std::invalid_argument);
  sim.Schedule(1, [] {});
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(sim.Now(), Simulator::kTimeLimit - 1);
}

// Pending events keep the lane they were scheduled in, so the lane table
// cannot change under them.
TEST(Simulator, ConfigureLanesRejectsPendingEvents) {
  Simulator sim;
  sim.ConfigureLanes(8);
  sim.SetCurrentLane(5);
  int follow_ups = 0;
  sim.ScheduleAt(4, [&] { sim.Schedule(1, [&] { ++follow_ups; }); });
  EXPECT_THROW(sim.ConfigureLanes(2), std::logic_error);
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(follow_ups, 1);
  sim.ConfigureLanes(2);
  EXPECT_THROW(sim.SetCurrentLane(5), std::invalid_argument);
}

}  // namespace
}  // namespace wsnlink::sim
