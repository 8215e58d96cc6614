// Engine tests run against BOTH scheduler policies: the binary heap and
// the calendar queue must be observably identical (same callbacks, same
// order, same counters) -- that equivalence is what lets every cell run
// the calendar path, with the heap kept as its oracle.  test_link.cpp's
// EngineReplay tests feed both the message streams real cells produce.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace {

using gcs::sim::Engine;
using gcs::sim::EnginePolicy;

class EngineTest : public ::testing::TestWithParam<EnginePolicy> {
 protected:
  Engine make_engine() const { return Engine(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(BothPolicies, EngineTest,
                         ::testing::Values(EnginePolicy::kHeap,
                                           EnginePolicy::kCalendar),
                         [](const auto& info) {
                           return info.param == EnginePolicy::kHeap
                                      ? "Heap"
                                      : "Calendar";
                         });

TEST_P(EngineTest, ExecutesInTimestampOrder) {
  Engine engine = make_engine();
  std::vector<int> order;
  engine.at(3.0, [&] { order.push_back(3); });
  engine.at(1.0, [&] { order.push_back(1); });
  engine.at(2.0, [&] { order.push_back(2); });
  engine.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.events_executed(), 3u);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST_P(EngineTest, SameTimestampEventsAreFifo) {
  Engine engine = make_engine();
  std::string trace;
  for (char c : std::string("abcdef")) {
    engine.at(1.0, [&trace, c] { trace.push_back(c); });
  }
  engine.run_until(1.0);
  EXPECT_EQ(trace, "abcdef");
}

TEST_P(EngineTest, EventsScheduledDuringRunAreServiced) {
  Engine engine = make_engine();
  std::vector<int> order;
  engine.at(1.0, [&] {
    order.push_back(1);
    engine.at(2.0, [&] { order.push_back(2); });
    engine.at(1.0, [&] { order.push_back(11); });  // same-time re-entry
  });
  engine.at(3.0, [&] { order.push_back(3); });
  engine.run_until(5.0);
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2, 3}));
}

TEST_P(EngineTest, RunUntilHorizonIsInclusiveAndResumable) {
  Engine engine = make_engine();
  int fired = 0;
  engine.at(1.0, [&] { ++fired; });
  engine.at(2.0, [&] { ++fired; });
  engine.run_until(1.0);
  EXPECT_EQ(fired, 1);
  engine.run_until(2.0);
  EXPECT_EQ(fired, 2);
}

TEST_P(EngineTest, SchedulingInThePastClampsToNowAndCountsIt) {
  Engine engine = make_engine();
  double fired_at = -1.0;
  engine.at(5.0, [&] {
    engine.at(1.0, [&] { fired_at = engine.now(); });
  });
  engine.run_until(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
  // The clamp must not be silent: exactly one at() asked for the past.
  EXPECT_EQ(engine.clamped_count(), 1u);
  // And it must name the offender: the requested (past) time plus the seq
  // the event got.  Seq 0 went to the top-level at(), so the nested
  // offender is seq 1.
  EXPECT_DOUBLE_EQ(engine.first_clamped_time(), 1.0);
  EXPECT_EQ(engine.first_clamped_seq(), 1u);
}

TEST_P(EngineTest, FirstClampRecordKeepsTheEarliestOffender) {
  Engine engine = make_engine();
  engine.at(5.0, [&] {
    engine.at(1.0, [] {});   // first offender: seq 1
    engine.at(0.25, [] {});  // later clamps must not overwrite the record
  });
  engine.run_until(10.0);
  EXPECT_EQ(engine.clamped_count(), 2u);
  EXPECT_DOUBLE_EQ(engine.first_clamped_time(), 1.0);
  EXPECT_EQ(engine.first_clamped_seq(), 1u);
}

TEST_P(EngineTest, WellFormedSchedulesNeverClamp) {
  Engine engine = make_engine();
  engine.every(0.5, 0.25, [](gcs::sim::Time) {});
  engine.at(1.0, [&] { engine.at(engine.now(), [] {}); });  // t == now is fine
  engine.run_until(20.0);
  EXPECT_EQ(engine.clamped_count(), 0u);
}

TEST_P(EngineTest, PeriodicCallbackFiresOnSchedule) {
  Engine engine = make_engine();
  std::vector<double> fire_times;
  engine.every(1.0, 0.5, [&](gcs::sim::Time t) { fire_times.push_back(t); });
  engine.run_until(3.0);
  ASSERT_EQ(fire_times.size(), 5u);  // 1.0, 1.5, 2.0, 2.5, 3.0
  EXPECT_DOUBLE_EQ(fire_times.front(), 1.0);
  EXPECT_DOUBLE_EQ(fire_times.back(), 3.0);
}

TEST_P(EngineTest, StatsTrackPendingHighWater) {
  Engine engine = make_engine();
  for (int i = 0; i < 32; ++i) {
    engine.at(static_cast<double>(i), [] {});
  }
  engine.run_until(100.0);
  const gcs::sim::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.max_pending, 32u);
  // Exactly one of the policy counters is active for this engine.
  if (GetParam() == gcs::sim::EnginePolicy::kHeap) {
    EXPECT_GT(stats.heap_ops, 0u);
    EXPECT_EQ(stats.calendar_bucket_scans, 0u);
  } else {
    EXPECT_EQ(stats.heap_ops, 0u);
    EXPECT_GT(stats.calendar_bucket_scans, 0u);
  }
}

TEST_P(EngineTest, DeterministicAcrossIdenticalRuns) {
  auto run = [this] {
    Engine engine = make_engine();
    std::vector<std::pair<double, int>> trace;
    for (int i = 0; i < 100; ++i) {
      engine.at(static_cast<double>(i % 7), [&trace, i, &engine] {
        trace.emplace_back(engine.now(), i);
      });
    }
    engine.run_until(100.0);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(EngineTest, PendingAccountingThroughPartialRuns) {
  Engine engine = make_engine();
  // Enough load to force the calendar through several resizes.
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    engine.at(static_cast<double>(i % 100) + 0.5, [] {});
  }
  EXPECT_EQ(engine.pending(), static_cast<std::size_t>(n));
  engine.run_until(49.5);  // drains slots 0.5 .. 49.5 = half the events
  EXPECT_EQ(engine.pending(), static_cast<std::size_t>(n) / 2);
  EXPECT_EQ(engine.events_executed(), static_cast<std::uint64_t>(n) / 2);
  engine.run_until(1000.0);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.events_executed(), static_cast<std::uint64_t>(n));
}

TEST_P(EngineTest, MillionEventSmoke) {
  Engine engine = make_engine();
  const std::uint64_t n = 1000000;
  std::uint64_t fired = 0;
  // Mixed same-time bursts and spread times, plus each event chaining
  // one follow-up, so the queue sees growth, churn, and drain phases.
  for (std::uint64_t i = 0; i < n / 2; ++i) {
    const double t = static_cast<double>(i % 1009) * 0.25;
    engine.at(t, [&fired, &engine] {
      ++fired;
      engine.at(engine.now() + 0.125, [&fired] { ++fired; });
    });
  }
  engine.run_until(1e9);
  EXPECT_EQ(fired, n);
  EXPECT_EQ(engine.events_executed(), n);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.clamped_count(), 0u);
}

TEST_P(EngineTest, AtRejectsNonFiniteTimes) {
  // A NaN or infinite timestamp must fail loudly under BOTH policies: the
  // calendar's bucket math would silently corrupt on it (NaN compares
  // false with everything, so it slips past the clamp), and the heap
  // would order it arbitrarily.
  Engine engine = make_engine();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.at(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.at(-inf, [] {}), std::invalid_argument);
  // The rejects left nothing behind and the engine still works.
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.clamped_count(), 0u);
  int fired = 0;
  engine.at(1.0, [&] { ++fired; });
  engine.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST_P(EngineTest, EveryRejectsNonPositiveOrNonFinitePeriods) {
  // every() with period <= 0 (or any non-finite argument) used to enqueue
  // a chain that reschedules itself at the same instant forever -- a
  // livelock the first run_until() never returns from.  It must throw
  // instead, before anything is queued.
  Engine engine = make_engine();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.every(1.0, 0.0, [](gcs::sim::Time) {}),
               std::invalid_argument);
  EXPECT_THROW(engine.every(1.0, -0.5, [](gcs::sim::Time) {}),
               std::invalid_argument);
  EXPECT_THROW(engine.every(1.0, nan, [](gcs::sim::Time) {}),
               std::invalid_argument);
  EXPECT_THROW(engine.every(nan, 1.0, [](gcs::sim::Time) {}),
               std::invalid_argument);
  EXPECT_THROW(engine.every(inf, 1.0, [](gcs::sim::Time) {}),
               std::invalid_argument);
  engine.run_until(5.0);  // returns: nothing was queued
  EXPECT_EQ(engine.events_executed(), 0u);
  EXPECT_EQ(engine.pending(), 0u);
}

}  // namespace

namespace {

using gcs::sim::EventLane;
using gcs::sim::ScheduledEvent;

// A calendar engine with FIFO lanes against the heap oracle, which keeps
// none: the same schedule must run in the same order with the same
// counters, whichever lane (or the calendar) each event waited in.
struct LaneDriver {
  explicit LaneDriver(EnginePolicy policy) : engine(policy) {
    lanes[0] = engine.add_lane();
    lanes[1] = engine.add_lane();
  }
  Engine engine;
  Engine::Lane lanes[2];
  std::vector<std::pair<double, int>> log;  // (now, event id)
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  int next_id = 0;
  int budget = 20000;

  std::uint64_t draw(std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % mod;
  }
  Engine::Lane pick_lane() {
    const std::uint64_t r = draw(3);
    return r == 2 ? Engine::kNoLane : lanes[r];
  }
  // Schedules one event at t on `lane`; when it runs it logs itself and
  // schedules up to two follow-ups: in order (now plus a slotted gap, so
  // equal times recur), out of order (earlier than a lane's tail), at
  // exactly now, or in the past (clamped).
  void schedule(double t, Engine::Lane lane) {
    const int id = next_id++;
    engine.at(t, [this, id] { fire(id); }, lane);
  }
  void fire(int id) {
    const double now = engine.now();
    log.emplace_back(now, id);
    for (int k = 0; k < 2 && budget > 0; ++k, --budget) {
      switch (draw(6)) {
        case 0:
        case 1:
          schedule(now + 0.125 * static_cast<double>(1 + draw(8)),
                   pick_lane());
          break;
        case 2:
          schedule(now + 0.001 * static_cast<double>(draw(1000)),
                   pick_lane());
          break;
        case 3:
          schedule(now, pick_lane());
          break;
        case 4:
          schedule(now - 0.5, pick_lane());  // clamped to now
          break;
        default:
          break;
      }
    }
  }
};

TEST(EngineLanes, DifferentialAgainstTheHeapOracle) {
  LaneDriver lanes(EnginePolicy::kCalendar);
  LaneDriver oracle(EnginePolicy::kHeap);
  for (LaneDriver* d : {&lanes, &oracle}) {
    // Seeds: a lane fed in order, a lane fed out of order, calendar
    // events tying with both.
    for (int i = 0; i < 50; ++i) d->schedule(0.25 * i, d->lanes[0]);
    for (int i = 50; i > 0; --i) d->schedule(0.25 * i, d->lanes[1]);
    for (int i = 0; i < 50; ++i) d->schedule(0.5 * i, Engine::kNoLane);
  }
  EXPECT_EQ(lanes.engine.pending(), oracle.engine.pending());
  for (const double horizon : {0.0, 1.0, 2.5, 7.25, 1e9}) {
    double lane_next = -1.0;
    double oracle_next = -1.0;
    ASSERT_EQ(lanes.engine.next_time(&lane_next),
              oracle.engine.next_time(&oracle_next));
    EXPECT_EQ(lane_next, oracle_next);
    lanes.engine.run_until(horizon);
    oracle.engine.run_until(horizon);
    ASSERT_EQ(lanes.log, oracle.log) << "diverged by horizon " << horizon;
    EXPECT_EQ(lanes.engine.pending(), oracle.engine.pending());
  }
  EXPECT_GT(lanes.log.size(), 10000u);
  EXPECT_EQ(lanes.engine.events_executed(), oracle.engine.events_executed());
  EXPECT_EQ(lanes.engine.stats().max_pending,
            oracle.engine.stats().max_pending);
  EXPECT_GT(lanes.engine.clamped_count(), 0u);
  EXPECT_EQ(lanes.engine.clamped_count(), oracle.engine.clamped_count());
  EXPECT_EQ(lanes.engine.first_clamped_seq(),
            oracle.engine.first_clamped_seq());
}

TEST(EngineLanes, InOrderLanePushesNeverTouchTheCalendar) {
  Engine engine;
  const Engine::Lane lane = engine.add_lane();
  std::vector<double> fired;
  for (int i = 0; i < 3000; ++i) {
    engine.at(0.001 * (i / 3), [&] { fired.push_back(engine.now()); }, lane);
  }
  EXPECT_EQ(engine.pending(), 3000u);
  engine.run_until(10.0);
  EXPECT_EQ(fired.size(), 3000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(engine.stats().max_pending, 3000u);
  // The calendar stayed empty, so it never probed a bucket.
  EXPECT_EQ(engine.stats().calendar_bucket_scans, 0u);
}

TEST(EngineLanes, OutOfOrderPushFallsBackToTheCalendar) {
  Engine engine;
  const Engine::Lane lane = engine.add_lane();
  std::string order;
  engine.at(5.0, [&] { order += 'c'; }, lane);
  engine.at(3.0, [&] { order += 'a'; }, lane);  // earlier than the tail
  engine.at(4.0, [&] { order += 'b'; }, lane);  // still earlier
  engine.at(5.0, [&] { order += 'd'; }, lane);  // ties the tail: rides
  double next = 0.0;
  ASSERT_TRUE(engine.next_time(&next));
  EXPECT_EQ(next, 3.0);
  EXPECT_EQ(engine.pending(), 4u);
  engine.run_until(10.0);
  EXPECT_EQ(order, "abcd");
  EXPECT_GT(engine.stats().calendar_bucket_scans, 0u);
}

TEST(EngineLanes, EqualTimeTiesAcrossLanesAndCalendarAreFifo) {
  Engine engine;
  const Engine::Lane first = engine.add_lane();
  const Engine::Lane second = engine.add_lane();
  std::string order;
  engine.at(1.0, [&] { order += 'a'; });
  engine.at(1.0, [&] { order += 'b'; }, second);
  engine.at(1.0, [&] { order += 'c'; }, first);
  engine.at(1.0, [&] { order += 'd'; });
  engine.at(1.0, [&] {
    order += 'e';
    // Same-time re-entry from a running event, into every source.
    engine.at(1.0, [&] { order += 'f'; }, first);
    engine.at(1.0, [&] { order += 'g'; });
    engine.at(1.0, [&] { order += 'h'; }, second);
  }, second);
  engine.run_until(1.0);
  EXPECT_EQ(order, "abcdefgh");
}

TEST(EngineLanes, PastLanePushClampsAndCounts) {
  Engine engine;
  const Engine::Lane lane = engine.add_lane();
  double fired_at = -1.0;
  engine.at(5.0, [&] {
    engine.at(1.0, [&] { fired_at = engine.now(); }, lane);
  }, lane);
  engine.run_until(10.0);
  EXPECT_EQ(fired_at, 5.0);
  EXPECT_EQ(engine.clamped_count(), 1u);
  EXPECT_EQ(engine.first_clamped_time(), 1.0);
  EXPECT_EQ(engine.first_clamped_seq(), 1u);
}

TEST(EngineLanes, HorizonBoundedRunsLeaveLaneEventsPending) {
  Engine engine;
  const Engine::Lane lane = engine.add_lane();
  int fired = 0;
  for (int i = 1; i <= 4; ++i) engine.at(i, [&] { ++fired; }, lane);
  engine.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.pending(), 2u);
  double next = 0.0;
  ASSERT_TRUE(engine.next_time(&next));
  EXPECT_EQ(next, 3.0);
  engine.run_until(4.0);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_FALSE(engine.next_time(&next));
}

TEST(EngineLanes, LaneStorageStaysAtItsHighWaterMark) {
  EventLane lane;
  const std::size_t block = EventLane::kBlockEvents;
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  const auto push = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, ++pushed) {
      lane.push_back(ScheduledEvent{static_cast<double>(pushed), pushed, {}});
    }
  };
  const auto pop = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, ++popped) {
      ASSERT_EQ(lane.front().seq, popped);
      lane.pop_front();
    }
  };
  push(3 * block + 7);
  EXPECT_EQ(lane.capacity(), 4 * block);
  // A sliding window of 3 blocks + 7 live events spans at most 5 blocks;
  // drained blocks are reused at the tail, so once the window has
  // straddled that many, the storage never grows again.
  const auto slide = [&] {
    pop(block + 100);
    push(block + 100);
    EXPECT_LE(lane.capacity(), 5 * block);
  };
  for (int round = 0; round < 8; ++round) slide();
  const std::size_t high_water = lane.capacity();
  for (int round = 0; round < 20; ++round) slide();
  EXPECT_EQ(lane.capacity(), high_water);
  pop(lane.size());
  EXPECT_TRUE(lane.empty());
  push(5);
  pop(5);
  EXPECT_EQ(lane.capacity(), high_water);
}

TEST(EngineLanes, HeapOracleIgnoresLanes) {
  Engine engine(EnginePolicy::kHeap);
  const Engine::Lane lane = engine.add_lane();
  std::string order;
  engine.at(2.0, [&] { order += 'b'; }, lane);
  engine.at(1.0, [&] { order += 'a'; }, lane);
  engine.run_until(3.0);
  EXPECT_EQ(order, "ab");
  EXPECT_GT(engine.stats().heap_ops, 0u);
}

}  // namespace
