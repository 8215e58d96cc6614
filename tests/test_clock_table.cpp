// clk::ClockTable against the clocks its RateSchedules describe (an
// eager reference walk, or exact rate * t for a constant clock), and the
// table's lazy rows inside a simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "clk/clock.hpp"
#include "core/network_sim.hpp"
#include "eager_walk.hpp"
#include "net/dynamic_graph.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"

namespace {

using gcs::clk::ClockTable;
using gcs::clk::RateSchedule;
using gcs::test::EagerWalk;

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// One node's clock as the test builds it: a constant rate, or a walk
// sized to `sized_until`.
struct NodeClock {
  bool walk;
  double rate;  // constant clocks
  double rho, step_dt, sigma, start_rate, sized_until;
  std::uint64_t seed;

  RateSchedule make() const {
    if (!walk) return RateSchedule(rate);
    return RateSchedule::random_walk(rho, step_dt, sigma, seed, start_rate,
                                     sized_until);
  }
};

// The clock a NodeClock describes, evaluated independently of the table:
// exact rate * t and v / rate for a constant clock, an EagerWalk for a
// walk.
class Reference {
 public:
  explicit Reference(const NodeClock& c) : rate_(c.rate) {
    if (c.walk) eager_.emplace(c.rho, c.step_dt, c.sigma, c.seed, c.start_rate);
  }
  double value_at(double t) {
    return eager_ ? eager_->value_at(t) : rate_ * t;
  }
  double time_when(double v) {
    return eager_ ? eager_->time_when(v) : v / rate_;
  }
  double rate_at(double t) { return eager_ ? eager_->rate_at(t) : rate_; }

 private:
  double rate_;
  std::optional<EagerWalk> eager_;
};

NodeClock constant(double rate) {
  return NodeClock{false, rate, 0.0, 0.0, 0.0, 0.0, 0.0, 0};
}

NodeClock walk(std::uint64_t seed, double sized_until, double step_dt = 1.0,
               double rho = 0.02, double sigma = 0.005,
               double start_rate = 1.0) {
  return NodeClock{true, 0.0, rho, step_dt, sigma, start_rate, sized_until,
                   seed};
}

// Walk seeds: both ends of the range and the harness's 7919 k + i.
std::vector<std::uint64_t> seeds() {
  std::vector<std::uint64_t> s = {0, std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t k : {1u, 2u, 1000u}) {
    for (std::uint64_t i : {0u, 1u, 311u, 99999u}) s.push_back(7919 * k + i);
  }
  return s;
}

enum class Kind { kValue, kRate, kTime };
struct Query {
  std::size_t u;
  Kind kind;
  double x;
};

// The last real time node `c`'s rows hold: one ulp below the end of the
// segment holding its sized horizon.  A constant clock has no horizon;
// its reads run well past `horizon`.
double last_readable(const NodeClock& c, double horizon) {
  if (!c.walk) return 2.0 * horizon + 40.0;
  double t0 = 0.0;
  while (!(c.sized_until < t0 + c.step_dt)) t0 += c.step_dt;
  return std::nextafter(t0 + c.step_dt, 0.0);
}

// The reads to compare for node `u`: value_at and rate_at at every
// segment boundary (and one ulp either side), at and past the horizon up
// to the last time the node's rows hold; time_when at every segment's
// starting clock value (and one ulp below), read off a fresh reference.
void add_queries(std::size_t u, const NodeClock& c, double horizon,
                 std::vector<Query>* qs) {
  const double last = last_readable(c, horizon);
  std::vector<double> ts = {0.0, last};
  for (const double t : {horizon, std::nextafter(horizon, 0.0),
                         std::nextafter(horizon, last)}) {
    if (t <= last) ts.push_back(t);
  }
  if (c.walk) {
    for (double t0 = 0.0; t0 <= last; t0 += c.step_dt) {
      ts.push_back(t0);
      ts.push_back(std::nextafter(t0, 0.0));
      ts.push_back(std::nextafter(t0, last));
      if (t0 + 0.37 * c.step_dt <= last) ts.push_back(t0 + 0.37 * c.step_dt);
    }
  } else {
    for (double t = 0.0; t <= last; t += 0.73) ts.push_back(t);
  }
  Reference ref(c);
  for (const double t : ts) {
    qs->push_back({u, Kind::kValue, t});
    qs->push_back({u, Kind::kRate, t});
    // The reading one ulp before a walk's rows end may round to the
    // value where they end, which the rows do not hold.
    if (c.walk && t == last) continue;
    // value_at at a segment's start is exactly its hw0.
    const double hw = ref.value_at(t);
    qs->push_back({u, Kind::kTime, hw});
    qs->push_back({u, Kind::kTime, std::nextafter(hw, 0.0)});
  }
}

// Builds a table from `clocks` and runs `qs` against it and against a
// separate Reference per node, demanding identical bits.
void expect_table_matches(const std::vector<NodeClock>& clocks,
                          const std::vector<Query>& qs,
                          const std::string& what) {
  std::vector<RateSchedule> schedules;
  std::vector<Reference> refs;
  for (const NodeClock& c : clocks) {
    schedules.push_back(c.make());
    refs.emplace_back(c);
  }
  const ClockTable table(schedules);
  schedules.clear();  // the table must not need them
  ASSERT_EQ(table.size(), clocks.size());
  for (const Query& q : qs) {
    Reference& r = refs[q.u];
    switch (q.kind) {
      case Kind::kValue:
        ASSERT_EQ(bits(table.value_at(q.u, q.x)), bits(r.value_at(q.x)))
            << what << " node " << q.u << " value_at(" << q.x << ")";
        break;
      case Kind::kRate:
        ASSERT_EQ(bits(table.rate_at(q.u, q.x)), bits(r.rate_at(q.x)))
            << what << " node " << q.u << " rate_at(" << q.x << ")";
        break;
      case Kind::kTime:
        ASSERT_EQ(bits(table.time_when(q.u, q.x)), bits(r.time_when(q.x)))
            << what << " node " << q.u << " time_when(" << q.x << ")";
        break;
    }
  }
}

// In node order, ascending per node; then all nodes interleaved in a
// shuffled order, so row fills happen in between other nodes' reads and
// in any order relative to each other.
void expect_table_matches_in_any_order(const std::vector<NodeClock>& clocks,
                                       double horizon,
                                       const std::string& what) {
  std::vector<Query> qs;
  for (std::size_t u = 0; u < clocks.size(); ++u) {
    add_queries(u, clocks[u], horizon, &qs);
  }
  expect_table_matches(clocks, qs, what + " in order");
  std::mt19937_64 shuffler(clocks.size());
  std::shuffle(qs.begin(), qs.end(), shuffler);
  expect_table_matches(clocks, qs, what + " shuffled");
}

// Horizons giving rows of 1 segment (no cells), 2 segments, the
// harness's walk cell (4 + delta_h / (1 - rho)), and many segments.
const double kHorizons[] = {0.5, 1.5, 4.0 + 0.5 / 0.98, 60.0};

// "Matches RateSchedule": node u reads, bit for bit, the clock that its
// RateSchedule describes, as a Reference evaluates it.
TEST(ClockTable, MatchesRateScheduleForEveryWalkSeedAndHorizon) {
  for (const double horizon : kHorizons) {
    std::vector<NodeClock> clocks;
    for (const std::uint64_t seed : seeds()) clocks.push_back(walk(seed, horizon));
    expect_table_matches_in_any_order(
        clocks, horizon, "walks sized to " + std::to_string(horizon));
  }
}

TEST(ClockTable, MatchesRateScheduleForConstantAndTwoCampClocks) {
  const double rho = 0.05;
  std::vector<NodeClock> spread;
  std::vector<NodeClock> two_camp;
  for (std::size_t i = 0; i < 16; ++i) {
    spread.push_back(constant(1.0 - rho + 2.0 * rho * i / 15.0));
    two_camp.push_back(constant(i < 8 ? 1.0 + rho : 1.0 - rho));
  }
  expect_table_matches_in_any_order(spread, 20.0, "spread");
  expect_table_matches_in_any_order(two_camp, 20.0, "two-camp");
}

TEST(ClockTable, MatchesRateScheduleForMixedVectors) {
  // Constants between walks of four shapes: fractional steps (whose
  // accumulated t0s drift off multiples of step_dt), a clamp that binds
  // often, a clamped start rate, rho = 0, different sizes per shape.
  for (const double horizon : kHorizons) {
    std::vector<NodeClock> clocks;
    std::uint64_t k = 0;
    for (const std::uint64_t seed : seeds()) {
      switch (k++ % 5) {
        case 0:
          clocks.push_back(constant(1.0 + 0.01 * static_cast<double>(k)));
          break;
        case 1:
          clocks.push_back(walk(seed, horizon));
          break;
        case 2:
          clocks.push_back(walk(seed, horizon / 2.0, 0.1));
          break;
        case 3:
          clocks.push_back(walk(seed, horizon, 0.25, 0.1, 0.2, 1.05));
          break;
        default:
          clocks.push_back(walk(seed, horizon, 2.0, 0.0, 0.01, 0.5));
          break;
      }
    }
    expect_table_matches_in_any_order(
        clocks, horizon, "mixed, sized to " + std::to_string(horizon));
  }
}

TEST(ClockTable, RowsAreSizedToTheLastReadableTimeAndFillLazily) {
  std::vector<RateSchedule> schedules;
  for (std::uint64_t i = 0; i < 8; ++i) {
    schedules.push_back(RateSchedule::random_walk(0.02, 1.0, 0.005, i, 1.0,
                                                  4.0 + 0.5 / 0.98));
  }
  const ClockTable table(schedules);
  // Segments start at 0, 1, ..., 4: four cells past segment 0.
  EXPECT_EQ(table.row_width(), 4u);
  EXPECT_EQ(table.rows_filled(), 0u);
  table.value_at(3, 0.99);  // segment 0: no row
  table.time_when(3, 0.5);
  EXPECT_EQ(table.rows_filled(), 0u);
  table.value_at(3, 1.0);
  EXPECT_EQ(table.rows_filled(), 1u);
  table.value_at(3, 4.9);
  table.time_when(5, 4.5);
  EXPECT_EQ(table.rows_filled(), 2u);
  // Constant clocks keep no rows at all.
  const ClockTable fixed(std::vector<RateSchedule>(8, RateSchedule(1.01)));
  EXPECT_EQ(fixed.row_width(), 0u);
  EXPECT_EQ(fixed.value_at(7, 50.0), 1.01 * 50.0);
}

TEST(ClockTable, RejectsWhatRateScheduleRejects) {
  const ClockTable table(
      {RateSchedule::random_walk(0.02, 1.0, 0.005, 3, 1.0, 10.0),
       RateSchedule(1.0)});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t u = 0; u < 2; ++u) {
    EXPECT_THROW(table.value_at(u, -1.0), std::invalid_argument);
    EXPECT_THROW(table.value_at(u, nan), std::invalid_argument);
    EXPECT_THROW(table.rate_at(u, inf), std::invalid_argument);
    EXPECT_THROW(table.time_when(u, -0.5), std::invalid_argument);
    EXPECT_THROW(table.time_when(u, nan), std::invalid_argument);
  }
}

// The message of a read past the rows, or "" if `read` did not throw
// std::out_of_range.
template <class Read>
std::string refusal(Read read) {
  try {
    read();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "";
}

TEST(ClockTable, RefusesReadsPastTheSizedHorizonByName) {
  // Node 1's segments start at 0, 1, ..., 4: its rows end at t = 5.
  const ClockTable table(
      {RateSchedule(1.0),
       RateSchedule::random_walk(0.02, 1.0, 0.005, 3, 1.0, 4.5)});
  const double last = std::nextafter(5.0, 0.0);
  EXPECT_NO_THROW(table.value_at(1, last));
  EXPECT_NO_THROW(table.rate_at(1, last));
  EXPECT_NO_THROW(table.time_when(1, table.value_at(1, last)));
  const double past_value = table.value_at(1, last) + 0.5;
  const struct {
    std::string what;
    std::string fn;
    std::string arg;
  } cases[] = {
      {refusal([&] { table.value_at(1, 5.0); }), "value_at", "t = 5,"},
      {refusal([&] { table.rate_at(1, 1e6); }), "rate_at", "t = 1e+06,"},
      {refusal([&] { table.time_when(1, past_value); }), "time_when",
       "value = "},
  };
  for (const auto& c : cases) {
    EXPECT_NE(c.what.find("ClockTable::" + c.fn), std::string::npos) << c.what;
    EXPECT_NE(c.what.find("node 1 "), std::string::npos) << c.what;
    EXPECT_NE(c.what.find(c.arg), std::string::npos) << c.what;
    EXPECT_NE(c.what.find("sized horizon 4.5"), std::string::npos) << c.what;
  }
  // A constant clock has no horizon.
  EXPECT_EQ(table.value_at(0, 1e9), 1e9);
  EXPECT_EQ(table.time_when(0, 1e9), 1e9);
}

// ---------------------------------------------------------------------------
// The table inside a simulation
// ---------------------------------------------------------------------------

gcs::core::SyncParams ring_params(std::size_t n) {
  gcs::core::SyncParams p;
  p.n = n;
  p.rho = 0.02;
  p.T = 0.5;
  p.D = 1.0;
  p.delta_h = 0.5;
  return p;
}

// The harness's walk clocks for a run cut at `horizon`.
std::vector<RateSchedule> harness_walks(const gcs::core::SyncParams& p,
                                        double horizon) {
  const double last_query = horizon + p.delta_h / (1.0 - p.rho);
  std::vector<RateSchedule> schedules;
  for (std::size_t i = 0; i < p.n; ++i) {
    schedules.push_back(RateSchedule::random_walk(p.rho, 1.0, p.rho / 4.0,
                                                  7919 + i, 1.0, last_query));
  }
  return schedules;
}

TEST(ClockTable, HorizonCutRunGeneratesNoRows) {
  // The benchmark probe's set-up shape: the horizon is cut below every
  // first broadcast, so the simulation is built and torn down without
  // executing an event -- and must not generate a single row, whether
  // the walks are sized to the cut (no cells at all) or to a full run
  // (cells reserved, none filled: set-up reads only segment 0).
  constexpr double kCut = 1e-12;
  const gcs::core::SyncParams p = ring_params(1000);
  for (const double sized_to : {kCut, 4.0}) {
    gcs::core::NetworkSimulation sim(
        p, gcs::net::DynamicGraph(p.n, gcs::net::make_ring(p.n).edges(), {}),
        gcs::net::make_constant_delay(p.T, 0.25), harness_walks(p, sized_to));
    sim.run_until(kCut);
    EXPECT_EQ(sim.events_executed(), 0u);
    EXPECT_EQ(sim.clocks().rows_filled(), 0u) << "sized to " << sized_to;
    EXPECT_EQ(sim.clocks().row_width(), sized_to == kCut ? 0u : 4u);
  }
}

TEST(ClockTable, ShardedRunFillsRowsOnOwnerShards) {
  // Rows fill mid-window on the shard that owns the node; every shard
  // count must read the same clocks (and fill every row exactly once).
  constexpr double kHorizon = 6.0;
  const gcs::core::SyncParams p = ring_params(256);
  std::vector<std::vector<double>> logical;
  for (const std::size_t shards : {1u, 4u}) {
    gcs::core::SimOptions options;
    options.shards = shards;
    gcs::core::NetworkSimulation sim(
        p, gcs::net::DynamicGraph(p.n, gcs::net::make_ring(p.n).edges(), {}),
        gcs::net::make_constant_delay(p.T, 0.25), harness_walks(p, kHorizon),
        options);
    sim.run_until(kHorizon);
    EXPECT_EQ(sim.clocks().rows_filled(), p.n) << "shards=" << shards;
    logical.emplace_back();
    sim.sample_clocks(logical.back());
  }
  ASSERT_EQ(logical[0].size(), logical[1].size());
  for (std::size_t i = 0; i < logical[0].size(); ++i) {
    ASSERT_EQ(bits(logical[0][i]), bits(logical[1][i])) << "node " << i;
  }
}

TEST(ClockTable, SimulationRunPastItsWalksFailsByName) {
  // Walks sized for a run to t = 2, run to t = 10: the first clock read
  // past the rows stops the run, on the classic engine and on a shard.
  const gcs::core::SyncParams p = ring_params(16);
  for (const std::size_t shards : {0u, 2u}) {
    gcs::core::SimOptions options;
    options.shards = shards;
    gcs::core::NetworkSimulation sim(
        p, gcs::net::DynamicGraph(p.n, gcs::net::make_ring(p.n).edges(), {}),
        gcs::net::make_constant_delay(p.T, 0.25), harness_walks(p, 2.0),
        options);
    const std::string what = refusal([&] { sim.run_until(10.0); });
    EXPECT_NE(what.find("ClockTable::"), std::string::npos)
        << "shards=" << shards << ": " << what;
    EXPECT_NE(what.find("node "), std::string::npos) << what;
    EXPECT_NE(what.find("sized horizon 2.51"), std::string::npos) << what;
  }
}

}  // namespace
