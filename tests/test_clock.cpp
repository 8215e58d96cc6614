// clk::RateSchedule, the clock description, read through a one-node
// clk::ClockTable, the only clock evaluator, against an eager reference.
#include "clk/clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "eager_walk.hpp"
#include "util/lazy_mt.hpp"

namespace {

using gcs::clk::ClockTable;
using gcs::clk::RateSchedule;
using gcs::test::EagerWalk;

// A description holds no evaluation state: no engine (2.5 KB), no
// segments, nothing a copy would have to deep-copy.
static_assert(std::is_trivially_copyable_v<RateSchedule>,
              "RateSchedule must stay a plain description");
static_assert(sizeof(RateSchedule) <= 56,
              "RateSchedule must not grow per-node clock state");

// The clock one RateSchedule describes, read through a one-node table.
class OneClock {
 public:
  explicit OneClock(const RateSchedule& s)
      : table_(std::vector<RateSchedule>{s}) {}
  double value_at(double t) const { return table_.value_at(0, t); }
  double time_when(double v) const { return table_.time_when(0, v); }
  double rate_at(double t) const { return table_.rate_at(0, t); }

 private:
  ClockTable table_;
};

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

struct WalkShape {
  double rho;
  double step_dt;
  double sigma;
  std::uint64_t seed;
  double start_rate;
};

const WalkShape kShapes[] = {
    {0.02, 1.0, 0.005, 7919, 1.0},   // the harness's --drift=walk shape
    {0.02, 1.0, 0.005, 1, 1.0},
    {0.1, 0.25, 0.2, 42, 1.05},      // sigma >> rho: the clamp binds often
    {0.3, 2.0, 0.01, 123456789, 0.5},  // start rate clamped to 1 - rho
    {0.0, 1.0, 0.01, 5, 1.0},        // rho = 0: every step clamped to 1
};

// Times and clock values out to t = 1000 (1000 segments at step 1), with
// repeats and segment boundaries.
std::vector<double> query_points() {
  std::vector<double> q;
  for (double t = 0.0; t <= 60.0; t += 0.37) q.push_back(t);
  for (double t = 0.0; t <= 1000.0; t += 13.0) q.push_back(t);
  for (int k = 0; k <= 64; ++k) q.push_back(static_cast<double>(k));
  q.push_back(1e3);
  q.push_back(999.999);
  return q;
}

// A sizing that covers every query point: clock value 1000 falls by real
// time 1000 / (1 - rho) <= 1429 on every shape.
constexpr double kQueryReach = 1500.0;

enum class Query { kValue, kTime, kRate };

// Runs the same (kind, x) queries against a walk sized to kQueryReach
// and an eager reference, in the given order, and demands bit-identical
// answers.
void expect_same_answers(const WalkShape& w,
                         const std::vector<std::pair<Query, double>>& qs) {
  const OneClock s(RateSchedule::random_walk(w.rho, w.step_dt, w.sigma, w.seed,
                                             w.start_rate, kQueryReach));
  EagerWalk ref(w.rho, w.step_dt, w.sigma, w.seed, w.start_rate);
  for (const auto& [kind, x] : qs) {
    switch (kind) {
      case Query::kValue:
        ASSERT_EQ(bits(s.value_at(x)), bits(ref.value_at(x)))
            << "value_at(" << x << ") seed " << w.seed;
        break;
      case Query::kTime:
        ASSERT_EQ(bits(s.time_when(x)), bits(ref.time_when(x)))
            << "time_when(" << x << ") seed " << w.seed;
        break;
      case Query::kRate:
        ASSERT_EQ(bits(s.rate_at(x)), bits(ref.rate_at(x)))
            << "rate_at(" << x << ") seed " << w.seed;
        break;
    }
  }
}

std::vector<std::pair<Query, double>> all_kinds(const std::vector<double>& xs) {
  std::vector<std::pair<Query, double>> qs;
  for (double x : xs) {
    qs.emplace_back(Query::kValue, x);
    qs.emplace_back(Query::kTime, x);
    qs.emplace_back(Query::kRate, x);
  }
  return qs;
}

TEST(RateSchedule, WalkMatchesEagerReferenceInOrder) {
  std::vector<double> xs = query_points();
  std::sort(xs.begin(), xs.end());
  for (const WalkShape& w : kShapes) expect_same_answers(w, all_kinds(xs));
}

TEST(RateSchedule, WalkMatchesEagerReferenceShuffled) {
  const auto base = all_kinds(query_points());
  for (std::uint64_t order = 0; order < 8; ++order) {
    auto qs = base;
    std::mt19937_64 shuffler(order);
    std::shuffle(qs.begin(), qs.end(), shuffler);
    for (const WalkShape& w : kShapes) expect_same_answers(w, qs);
  }
}

TEST(RateSchedule, FirstQueryFarInFutureThenPast) {
  for (const WalkShape& w : kShapes) {
    std::vector<std::pair<Query, double>> qs = {{Query::kValue, 1e3}};
    for (double t = 0.0; t < 1e3; t += 7.5) {
      qs.emplace_back(Query::kValue, t);
      qs.emplace_back(Query::kRate, t);
      qs.emplace_back(Query::kTime, t);
    }
    expect_same_answers(w, qs);
    // The same far jump, driven through the inverse first.
    qs.front().first = Query::kTime;
    expect_same_answers(w, qs);
  }
}

TEST(RateSchedule, WalkRespectsDriftBoundsAndIsInvertible) {
  const RateSchedule walk =
      RateSchedule::random_walk(0.1, 1.0, 0.2, 9, 1.0, 200.0);
  EXPECT_TRUE(walk.walk());
  const OneClock s(walk);
  for (double t = 0.0; t < 200.0; t += 0.9) {
    const double r = s.rate_at(t);
    EXPECT_GE(r, 0.9);
    EXPECT_LE(r, 1.1);
    EXPECT_NEAR(s.time_when(s.value_at(t)), t, 1e-9);
  }
}

TEST(RateSchedule, ConstantSchedules) {
  for (double rate : {0.98, 1.0, 1.02, 3.0}) {
    const RateSchedule fixed(rate);
    EXPECT_FALSE(fixed.walk());
    EXPECT_EQ(fixed.rate(), rate);
    const OneClock s(fixed);
    for (double t : {0.0, 0.5, 17.25, 1e3, 1e9}) {
      EXPECT_EQ(s.value_at(t), rate * t);
      EXPECT_EQ(s.rate_at(t), rate);
      EXPECT_EQ(s.time_when(rate * t), (rate * t) / rate);
    }
  }
  // A NaN rate would read NaN everywhere, and +inf would read inf at every
  // t and time_when 0 at every value.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double rate : {0.0, -1.0, nan, inf, -inf}) {
    try {
      const RateSchedule bad(rate);
      ADD_FAILURE() << "accepted rate " << bad.rate();
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rate must be finite and > 0"), std::string::npos)
          << what;
      std::ostringstream value;
      value << rate;
      EXPECT_NE(what.find("got " + value.str()), std::string::npos) << what;
    }
  }
}

// value_at/time_when/rate_at used to walk off the front of the segment
// table (std::prev(begin())) for a negative or NaN argument in Release
// builds; they now refuse it and name the value.
TEST(RateSchedule, RejectsNegativeNanAndInfiniteArguments) {
  const OneClock walk(
      RateSchedule::random_walk(0.02, 1.0, 0.005, 3, 1.0, 10.0));
  const OneClock fixed(RateSchedule(1.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const OneClock* s : {&walk, &fixed}) {
    EXPECT_THROW(s->value_at(-1.0), std::invalid_argument);
    EXPECT_THROW(s->value_at(nan), std::invalid_argument);
    EXPECT_THROW(s->value_at(inf), std::invalid_argument);
    EXPECT_THROW(s->time_when(-0.5), std::invalid_argument);
    EXPECT_THROW(s->time_when(nan), std::invalid_argument);
    EXPECT_THROW(s->time_when(inf), std::invalid_argument);
    EXPECT_THROW(s->rate_at(-1e-300), std::invalid_argument);
    EXPECT_THROW(s->rate_at(nan), std::invalid_argument);
  }
  try {
    walk.value_at(-2.5);
    FAIL() << "value_at(-2.5) did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("value_at"), std::string::npos) << what;
    EXPECT_NE(what.find("-2.5"), std::string::npos) << what;
  }
  try {
    walk.time_when(nan);
    FAIL() << "time_when(nan) did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("time_when"), std::string::npos) << what;
    EXPECT_NE(what.find("nan"), std::string::npos) << what;
  }
  // Zero is in the domain; -0.0 compares equal to it.
  EXPECT_EQ(walk.value_at(0.0), 0.0);
  EXPECT_EQ(walk.time_when(-0.0), 0.0);
}

// ---------------------------------------------------------------------------
// util::LazyMt19937_64: std::mt19937_64's stream with lazy seeding
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> engine_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1,
                                      std::numeric_limits<std::uint64_t>::max()};
  // The harness's walk seeds: 7919 * cfg.seed + node.
  for (std::uint64_t k : {1u, 2u, 1000u}) {
    for (std::uint64_t i : {0u, 1u, 311u, 99999u}) seeds.push_back(7919 * k + i);
  }
  return seeds;
}

TEST(LazyMt19937_64, MatchesStdEngineOverThreeGenerations) {
  for (const std::uint64_t seed : engine_seeds()) {
    std::mt19937_64 ref(seed);
    gcs::util::LazyMt19937_64 lazy(seed);
    for (int i = 0; i < 3 * 312 + 7; ++i) {
      ASSERT_EQ(lazy(), ref()) << "seed " << seed << " output " << i;
    }
  }
}

TEST(LazyMt19937_64, NormalDrawsMatchStdEngine) {
  for (const std::uint64_t seed : engine_seeds()) {
    // A fresh distribution per draw (how the walk draws its steps) and
    // one long-lived distribution (which caches its second value).
    std::mt19937_64 ref(seed);
    gcs::util::LazyMt19937_64 lazy(seed);
    for (int i = 0; i < 400; ++i) {
      std::normal_distribution<double> a(0.0, 0.25);
      std::normal_distribution<double> b(0.0, 0.25);
      ASSERT_EQ(bits(a(lazy)), bits(b(ref))) << "seed " << seed << " draw " << i;
    }
    std::normal_distribution<double> a(1.0, 3.0);
    std::normal_distribution<double> b(1.0, 3.0);
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(bits(a(lazy)), bits(b(ref))) << "seed " << seed << " draw " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Walks sized to a horizon
// ---------------------------------------------------------------------------

// Where the rows of a walk sized to `horizon` end: at the end of the
// segment holding the horizon, its start accumulated as the table and
// the reference accumulate it.
double rows_end(double step_dt, double horizon) {
  double t0 = 0.0;
  while (!(horizon < t0 + step_dt)) t0 += step_dt;
  return t0 + step_dt;
}

// Every answer of a walk sized to `horizon` against the eager reference:
// queries before, at and past the horizon up to the rows' end, the exact
// segment boundaries, and time_when at every segment's starting clock
// value.
void expect_sized_walk_matches(const WalkShape& w, double horizon) {
  const OneClock s(RateSchedule::random_walk(w.rho, w.step_dt, w.sigma, w.seed,
                                             w.start_rate, horizon));
  EagerWalk ref(w.rho, w.step_dt, w.sigma, w.seed, w.start_rate);
  const std::string what = "seed " + std::to_string(w.seed) + " horizon " +
                           std::to_string(horizon);
  const double last = std::nextafter(rows_end(w.step_dt, horizon), 0.0);
  std::vector<double> ts;
  for (double t = 0.0; t <= last; t += w.step_dt * 0.37) ts.push_back(t);
  ts.push_back(horizon);
  ts.push_back(std::nextafter(horizon, 0.0));
  ts.push_back(std::nextafter(horizon, last));
  ts.push_back(last);
  for (double t : ts) {
    ASSERT_EQ(bits(s.value_at(t)), bits(ref.value_at(t))) << what << " t " << t;
    ASSERT_EQ(bits(s.rate_at(t)), bits(ref.rate_at(t))) << what << " t " << t;
  }
  // The accumulated t0s are not multiples of step_dt (0.1 * k != the sum
  // of k 0.1s), so t / step_dt lands one segment off near a boundary.
  for (const auto& seg : ref.segments_through(last)) {
    for (double t : {seg.t0, std::nextafter(seg.t0, 0.0),
                     std::nextafter(seg.t0, last)}) {
      ASSERT_EQ(bits(s.value_at(t)), bits(ref.value_at(t))) << what << " t " << t;
      ASSERT_EQ(bits(s.rate_at(t)), bits(ref.rate_at(t))) << what << " t " << t;
    }
    ASSERT_EQ(bits(s.time_when(seg.hw0)), bits(ref.time_when(seg.hw0)))
        << what << " hw " << seg.hw0;
    ASSERT_EQ(bits(s.time_when(std::nextafter(seg.hw0, 0.0))),
              bits(ref.time_when(std::nextafter(seg.hw0, 0.0))))
        << what << " hw " << seg.hw0;
  }
}

TEST(SizedWalk, MatchesEagerReferenceBeforeAtAndPastTheHorizon) {
  for (const WalkShape& w : kShapes) {
    for (double horizon : {0.5, 4.0 + 0.5 / 0.98, 60.0, 250.0}) {
      expect_sized_walk_matches(w, horizon);
    }
  }
}

TEST(SizedWalk, FractionalStepBoundaries) {
  for (const WalkShape& base : kShapes) {
    WalkShape w = base;
    w.step_dt = 0.1;
    for (double horizon : {0.1, 3.3, 12.0}) {
      expect_sized_walk_matches(w, horizon);
    }
  }
}

TEST(SizedWalk, FirstQueryPastTheHorizon) {
  // A first read past the rows is refused, and every read inside them
  // still answers what the reference does.
  for (const WalkShape& w : kShapes) {
    const OneClock s(RateSchedule::random_walk(w.rho, w.step_dt, w.sigma,
                                               w.seed, w.start_rate, 10.0));
    EagerWalk ref(w.rho, w.step_dt, w.sigma, w.seed, w.start_rate);
    EXPECT_THROW(s.time_when(500.0), std::out_of_range);
    EXPECT_THROW(s.value_at(500.0), std::out_of_range);
    const double end = rows_end(w.step_dt, 10.0);
    for (double t = 0.0; t < end; t += 0.37) {
      ASSERT_EQ(bits(s.value_at(t)), bits(ref.value_at(t))) << "t " << t;
      ASSERT_EQ(bits(s.time_when(ref.value_at(t))),
                bits(ref.time_when(ref.value_at(t))))
          << "t " << t;
    }
  }
}

// One case per random_walk argument: each bad value is refused with a
// message naming its field.
TEST(RateSchedule, RandomWalkRejectsBadArguments) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* field;
    double rho, step_dt, sigma, start_rate, sized_until;
  };
  const Bad cases[] = {
      {"rho", nan, 1.0, 0.01, 1.0, 1.0},
      {"rho", -0.1, 1.0, 0.01, 1.0, 1.0},
      {"rho", 1.0, 1.0, 0.01, 1.0, 1.0},
      {"step_dt", 0.05, nan, 0.01, 1.0, 1.0},
      {"step_dt", 0.05, inf, 0.01, 1.0, 1.0},
      {"step_dt", 0.05, 0.0, 0.01, 1.0, 1.0},
      {"sigma", 0.05, 1.0, -0.01, 1.0, 1.0},
      {"sigma", 0.05, 1.0, nan, 1.0, 1.0},
      {"sigma", 0.05, 1.0, inf, 1.0, 1.0},
      {"start_rate", 0.05, 1.0, 0.01, nan, 1.0},
      {"start_rate", 0.05, 1.0, 0.01, inf, 1.0},
      {"sized_until", 0.05, 1.0, 0.01, 1.0, nan},
      {"sized_until", 0.05, 1.0, 0.01, 1.0, -1.0},
      {"sized_until", 0.05, 1.0, 0.01, 1.0, 0.0},
      {"sized_until", 0.05, 1.0, 0.01, 1.0, inf},
  };
  for (const Bad& c : cases) {
    try {
      RateSchedule::random_walk(c.rho, c.step_dt, c.sigma, 1, c.start_rate,
                                c.sized_until);
      ADD_FAILURE() << "accepted a bad " << c.field;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(c.field) + " must"), std::string::npos)
          << what;
    }
  }
  // The edges of the domain are accepted.
  EXPECT_NO_THROW(RateSchedule::random_walk(
      0.0, 1e-3, 0.0, 1, 0.0, std::numeric_limits<double>::denorm_min()));
  EXPECT_NO_THROW(RateSchedule::random_walk(0.5, 1e3, 1.0, 1, -5.0, 1e9));
}

}  // namespace
