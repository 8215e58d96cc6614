#include "core/bfunc.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/params.hpp"

namespace {

gcs::core::SyncParams paper_params() {
  gcs::core::SyncParams p;
  p.n = 32;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.5;
  p.delta_h = 0.5;
  return p;
}

TEST(SyncParams, DerivedQuantities) {
  const auto p = paper_params();
  EXPECT_DOUBLE_EQ(p.tau(), 3.5);
  EXPECT_DOUBLE_EQ(p.min_b0(), 4.0 * 1.05 * 3.5);
  // Unset B0 resolves to the floor; explicit B0 below the floor is clamped.
  EXPECT_DOUBLE_EQ(p.effective_b0(), p.min_b0());
  auto q = p;
  q.B0 = p.min_b0() * 2.0;
  EXPECT_DOUBLE_EQ(q.effective_b0(), 2.0 * p.min_b0());
  q.B0 = p.min_b0() / 2.0;
  EXPECT_DOUBLE_EQ(q.effective_b0(), p.min_b0());
  EXPECT_GT(p.global_skew_bound(), 0.0);
}

// Lemma 6.10's precondition: the initial tolerance exceeds the global skew
// bound, so whatever skew two endpoints accumulated while disconnected
// fits under B(0) and a new edge can never block.
TEST(BFunction, NewEdgeNeverBlocks) {
  const auto p = paper_params();
  const gcs::core::BFunction b(p);
  EXPECT_GT(b(0.0), p.global_skew_bound());
  EXPECT_DOUBLE_EQ(b.initial(), p.effective_b0() + p.global_skew_bound());
}

TEST(BFunction, MonotoneDecayToFloor) {
  const auto p = paper_params();
  const gcs::core::BFunction b(p);
  double prev = b(0.0);
  for (double age = 0.0; age <= b.decay_age() * 1.5; age += 1.0) {
    const double cur = b(age);
    EXPECT_LE(cur, prev) << "B must be non-increasing (age " << age << ")";
    EXPECT_GE(cur, b.floor());
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(b(b.decay_age()), b.floor());
  EXPECT_DOUBLE_EQ(b(b.decay_age() * 10.0), b.floor());
}

TEST(BFunction, GracePeriodBeforeDecay) {
  const gcs::core::BFunction b(/*b0=*/10.0, /*g=*/50.0, /*tau=*/3.0,
                               /*rho=*/0.1);
  EXPECT_DOUBLE_EQ(b(0.0), 60.0);
  EXPECT_DOUBLE_EQ(b(3.0), 60.0);  // no decay inside the grace window
  EXPECT_DOUBLE_EQ(b(13.0), 60.0 - 0.1 * 10.0);
  EXPECT_DOUBLE_EQ(b.decay_age(), 3.0 + 50.0 / 0.1);
}

TEST(BFunction, DecayRateIsRho) {
  const auto p = paper_params();
  const gcs::core::BFunction b(p);
  const double a0 = p.tau() + 10.0;
  const double a1 = a0 + 7.0;
  EXPECT_NEAR(b(a0) - b(a1), p.rho * 7.0, 1e-12);
}

TEST(BFunction, RejectsBadParameters) {
  EXPECT_THROW(gcs::core::BFunction(0.0, 1.0, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(gcs::core::BFunction(1.0, -1.0, 1.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW(gcs::core::BFunction(1.0, 1.0, 1.0, 0.0), std::invalid_argument);
  // A NaN fails every range test, whichever argument carries it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(gcs::core::BFunction(nan, 1.0, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(gcs::core::BFunction(1.0, nan, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(gcs::core::BFunction(1.0, 1.0, nan, 0.1), std::invalid_argument);
  EXPECT_THROW(gcs::core::BFunction(1.0, 1.0, 1.0, nan), std::invalid_argument);
}

}  // namespace
