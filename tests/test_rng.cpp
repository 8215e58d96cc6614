#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>

namespace {

using gcs::util::Rng;

// The eager twin: what Rng(seed) produced when it held its engine inline.
class EagerRng {
 public:
  explicit EagerRng(std::uint64_t seed) : gen_(seed) {}
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen_);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(gen_);
  }

 private:
  std::mt19937_64 gen_;
};

// Interleaves all three draw kinds so a stream mismatch in any of them
// shifts every later draw.
void expect_same_draws(Rng& lazy, EagerRng& eager, int count) {
  for (int i = 0; i < count; ++i) {
    switch (i % 3) {
      case 0:
        ASSERT_EQ(lazy.uniform(-1.0, 2.0), eager.uniform(-1.0, 2.0)) << i;
        break;
      case 1:
        ASSERT_EQ(lazy.uniform_int(3, 1000), eager.uniform_int(3, 1000)) << i;
        break;
      default:
        ASSERT_EQ(lazy.normal(0.5, 0.25), eager.normal(0.5, 0.25)) << i;
        break;
    }
  }
}

TEST(Rng, LazyEngineMatchesEagerMersenneTwister) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xFFFFFFFFFFFFFFFFull}) {
    Rng lazy(seed);
    EagerRng eager(seed);
    expect_same_draws(lazy, eager, 300);
  }
}

TEST(Rng, DefaultSeedIsOne) {
  Rng lazy;
  EagerRng eager(1);
  expect_same_draws(lazy, eager, 30);
}

TEST(Rng, StreamSurvivesMoveBeforeAndAfterFirstDraw) {
  // Moved before any draw: the seed travels, the engine is still unborn.
  Rng unborn(77);
  Rng moved_early = std::move(unborn);
  EagerRng eager_early(77);
  expect_same_draws(moved_early, eager_early, 90);

  // Moved mid-stream: the engine's position travels with it.
  Rng started(78);
  EagerRng eager_mid(78);
  expect_same_draws(started, eager_mid, 31);
  Rng moved_mid = std::move(started);
  expect_same_draws(moved_mid, eager_mid, 90);

  // Move-assignment over an Rng that already drew from another seed.
  Rng target(5);
  target.uniform(0.0, 1.0);
  target = std::move(moved_mid);
  expect_same_draws(target, eager_mid, 90);
}

// The splitmix64 outputs every trajectory in the repo depends on: stream
// 0 seeds each cell's scenario generator, stream i node i's delay stream
// in sharded mode.  (0, 0) is splitmix64's first output from state 0.
TEST(Rng, MixSeedPinsSplitmix64) {
  using gcs::util::mix_seed;
  EXPECT_EQ(mix_seed(0, 0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(mix_seed(1, 0), 0x910A2DEC89025CC1ull);
  EXPECT_EQ(mix_seed(42, 0), 0xBDD732262FEB6E95ull);
  EXPECT_EQ(mix_seed(1, 1), 0xBEEB8DA1658EEC67ull);
  EXPECT_EQ(mix_seed(1, 7), 0x85E7BB0F12278575ull);
  EXPECT_EQ(mix_seed(0xFFFFFFFFFFFFFFFFull, 3), 0x6D1DB36CCBA982D2ull);
  static_assert(mix_seed(0, 0) == 0xE220A8397B1DCDAFull);
}

}  // namespace
