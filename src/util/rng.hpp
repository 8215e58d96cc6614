// gcs::util -- small deterministic RNG wrapper shared by scenario
// generators, delay models, and drift schedules.  All randomness in a run
// flows through explicitly seeded Rng instances so that experiments are
// reproducible event-for-event.
//
// The 2.5 KB engine is created on the first draw, so an Rng nobody draws
// from (a per-node delay stream under a constant delay) costs 16 bytes.
// The streams are those of std::mt19937_64(seed) either way.
#ifndef GCS_UTIL_RNG_HPP
#define GCS_UTIL_RNG_HPP

#include <cstdint>
#include <memory>
#include <random>

namespace gcs::util {

// splitmix64 finalizer over seed + golden-ratio * (stream + 1): one
// well-mixed 64-bit seed per (seed, stream), so streams drawn from one
// seed are decorrelated from each other and from the raw seed.  The
// simulator keys each node's delay stream on it in sharded mode; the
// campaign seeds each cell's scenario generator with stream 0.
constexpr std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : seed_(seed) {}

  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine());
  }

  // Inclusive on both ends.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
    return dist(engine());
  }

  double normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine());
  }

 private:
  std::mt19937_64& engine() {
    if (!gen_) gen_ = std::make_unique<std::mt19937_64>(seed_);
    return *gen_;
  }

  std::uint64_t seed_;
  std::unique_ptr<std::mt19937_64> gen_;
};

}  // namespace gcs::util

#endif  // GCS_UTIL_RNG_HPP
