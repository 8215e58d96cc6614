// gcs::util -- an MT19937-64 that does only the work its draws need.
//
// std::mt19937_64 seeds all 312 state words up front and twists all 312
// on the first draw, ~624 word updates before it returns anything.  A
// random-walk clock row sized to a typical run needs only a dozen or so
// draws from its node's seed, so that fixed cost would dominate the
// row's fill (once per node, up to 10^6 nodes).  LazyMt19937_64 produces
// exactly std::mt19937_64's output sequence, bit for bit, but computes
// the first generation word by word: output k needs twisted word k,
// which needs seeded words k, k+1 and k+156 (and, from word 156 on,
// twisted words already produced).  The first k outputs therefore
// cost about 156 + 2k word updates.  From the 313th output on it twists
// whole generations, as the standard engine does.
//
// Its state lives inline (2.5 KB, left uninitialized until used), so it
// is meant as a short-lived local, not a member.
#ifndef GCS_UTIL_LAZY_MT_HPP
#define GCS_UTIL_LAZY_MT_HPP

#include <cstddef>
#include <cstdint>

namespace gcs::util {

class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }
  LazyMt19937_64(const LazyMt19937_64&) = delete;
  LazyMt19937_64& operator=(const LazyMt19937_64&) = delete;

  result_type operator()() {
    if (next_ == ready_) make_word();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;

  // Makes word next_ of the current generation ready.
  void make_word() {
    if (next_ == kN) {
      // Every later generation is twisted whole, from a fully seeded
      // (and fully twisted) previous one.
      for (std::size_t k = 0; k < kN; ++k) twist(k);
      next_ = 0;
      return;
    }
    // First generation: seed exactly what twisting word next_ reads.
    const std::size_t need = next_ + kM + 1 < kN ? next_ + kM + 1 : kN;
    for (; seeded_ < need; ++seeded_) {
      const result_type prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
    }
    twist(next_);
    ++ready_;
  }

  // The standard in-place twist of word k: it reads the old words k and
  // k+1 and word k+156 mod 312, which for k >= 156 (and word 0 for the
  // last k) has already been twisted -- exactly as in a full pass.
  void twist(std::size_t k) {
    const result_type y =
        (x_[k] & kUpper) | (x_[k + 1 < kN ? k + 1 : 0] & kLower);
    x_[k] = x_[k + kM < kN ? k + kM : k + kM - kN] ^ (y >> 1) ^
            ((y & 1) ? 0xB5026F5AA96619E9ULL : 0);
  }

  result_type x_[kN];
  std::size_t seeded_ = 1;  // x_[0, seeded_) hold seeded first-generation words
  std::size_t ready_ = 0;   // x_[0, ready_) hold twisted current-generation words
  std::size_t next_ = 0;    // next word to temper and return
};

}  // namespace gcs::util

#endif  // GCS_UTIL_LAZY_MT_HPP
