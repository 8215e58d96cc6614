// The reference walk the clock tests check clk::ClockTable against: one
// resident std::mt19937_64 per walk, extended one segment per draw, with
// none of the table's shared grid, time-major rows or lazy engine.  The
// table must reproduce its segments, and hence every answer, bit for bit.
#ifndef GCS_TESTS_EAGER_WALK_HPP
#define GCS_TESTS_EAGER_WALK_HPP

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

namespace gcs::test {

class EagerWalk {
 public:
  struct Seg {
    double t0;
    double hw0;
    double rate;
  };

  EagerWalk(double rho, double step_dt, double sigma, std::uint64_t seed,
            double start_rate = 1.0)
      : lo_(1.0 - rho),
        hi_(1.0 + rho),
        step_dt_(step_dt),
        sigma_(sigma),
        gen_(seed) {
    segs_.push_back(Seg{0.0, 0.0, std::clamp(start_rate, lo_, hi_)});
  }

  double value_at(double t) {
    const Seg& s = at_time(t);
    return s.hw0 + s.rate * (t - s.t0);
  }

  double time_when(double v) {
    while (segs_.back().hw0 + segs_.back().rate * step_dt_ <= v) push();
    auto it = std::upper_bound(segs_.begin(), segs_.end(), v,
                               [](double x, const Seg& s) { return x < s.hw0; });
    const Seg& s = *std::prev(it);
    return s.t0 + (v - s.hw0) / s.rate;
  }

  double rate_at(double t) { return at_time(t).rate; }

  // The segments generated so far (at least those covering t <= `t`).
  const std::vector<Seg>& segments_through(double t) {
    at_time(t);
    return segs_;
  }

 private:
  const Seg& at_time(double t) {
    while (segs_.back().t0 + step_dt_ <= t) push();
    auto it = std::upper_bound(segs_.begin(), segs_.end(), t,
                               [](double x, const Seg& s) { return x < s.t0; });
    return *std::prev(it);
  }

  void push() {
    const Seg& last = segs_.back();
    std::normal_distribution<double> step(0.0, sigma_);
    const double next_rate = std::clamp(last.rate + step(gen_), lo_, hi_);
    segs_.push_back(
        Seg{last.t0 + step_dt_, last.hw0 + last.rate * step_dt_, next_rate});
  }

  std::vector<Seg> segs_;
  double lo_;
  double hi_;
  double step_dt_;
  double sigma_;
  std::mt19937_64 gen_;
};

}  // namespace gcs::test

#endif  // GCS_TESTS_EAGER_WALK_HPP
