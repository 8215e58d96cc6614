#include "clk/clock.hpp"

#include <algorithm>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gcs::clk {

namespace {

[[noreturn]] void throw_domain(const char* fn, const char* arg, double x) {
  std::ostringstream msg;
  msg << "RateSchedule::" << fn << ": " << arg
      << " must be finite and >= 0, got " << x;
  throw std::invalid_argument(msg.str());
}

// Rejects what would otherwise walk off the front of the segment table
// (negative, NaN) or extend a walk forever (+inf).
void check_domain(const char* fn, const char* arg, double x) {
  if (!(x >= 0.0 && x <= std::numeric_limits<double>::max())) {
    throw_domain(fn, arg, x);
  }
}

// One walk step.  A fresh distribution per draw, so the number of engine
// outputs a draw consumes depends only on the engine's state: replaying k
// draws from the seed puts the engine exactly where draw k+1 expects it.
double draw_step(std::mt19937_64& gen, double sigma) {
  std::normal_distribution<double> step(0.0, sigma);
  return step(gen);
}

}  // namespace

RateSchedule::RateSchedule(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("clock rate must be positive");
  segments_.push_back(Segment{0.0, 0.0, rate});
}

RateSchedule RateSchedule::random_walk(double rho, double step_dt, double sigma,
                                       std::uint64_t seed, double start_rate) {
  if (rho < 0.0 || rho >= 1.0) {
    throw std::invalid_argument("random_walk: rho must be in [0, 1)");
  }
  if (step_dt <= 0.0) {
    throw std::invalid_argument("random_walk: step_dt must be positive");
  }
  RateSchedule s(std::clamp(start_rate, 1.0 - rho, 1.0 + rho));
  s.walk_ = true;
  s.lo_ = 1.0 - rho;
  s.hi_ = 1.0 + rho;
  s.step_dt_ = step_dt;
  s.sigma_ = sigma;
  s.seed_ = seed;
  return s;
}

template <class Covered>
void RateSchedule::extend(Covered covered) const {
  if (!walk_ || covered(segments_.back())) return;
  std::mt19937_64 gen(seed_);
  for (std::size_t i = 1; i < segments_.size(); ++i) draw_step(gen, sigma_);
  const std::size_t want =
      segments_.size() + std::max(kMinChunk, segments_.size());
  segments_.reserve(want);
  while (segments_.size() < want || !covered(segments_.back())) {
    const Segment& last = segments_.back();
    const double next_rate =
        std::clamp(last.rate + draw_step(gen, sigma_), lo_, hi_);
    segments_.push_back(Segment{last.t0 + step_dt_,
                                last.hw0 + last.rate * step_dt_, next_rate});
  }
}

void RateSchedule::extend_to_time(double t) const {
  extend([this, t](const Segment& s) { return !(s.t0 + step_dt_ <= t); });
}

void RateSchedule::extend_to_value(double v) const {
  extend([this, v](const Segment& s) {
    return !(s.hw0 + s.rate * step_dt_ <= v);
  });
}

double RateSchedule::rate_at(double t) const {
  check_domain("rate_at", "t", t);
  extend_to_time(t);
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](double x, const Segment& s) { return x < s.t0; });
  return std::prev(it)->rate;
}

double RateSchedule::value_at(double t) const {
  check_domain("value_at", "t", t);
  extend_to_time(t);
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](double x, const Segment& s) { return x < s.t0; });
  const Segment& s = *std::prev(it);
  return s.hw0 + s.rate * (t - s.t0);
}

double RateSchedule::time_when(double value) const {
  check_domain("time_when", "value", value);
  extend_to_value(value);
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), value,
      [](double v, const Segment& s) { return v < s.hw0; });
  const Segment& s = *std::prev(it);
  return s.t0 + (value - s.hw0) / s.rate;
}

}  // namespace gcs::clk
