#include "clk/clock.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/lazy_mt.hpp"

namespace gcs::clk {

namespace {

[[noreturn]] void throw_domain(const char* fn, const char* arg, double x) {
  std::ostringstream msg;
  msg << "RateSchedule::" << fn << ": " << arg
      << " must be finite and >= 0, got " << x;
  throw std::invalid_argument(msg.str());
}

// False for NaN and +-inf.
bool finite_at_least(double x, double lo) {
  return x >= lo && x <= std::numeric_limits<double>::max();
}

// Rejects what would otherwise walk off the front of the segment table
// (negative, NaN) or extend a walk forever (+inf).
void check_domain(const char* fn, const char* arg, double x) {
  if (!finite_at_least(x, 0.0)) throw_domain(fn, arg, x);
}

// One walk step.  A fresh distribution per draw, so the number of engine
// outputs a draw consumes depends only on the engine's state: replaying k
// draws from the seed puts the engine exactly where draw k+1 expects it.
double draw_step(util::LazyMt19937_64& gen, double sigma) {
  std::normal_distribution<double> step(0.0, sigma);
  return step(gen);
}

// Names the first bad random_walk argument.  Every comparison is written
// to fail on NaN: a NaN sigma would turn every reading into NaN, a
// negative one breaks normal_distribution's precondition, and sizing
// divides by step_dt.
[[noreturn]] void throw_bad_walk(double rho, double step_dt, double sigma,
                                 double start_rate, double sized_until) {
  std::ostringstream msg;
  msg << "random_walk: ";
  if (!(rho >= 0.0 && rho < 1.0)) {
    msg << "rho must be in [0, 1), got " << rho;
  } else if (!(step_dt > 0.0 && finite_at_least(step_dt, 0.0))) {
    msg << "step_dt must be finite and > 0, got " << step_dt;
  } else if (!finite_at_least(sigma, 0.0)) {
    msg << "sigma must be finite and >= 0, got " << sigma;
  } else if (!std::isfinite(start_rate)) {
    msg << "start_rate must be finite, got " << start_rate;
  } else {
    msg << "sized_until must be finite and >= 0, got " << sized_until;
  }
  throw std::invalid_argument(msg.str());
}

}  // namespace

RateSchedule::RateSchedule(double rate)
    : end_t_(std::numeric_limits<double>::infinity()),
      end_v_(std::numeric_limits<double>::infinity()) {
  if (rate <= 0.0) throw std::invalid_argument("clock rate must be positive");
  segments_.push_back(Segment{0.0, 0.0, rate});
}

RateSchedule RateSchedule::random_walk(double rho, double step_dt, double sigma,
                                       std::uint64_t seed, double start_rate,
                                       double sized_until) {
  if (!(rho >= 0.0 && rho < 1.0 && step_dt > 0.0 &&
        finite_at_least(step_dt, 0.0) && finite_at_least(sigma, 0.0) &&
        std::isfinite(start_rate) && finite_at_least(sized_until, 0.0))) {
    throw_bad_walk(rho, step_dt, sigma, start_rate, sized_until);
  }
  RateSchedule s(std::clamp(start_rate, 1.0 - rho, 1.0 + rho));
  s.walk_ = true;
  s.rho_ = rho;
  s.step_dt_ = step_dt;
  s.sigma_ = sigma;
  s.sized_until_ = sized_until;
  s.seed_ = seed;
  s.end_t_ = step_dt;
  s.end_v_ = s.segments_[0].rate * step_dt;
  return s;
}

template <class Covered>
void RateSchedule::extend(Covered covered) const {
  if (!walk_ || covered()) return;
  util::LazyMt19937_64 gen(seed_);
  const std::size_t have = segments_.size();
  for (std::size_t i = 1; i < have; ++i) draw_step(gen, sigma_);
  // The first extension runs to sized_until_, reserving one segment of
  // headroom for the accumulated t0s drifting from exact multiples of
  // step_dt (the reserve is only a hint; a count too large to be one is
  // left to grow).  Later ones at least double the table, so replays
  // stay amortized O(1).
  const bool sized = have == 1 && sized_until_ > 0.0;
  const std::size_t want = sized ? 1 : have + std::max(kMinChunk, have);
  const double estimate = sized_until_ / step_dt_ + 2.0;
  if (!sized) {
    segments_.reserve(want);
  } else if (estimate < 1e8) {
    segments_.reserve(static_cast<std::size_t>(estimate));
  }
  while (segments_.size() < want || (sized && !(sized_until_ < end_t_)) ||
         !covered()) {
    const Segment& last = segments_.back();
    const double next_rate = std::clamp(last.rate + draw_step(gen, sigma_),
                                        1.0 - rho_, 1.0 + rho_);
    segments_.push_back(Segment{last.t0 + step_dt_,
                                last.hw0 + last.rate * step_dt_, next_rate});
    const Segment& s = segments_.back();
    end_t_ = s.t0 + step_dt_;
    end_v_ = s.hw0 + s.rate * step_dt_;
  }
}

void RateSchedule::extend_to_time(double t) const {
  extend([this, t] { return t < end_t_; });
}

void RateSchedule::extend_to_value(double v) const {
  extend([this, v] { return v < end_v_; });
}

std::size_t RateSchedule::segment_at(double t) const {
  const std::size_t last = segments_.size() - 1;
  if (last == 0) return 0;  // constant, or a walk not yet extended
  const double guess = t / step_dt_;
  std::size_t k = guess < static_cast<double>(last)
                      ? static_cast<std::size_t>(guess)
                      : last;
  while (k < last && segments_[k + 1].t0 <= t) ++k;
  while (segments_[k].t0 > t) --k;
  return k;
}

double RateSchedule::rate_at(double t) const {
  check_domain("rate_at", "t", t);
  if (!(t < end_t_)) extend_to_time(t);
  return segments_[segment_at(t)].rate;
}

double RateSchedule::value_at(double t) const {
  check_domain("value_at", "t", t);
  if (!(t < end_t_)) extend_to_time(t);
  const Segment& s = segments_[segment_at(t)];
  return s.hw0 + s.rate * (t - s.t0);
}

double RateSchedule::time_when(double value) const {
  check_domain("time_when", "value", value);
  if (!(value < end_v_)) extend_to_value(value);
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), value,
      [](double v, const Segment& s) { return v < s.hw0; });
  const Segment& s = *std::prev(it);
  return s.t0 + (value - s.hw0) / s.rate;
}

}  // namespace gcs::clk
