#include "clk/clock.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/lazy_mt.hpp"

namespace gcs::clk {

namespace {

[[noreturn]] void throw_domain(const char* fn, const char* arg, double x) {
  std::ostringstream msg;
  msg << "ClockTable::" << fn << ": " << arg
      << " must be finite and >= 0, got " << x;
  throw std::invalid_argument(msg.str());
}

// False for NaN and +-inf.
bool finite_at_least(double x, double lo) {
  return x >= lo && x <= std::numeric_limits<double>::max();
}

// Rejects what would otherwise walk off the front of a row (negative,
// NaN), and names +inf as out of the domain, not as a read past the rows.
void check_domain(const char* fn, const char* arg, double x) {
  if (!finite_at_least(x, 0.0)) throw_domain(fn, arg, x);
}

// One walk step.  A fresh distribution per draw (one that lived across
// draws would cache the second value of each generated pair), so every
// step is the first value of a fresh std::normal_distribution on the
// walk's stream: the draws that decide the row's bytes, and that
// tests/eager_walk.hpp reproduces.
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
    msg << "sized_until must be finite and > 0, got " << sized_until;
  }
  throw std::invalid_argument(msg.str());
}

}  // namespace

RateSchedule::RateSchedule(double rate) : rate_(rate) {
  if (!(rate > 0.0 && std::isfinite(rate))) {
    std::ostringstream msg;
    msg << "RateSchedule: rate must be finite and > 0, got " << rate;
    throw std::invalid_argument(msg.str());
  }
}

RateSchedule RateSchedule::random_walk(double rho, double step_dt, double sigma,
                                       std::uint64_t seed, double start_rate,
                                       double sized_until) {
  if (!(rho >= 0.0 && rho < 1.0 && step_dt > 0.0 &&
        finite_at_least(step_dt, 0.0) && finite_at_least(sigma, 0.0) &&
        std::isfinite(start_rate) && sized_until > 0.0 &&
        std::isfinite(sized_until))) {
    throw_bad_walk(rho, step_dt, sigma, start_rate, sized_until);
  }
  RateSchedule s(std::clamp(start_rate, 1.0 - rho, 1.0 + rho));
  s.walk_ = true;
  s.rho_ = rho;
  s.step_dt_ = step_dt;
  s.sigma_ = sigma;
  s.sized_until_ = sized_until;
  s.seed_ = seed;
  return s;
}

// ---------------------------------------------------------------------------
// ClockTable
// ---------------------------------------------------------------------------

ClockTable::ClockTable(const std::vector<RateSchedule>& schedules) {
  const std::size_t n = schedules.size();
  keys_.resize(n);
  std::vector<std::uint32_t> shape_of(n);
  for (std::size_t u = 0; u < n; ++u) {
    const RateSchedule& r = schedules[u];
    Shape want;
    want.walk = r.walk();
    if (r.walk()) {
      want.rho = r.rho();
      want.step_dt = r.step_dt();
      want.sigma = r.sigma();
      want.rate0 = r.rate();
      keys_[u] = r.seed();
    } else {
      const double rate = r.rate();
      std::memcpy(&keys_[u], &rate, sizeof rate);
    }
    const auto same = [&want](const Shape& s) {
      return s.walk == want.walk &&
             (!want.walk ||
              (s.rho == want.rho && s.step_dt == want.step_dt &&
               s.sigma == want.sigma && s.rate0 == want.rate0));
    };
    // Schedules usually come in runs of one shape: try the last first.
    std::size_t k;
    if (u > 0 && same(shapes_[shape_of[u - 1]])) {
      k = shape_of[u - 1];
    } else {
      k = static_cast<std::size_t>(
          std::find_if(shapes_.begin(), shapes_.end(), same) - shapes_.begin());
    }
    if (k == shapes_.size()) shapes_.push_back(want);
    shape_of[u] = static_cast<std::uint32_t>(k);
    if (r.walk()) {
      shapes_[k].sized = std::max(shapes_[k].sized, r.sized_until());
    }
  }
  if (shapes_.size() > 1) shape_of_ = std::move(shape_of);
  // The row width: the segments past the first that a walk reaches
  // (every segment with t0 <= sized_until), at the widest shape.
  for (const Shape& s : shapes_) {
    if (!s.walk) continue;
    if (!(s.sized / s.step_dt < 1e9)) {
      throw std::length_error(
          "ClockTable: sized_until / step_dt must be < 1e9 segments");
    }
    double t0 = 0.0;
    std::size_t w = 0;
    while (!(s.sized < t0 + s.step_dt)) {
      t0 += s.step_dt;
      ++w;
    }
    width_ = std::max(width_, w);
  }
  for (Shape& s : shapes_) {
    if (!s.walk) continue;
    s.inv_step = 1.0 / s.step_dt;
    s.end_v0 = s.rate0 * s.step_dt;
    s.t0.resize(width_ + 1);
    s.t0[0] = 0.0;
    for (std::size_t k = 1; k <= width_; ++k) s.t0[k] = s.t0[k - 1] + s.step_dt;
    s.end_t = s.t0[width_] + s.step_dt;
  }
  if (width_ > 0 && n > 0) {
    // calloc, not a value-initialized array: large zeroed allocations come
    // straight from the kernel, so no page is touched until a row fills.
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(Cell) / width_) {
      throw std::bad_alloc();
    }
    rows_.reset(static_cast<Cell*>(std::calloc(n * width_, sizeof(Cell))));
    if (!rows_) throw std::bad_alloc();
  }
}

double ClockTable::constant_rate(std::size_t u) const {
  double rate;
  std::memcpy(&rate, &keys_[u], sizeof rate);
  return rate;
}

void ClockTable::fill(std::size_t u, const Shape& s) const {
  util::LazyMt19937_64 gen(keys_[u]);
  const std::size_t n = keys_.size();
  Cell* row = rows_.get() + u;  // segment k + 1 at row[k * n]
  // The walk's recurrence: each segment's start reading extends the
  // previous one's, and its rate takes one clamped step.
  Cell seg{0.0, s.rate0};
  for (std::size_t k = 0; k < width_; ++k) {
    const double hw0 = seg.hw0 + seg.rate * s.step_dt;
    seg = Cell{hw0, std::clamp(seg.rate + draw_step(gen, s.sigma),
                               1.0 - s.rho, 1.0 + s.rho)};
    row[k * n] = seg;
  }
  filled_.fetch_add(1, std::memory_order_relaxed);
}

void ClockTable::throw_past_rows(const char* fn, std::size_t u,
                                 const char* arg, double x) const {
  std::ostringstream msg;
  msg << "ClockTable::" << fn << ": node " << u << " read at " << arg << " = "
      << x << ", past its walk's sized horizon " << shape(u).sized
      << " (size the walk to the last time the run reads)";
  throw std::out_of_range(msg.str());
}

double ClockTable::value_at_slow(std::size_t u, double t) const {
  check_domain("value_at", "t", t);
  const Shape& s = shape(u);
  if (!s.walk) return value_on(0.0, 0.0, constant_rate(u), t);
  throw_past_rows("value_at", u, "t", t);
}

double ClockTable::rate_at(std::size_t u, double t) const {
  check_domain("rate_at", "t", t);
  const Shape& s = shape(u);
  if (!s.walk) return constant_rate(u);
  if (!(t < s.end_t)) throw_past_rows("rate_at", u, "t", t);
  const std::size_t k = segment_at(s, t);
  return k == 0 ? s.rate0 : cell(u, s, k).rate;
}

double ClockTable::time_when(std::size_t u, double value) const {
  check_domain("time_when", "value", value);
  const Shape& s = shape(u);
  if (!s.walk) return time_on(0.0, 0.0, constant_rate(u), value);
  if (value < s.end_v0) return time_on(0.0, 0.0, s.rate0, value);
  if (width_ > 0) {
    // Segment k starts near clock value k * step_dt (rates stay within
    // 1 +- rho), so guess k from the value and step to the last segment
    // k in [1, width_] whose hw0 <= value: segment 1 starts at end_v0 <=
    // value, and hw0s increase with k.  The row's cells sit n apart; the
    // read of the guessed cell fills the row if needed, so the search
    // usually touches that one cell and its successor.
    const std::size_t n = keys_.size();
    const double guess = value * s.inv_step;
    std::size_t k = guess < 1.0 ? 1
                    : guess < static_cast<double>(width_)
                        ? static_cast<std::size_t>(guess)
                        : width_;
    // Segment k's cell is row[(k - 1) * n].
    const Cell* row = &cell(u, s, k) - (k - 1) * n;
    while (k > 1 && row[(k - 1) * n].hw0 > value) --k;
    while (k < width_ && row[k * n].hw0 <= value) ++k;
    const Cell& c = row[(k - 1) * n];
    // Below a later segment's start, or on the last segment before its
    // end: inside the row.
    if (k < width_ || value < c.hw0 + c.rate * s.step_dt) {
      return time_on(s.t0[k], c.hw0, c.rate, value);
    }
  }
  throw_past_rows("time_when", u, "value", value);
}

}  // namespace gcs::clk
