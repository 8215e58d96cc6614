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
// NaN) or grow a spill list forever (+inf).
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

// The walk's recurrence: the segment after `last`, whose rate took one
// step.  Row fills and spill lists both generate segments through it, so
// they agree bit for bit.
Segment next_segment(const Segment& last, util::LazyMt19937_64& gen,
                     double rho, double step_dt, double sigma) {
  const double next_rate =
      std::clamp(last.rate + draw_step(gen, sigma), 1.0 - rho, 1.0 + rho);
  return Segment{last.t0 + step_dt, last.hw0 + last.rate * step_dt, next_rate};
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
  return s;
}

// ---------------------------------------------------------------------------
// ClockTable
// ---------------------------------------------------------------------------

ClockTable::ClockTable(const std::vector<RateSchedule>& schedules) {
  const std::size_t n = schedules.size();
  keys_.resize(n);
  std::vector<std::uint32_t> shape_of(n);
  // Per shape, the largest sized_until among its walks (0 = none sized).
  std::vector<double> sized;
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
    if (k == shapes_.size()) {
      shapes_.push_back(want);
      sized.push_back(0.0);
    }
    shape_of[u] = static_cast<std::uint32_t>(k);
    if (r.walk()) sized[k] = std::max(sized[k], r.sized_until());
  }
  if (shapes_.size() > 1) shape_of_ = std::move(shape_of);
  // The row width: the segments past the first that a sized walk reaches
  // (every segment with t0 <= sized_until), at the widest shape;
  // kMinChunk when no walk was sized.
  for (std::size_t k = 0; k < shapes_.size(); ++k) {
    const Shape& s = shapes_[k];
    if (!s.walk) continue;
    std::size_t w = kMinChunk;
    if (sized[k] > 0.0) {
      if (!(sized[k] / s.step_dt < 1e9)) {
        throw std::length_error(
            "ClockTable: sized_until / step_dt must be < 1e9 segments");
      }
      double t0 = 0.0;
      w = 0;
      while (!(sized[k] < t0 + s.step_dt)) {
        t0 += s.step_dt;
        ++w;
      }
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
  Segment seg{0.0, 0.0, s.rate0};
  for (std::size_t k = 0; k < width_; ++k) {
    seg = next_segment(seg, gen, s.rho, s.step_dt, s.sigma);
    row[k * n] = Cell{seg.hw0, seg.rate};
  }
  filled_.fetch_add(1, std::memory_order_relaxed);
}

template <class Covered>
std::vector<Segment>& ClockTable::spill(std::size_t u, const Shape& s,
                                        Covered covered) const {
  std::vector<Segment>* list;
  {
    // Only the map's structure is shared; u's list is its reader's.
    const std::lock_guard<std::mutex> lock(spill_mu_);
    list = &spills_[u];
  }
  if (!list->empty() && covered(list->back())) return *list;
  // Continue the walk from its last segment, the list's or the row's:
  // replay the draws used so far on a fresh engine, then append at least
  // as many segments as the walk has.
  Segment last{0.0, 0.0, s.rate0};
  if (!list->empty()) {
    last = list->back();
  } else if (width_ > 0) {
    const Cell& c = cell(u, s, width_);
    last = Segment{s.t0[width_], c.hw0, c.rate};
  }
  util::LazyMt19937_64 gen(keys_[u]);
  const std::size_t have = 1 + width_ + list->size();
  for (std::size_t i = 1; i < have; ++i) draw_step(gen, s.sigma);
  const std::size_t want = list->size() + std::max(kMinChunk, have);
  list->reserve(want);
  do {
    last = next_segment(last, gen, s.rho, s.step_dt, s.sigma);
    list->push_back(last);
  } while (list->size() < want || !covered(last));
  return *list;
}

Segment ClockTable::spill_at_time(std::size_t u, const Shape& s,
                                  double t) const {
  const std::vector<Segment>& list = spill(
      u, s, [&s, t](const Segment& g) { return t < g.t0 + s.step_dt; });
  // list[0].t0 == s.end_t <= t, so the segment before the first later
  // start exists.
  const auto it = std::upper_bound(
      list.begin(), list.end(), t,
      [](double x, const Segment& g) { return x < g.t0; });
  return *std::prev(it);
}

Segment ClockTable::spill_at_value(std::size_t u, const Shape& s,
                                   double v) const {
  const std::vector<Segment>& list =
      spill(u, s, [&s, v](const Segment& g) {
        return v < g.hw0 + g.rate * s.step_dt;
      });
  const auto it = std::upper_bound(
      list.begin(), list.end(), v,
      [](double x, const Segment& g) { return x < g.hw0; });
  return *std::prev(it);
}

double ClockTable::value_at_slow(std::size_t u, double t) const {
  check_domain("value_at", "t", t);
  const Shape& s = shape(u);
  if (!s.walk) return value_on(0.0, 0.0, constant_rate(u), t);
  const Segment g = spill_at_time(u, s, t);
  return value_on(g.t0, g.hw0, g.rate, t);
}

double ClockTable::rate_at(std::size_t u, double t) const {
  check_domain("rate_at", "t", t);
  const Shape& s = shape(u);
  if (!s.walk) return constant_rate(u);
  if (t < s.end_t) {
    const std::size_t k = segment_at(s, t);
    return k == 0 ? s.rate0 : cell(u, s, k).rate;
  }
  return spill_at_time(u, s, t).rate;
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
  const Segment g = spill_at_value(u, s, value);
  return time_on(g.t0, g.hw0, g.rate, value);
}

}  // namespace gcs::clk
