// gcs::clk -- hardware clocks with bounded drift.
//
// The paper's model (Sec. 3): every node has a hardware clock whose rate
// stays within [1 - rho, 1 + rho] of real time.  Nodes never see real
// time; every timeout and edge age in the algorithm layer is measured on
// these clocks.  A clock starts at value 0 at real time 0 and follows a
// piecewise-constant rate trajectory: a single constant rate, or a seeded
// random walk clamped to the drift bounds.
//
// A RateSchedule describes one such clock: its rate, or its walk's
// parameters and seed.  It is a few trivially copyable fields and
// evaluates nothing.  ClockTable (below) evaluates every node's clock in
// both directions: value_at(real time) and time_when(clock value) (the
// latter is what the simulator uses to schedule "every delta_h of
// hardware time" broadcasts as real-time events).  Rates are strictly
// positive, so every clock is strictly increasing and invertible.
#ifndef GCS_CLK_CLOCK_HPP
#define GCS_CLK_CLOCK_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

namespace gcs::clk {

// The clock reading at real time t, and the real time at which it reads
// v, of the segment that starts at (t0, hw0) and runs at `rate`.
// ClockTable evaluates every segment through these.
inline double value_on(double t0, double hw0, double rate, double t) {
  return hw0 + rate * (t - t0);
}
inline double time_on(double t0, double hw0, double rate, double v) {
  return t0 + (v - hw0) / rate;
}

class RateSchedule {
 public:
  // Constant-rate clock.  The drift model expects the rate in
  // [1 - rho, 1 + rho], but this is not enforced here so tests can build
  // degenerate clocks.  Throws std::invalid_argument, naming the value,
  // unless rate is finite and > 0.
  RateSchedule(double rate = 1.0);  // NOLINT(runtime/explicit) -- benches
                                    // emplace_back(double) into vectors.

  // Random-walk drift: the rate starts at `start_rate` clamped to
  // [1 - rho, 1 + rho], and every `step_dt` seconds of real time takes a
  // Gaussian step with deviation `sigma`, clamped to the same bounds.
  // Deterministic per seed.  The walk describes its clock up to real
  // time `sized_until`, the last time the caller will read it:
  // ClockTable sizes its rows to it and refuses reads past them.
  // Throws std::invalid_argument, naming the field, unless rho is in
  // [0, 1), step_dt is finite and > 0, sigma is finite and >= 0,
  // start_rate is finite and sized_until is finite and > 0.
  static RateSchedule random_walk(double rho, double step_dt, double sigma,
                                  std::uint64_t seed, double start_rate,
                                  double sized_until);

  bool walk() const { return walk_; }
  // The constant rate, or a walk's rate during its first step.
  double rate() const { return rate_; }
  double rho() const { return rho_; }
  double step_dt() const { return step_dt_; }
  double sigma() const { return sigma_; }
  double sized_until() const { return sized_until_; }
  std::uint64_t seed() const { return seed_; }

 private:
  double rate_;
  double rho_ = 0.0;
  double step_dt_ = 1.0;
  double sigma_ = 0.0;
  double sized_until_ = 0.0;
  std::uint64_t seed_ = 0;
  bool walk_ = false;
};

// Every node's hardware clock in one table: node u reads the clock that
// schedules[u] describes (a walk up to its sized horizon).  The table
// keeps no reference to the schedules.
//
// Layout.  Nodes whose walks share (rho, step_dt, sigma, start rate)
// share one Shape, and with it one grid of segment start times t0 (the
// t0s depend only on step_dt, so one copy serves every node).  A walk
// node's row holds its segments 1 .. W as 16-byte (hw0, rate) cells;
// segment 0 starts at (t0, hw0) = (0, 0) at the shape's start rate and
// needs no cell.  The rows are stored time-major in one zeroed
// allocation: cell (k, u), node u's segment k, sits at (k - 1) * n + u,
// so a sweep reading consecutive nodes at one instant (a broadcast
// round, a sample) walks consecutive 16-byte cells instead of touching
// one row per node.  W is the number of segments past the first that
// the largest sized_until among the schedules needs, so a read up to
// the run's last readable time costs the grid lookup plus one cell.  A
// constant clock keeps only its rate.
//
// Rows fill lazily: a row stays zero (never written, so a table nobody
// reads past segment 0 faults in no pages) until its node's first read
// past segment 0, which generates the whole row from the node's seed on
// a stack-local util::LazyMt19937_64 (std::mt19937_64's output, whose
// first few draws cost a fraction of a full seed-and-twist).  A zero
// rate marks an unfilled cell; every generated rate is positive.  The
// table thus keeps a seed per node, not a 2.5 KB engine.  The rows are
// the whole clock: a read past a row's end (past the sized horizon)
// throws std::out_of_range naming the node, the argument and the
// horizon.
//
// Concurrency.  Reads of different nodes may run on different threads
// as long as each node is read by one thread at a time (the sharded
// engine's ownership rule): a fill writes only its own row, and the
// fill counter is atomic.
class ClockTable {
 public:
  explicit ClockTable(const std::vector<RateSchedule>& schedules);
  ClockTable(const ClockTable&) = delete;
  ClockTable& operator=(const ClockTable&) = delete;

  // Node u's clock reading at real time t, the real time at which it
  // reads `value`, and its rate at real time t.  Each throws
  // std::invalid_argument, naming the function and the value, unless its
  // argument is finite and >= 0, and std::out_of_range for a walk read
  // past the rows.  A walk read inside the rows is inline: the grid
  // lookup and one cell.
  double value_at(std::size_t u, double t) const {
    const Shape& s = shape(u);
    if (s.walk && t >= 0.0 && t < s.end_t) {
      const std::size_t k = segment_at(s, t);
      if (k == 0) return value_on(0.0, 0.0, s.rate0, t);
      const Cell& c = cell(u, s, k);
      return value_on(s.t0[k], c.hw0, c.rate, t);
    }
    return value_at_slow(u, t);
  }
  double time_when(std::size_t u, double value) const;
  double rate_at(std::size_t u, double t) const;

  std::size_t size() const { return keys_.size(); }
  // Cells per row: the segments past segment 0 a row holds.
  std::size_t row_width() const { return width_; }
  // Rows generated so far.
  std::size_t rows_filled() const {
    return filled_.load(std::memory_order_relaxed);
  }

 private:
  struct Cell {
    double hw0;
    double rate;
  };
  static_assert(sizeof(Cell) == 16, "a row cell is one (hw0, rate) pair");
  struct Shape {
    bool walk = false;
    double rho = 0.0;
    double step_dt = 1.0;
    double sigma = 0.0;
    double inv_step = 1.0;  // 1 / step_dt
    double rate0 = 1.0;  // segment 0's rate (walks)
    double end_v0 = 0.0;  // segment 0 holds clock values below this
    double end_t = 0.0;   // rows cover real times below this
    double sized = 0.0;   // the largest sized_until among the shape's walks
    std::vector<double> t0;  // segment start times 0 .. width_
  };
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };

  const Shape& shape(std::size_t u) const {
    return shapes_[shape_of_.empty() ? 0 : shape_of_[u]];
  }
  // The rate of constant node u.
  double constant_rate(std::size_t u) const;
  // Segment k >= 1 of walk node u, filling the row first if needed.
  const Cell& cell(std::size_t u, const Shape& s, std::size_t k) const {
    const Cell& c = rows_.get()[(k - 1) * keys_.size() + u];
    if (c.rate == 0.0) fill(u, s);
    return c;
  }
  // Index k <= width_ of the segment holding t (0 <= t < s.end_t) on the
  // shared grid.  The stored t0s accumulate rounding and are not exact
  // multiples of step_dt, so the guess t / step_dt only has to land near
  // k; the two loops settle it on the t0s.
  std::size_t segment_at(const Shape& s, double t) const {
    const double guess = t * s.inv_step;
    std::size_t k = guess < static_cast<double>(width_)
                        ? static_cast<std::size_t>(guess)
                        : width_;
    while (k < width_ && s.t0[k + 1] <= t) ++k;
    while (s.t0[k] > t) --k;
    return k;
  }
  // Constant clocks, domain errors and reads past the rows.
  double value_at_slow(std::size_t u, double t) const;
  void fill(std::size_t u, const Shape& s) const;
  [[noreturn]] void throw_past_rows(const char* fn, std::size_t u,
                                    const char* arg, double x) const;

  std::vector<Shape> shapes_;
  // Node -> index into shapes_; empty when every node has shapes_[0].
  std::vector<std::uint32_t> shape_of_;
  // A walk node's seed, or the bits of a constant node's rate.
  std::vector<std::uint64_t> keys_;
  std::size_t width_ = 0;
  // The zeroed, time-major cell block (null when width_ or n is 0).
  std::unique_ptr<Cell, FreeDeleter> rows_;
  mutable std::atomic<std::size_t> filled_{0};
};

}  // namespace gcs::clk

#endif  // GCS_CLK_CLOCK_HPP
