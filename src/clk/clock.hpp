// gcs::clk -- hardware clocks with bounded drift.
//
// The paper's model (Sec. 3): every node has a hardware clock whose rate
// stays within [1 - rho, 1 + rho] of real time.  Nodes never see real
// time; every timeout and edge age in the algorithm layer is measured on
// these clocks.  A RateSchedule is a clock starting at value 0 at real
// time 0 with a piecewise-constant rate trajectory, either a single
// constant rate or a seeded, lazily extended random walk clamped to the
// drift bounds.  It answers both directions: value_at(real time) and
// time_when(clock value) (the latter is what the simulator uses to
// schedule "every delta_h of hardware time" broadcasts as real-time
// events).  Rates are strictly positive, so the value is strictly
// increasing and invertible.
//
// A walk keeps its seed, not its engine, so a node's resident clock
// state is a few dozen bytes plus its segments instead of a 2.5 KB
// engine.  A walk that knows the last real time its run can query
// generates every segment up to it in its first extension, from a fresh
// engine with nothing to replay.  A query past that time (or any
// extension of a walk built without one) re-seeds a stack-local engine,
// replays the draws already used and appends a chunk of segments.  The
// engine is util::LazyMt19937_64, whose output is std::mt19937_64's but
// whose first few draws cost a fraction of a full seed-and-twist.
//
// Reads are O(1): a query already covered checks one cached bound and
// indexes segment t / step_dt directly (adjusted by the stored t0s,
// which accumulate rounding and are not exact multiples of step_dt).
//
// A simulation does not keep its RateSchedules: ClockTable (below) takes
// one per node and holds every node's segments in one node-major table,
// answering every read bit for bit as the node's RateSchedule would.
#ifndef GCS_CLK_CLOCK_HPP
#define GCS_CLK_CLOCK_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace gcs::clk {

// One piece of a piecewise-constant rate trajectory.
struct Segment {
  double t0;    // real-time start of the segment
  double hw0;   // accumulated clock value at t0
  double rate;  // clock rate during [t0, next.t0)
};

// A segment's clock reading at real time t, and the real time at which
// it reads v.  Both clock classes evaluate segments only through these,
// so their answers agree bit for bit (signed zeros included).
inline double value_on(double t0, double hw0, double rate, double t) {
  return hw0 + rate * (t - t0);
}
inline double time_on(double t0, double hw0, double rate, double v) {
  return t0 + (v - hw0) / rate;
}

class RateSchedule {
 public:
  // Constant-rate clock (rate must be positive; the drift model expects it
  // in [1 - rho, 1 + rho] but this is not enforced here so tests can build
  // degenerate clocks).
  RateSchedule(double rate = 1.0);  // NOLINT(runtime/explicit) -- benches
                                    // emplace_back(double) into vectors.

  // Random-walk drift: the rate starts at `start_rate`, and every
  // `step_dt` seconds of real time takes a Gaussian step with deviation
  // `sigma`, clamped to [1 - rho, 1 + rho].  Deterministic per seed;
  // segments are generated lazily as the simulation queries further into
  // the future.  `sized_until` (0 = unknown) is the last real time the
  // caller will query: the first extension generates every segment up
  // to it in one pass, and later ones append kMinChunk or more at a
  // time.  It changes only how much work an extension does, never an
  // answer.  Throws std::invalid_argument, naming the field, unless rho
  // is in [0, 1), step_dt is finite and > 0, sigma is finite and >= 0,
  // start_rate is finite and sized_until is finite and >= 0.
  static RateSchedule random_walk(double rho, double step_dt, double sigma,
                                  std::uint64_t seed, double start_rate = 1.0,
                                  double sized_until = 0.0);

  // Clock reading at real time t.  Throws std::invalid_argument unless t
  // is finite and >= 0.
  double value_at(double t) const;
  // Inverse: the real time at which the clock reads `value`.  Throws
  // std::invalid_argument unless value is finite and >= 0.
  double time_when(double value) const;
  // Rate at real time t; same domain as value_at.
  double rate_at(double t) const;

  bool is_constant() const { return !walk_; }

 private:
  friend class ClockTable;

  // Fewest segments one extension appends; it appends at least as many
  // as the walk already has, so the replay cost stays amortized O(1).
  static constexpr std::size_t kMinChunk = 16;

  // Ensures segments cover real time `t` / clock value `v`.
  void extend_to_time(double t) const;
  void extend_to_value(double v) const;
  template <class Covered>
  void extend(Covered covered) const;
  // Index of the segment holding real time t (t0 <= t < next t0); t
  // must be covered.
  std::size_t segment_at(double t) const;

  mutable std::vector<Segment> segments_;
  // Where the last segment ends, in real time and in clock value:
  // segments cover exactly the times t < end_t_ and the values
  // v < end_v_.  Infinite for a constant clock.
  mutable double end_t_;
  mutable double end_v_;
  double rho_ = 0.0;
  double step_dt_ = 1.0;
  double sigma_ = 0.0;
  double sized_until_ = 0.0;
  std::uint64_t seed_ = 0;
  bool walk_ = false;
};

// Every node's hardware clock in one table, built from one RateSchedule
// per node (which the caller may then drop).  Node u's reads answer bit
// for bit what schedules[u] would answer, at any time or clock value.
//
// Layout.  Nodes whose walks share (rho, step_dt, sigma, start rate)
// share one Shape, and with it one grid of segment start times t0 (the
// t0s depend only on step_dt, so one copy serves every node).  A walk
// node's row holds its segments 1 .. W as 16-byte (hw0, rate) cells,
// rows laid out node-major in one zeroed, line-aligned allocation;
// segment 0 starts at (t0, hw0) = (0, 0) at the shape's start rate and
// needs no cell.  W is the number of segments past the first that the
// largest sized_until among the schedules needs (RateSchedule::kMinChunk
// when none was sized), so a read up to the run's last readable time
// costs the grid lookup plus one cell.  A constant clock keeps only its
// rate.
//
// Rows fill lazily: a row stays zero (never touched, so its pages are
// never faulted in) until its node's first read past segment 0, which
// generates the whole row from the node's seed.  A zero rate marks an
// unfilled cell; every generated rate is positive.  A read past a row's
// end (past the sized horizon) extends that node's walk into a spill
// list with RateSchedule's chunked, doubling replay.
//
// Concurrency.  Reads of different nodes may run on different threads
// as long as each node is read by one thread at a time (the sharded
// engine's ownership rule): a fill writes only its own row, the fill
// counter is atomic, and the spill map's structure sits behind a mutex
// while each node's spill list is touched by its reader alone.
class ClockTable {
 public:
  explicit ClockTable(const std::vector<RateSchedule>& schedules);
  ClockTable(const ClockTable&) = delete;
  ClockTable& operator=(const ClockTable&) = delete;

  // Node u's RateSchedule::value_at / time_when / rate_at, with the same
  // domain checks.  A walk read inside the rows is inline: the grid
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
    const Cell& c = rows_[u * width_ + k - 1];
    if (c.rate == 0.0) fill(u, s);
    return c;
  }
  // Index k <= width_ of the segment holding t (0 <= t < s.end_t):
  // RateSchedule::segment_at on the shared grid.  The guess only has to
  // land near k; the two loops settle it on the stored t0s.
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
  // The segment holding real time t / clock value v past the row's end,
  // extending u's spill list as needed.
  Segment spill_at_time(std::size_t u, const Shape& s, double t) const;
  Segment spill_at_value(std::size_t u, const Shape& s, double v) const;
  template <class Covered>
  std::vector<Segment>& spill(std::size_t u, const Shape& s,
                              Covered covered) const;

  std::vector<Shape> shapes_;
  // Node -> index into shapes_; empty when every node has shapes_[0].
  std::vector<std::uint32_t> shape_of_;
  // A walk node's seed, or the bits of a constant node's rate.
  std::vector<std::uint64_t> keys_;
  std::size_t width_ = 0;
  // The zeroed allocation, and the rows from its first cache-line
  // boundary on (a 4-cell row is then exactly one line).
  std::unique_ptr<void, FreeDeleter> block_;
  Cell* rows_ = nullptr;
  mutable std::atomic<std::size_t> filled_{0};
  mutable std::mutex spill_mu_;
  mutable std::unordered_map<std::size_t, std::vector<Segment>> spills_;
};

}  // namespace gcs::clk

#endif  // GCS_CLK_CLOCK_HPP
