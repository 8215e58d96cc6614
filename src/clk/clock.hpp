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
#ifndef GCS_CLK_CLOCK_HPP
#define GCS_CLK_CLOCK_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gcs::clk {

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
  // Fewest segments one extension appends; it appends at least as many
  // as the walk already has, so the replay cost stays amortized O(1).
  static constexpr std::size_t kMinChunk = 16;

  struct Segment {
    double t0;    // real-time start of the segment
    double hw0;   // accumulated clock value at t0
    double rate;  // clock rate during [t0, next.t0)
  };

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

}  // namespace gcs::clk

#endif  // GCS_CLK_CLOCK_HPP
