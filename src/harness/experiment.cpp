#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "util/spec.hpp"

namespace gcs::harness {

namespace {

// The static topologies and drift models, one name list each:
// read_axes checks a cell's names against them before any cell runs, and
// build_graph / build_schedules dispatch on the index.
const char* const kTopologies[] = {"path", "ring", "star", "complete"};
enum TopologyKind : std::size_t { kPath, kRing, kStar, kComplete };
const char* const kDrifts[] = {"spread", "walk", "two-camp"};
enum DriftKind : std::size_t { kSpread, kWalk, kTwoCamp };

template <std::size_t N>
std::size_t name_index(const char* const (&names)[N], const std::string& text,
                       const char* axis) {
  for (std::size_t i = 0; i < N; ++i) {
    if (text == names[i]) return i;
  }
  std::string expected = names[0];
  for (std::size_t i = 1; i < N; ++i) expected += std::string(" | ") + names[i];
  throw std::invalid_argument(std::string(axis) + " '" + text +
                              "': unknown kind (expected " + expected + ")");
}

// The run's schedule, built straight from the config's scenario (no
// copy of it outlives this call) or from a static topology.
net::DynamicGraph build_graph(const ExperimentConfig& cfg) {
  if (cfg.scenario) return cfg.scenario->to_dynamic_graph();
  const std::size_t n = cfg.params.n;
  const std::size_t kind = name_index(kTopologies, cfg.topology, "topology");
  const net::Topology topology = kind == kPath   ? net::make_path(n)
                                 : kind == kRing ? net::make_ring(n)
                                 : kind == kStar ? net::make_star(n)
                                                 : net::make_complete(n);
  return net::DynamicGraph(n, topology.edges(), {});
}

std::vector<clk::RateSchedule> build_schedules(const ExperimentConfig& cfg) {
  const std::size_t n = cfg.params.n;
  const double rho = cfg.params.rho;
  std::vector<clk::RateSchedule> schedules;
  schedules.reserve(n);
  const std::size_t drift = name_index(kDrifts, cfg.drift, "drift");
  if (drift == kSpread) {
    for (std::size_t i = 0; i < n; ++i) {
      const double f = n > 1 ? static_cast<double>(i) / (n - 1) : 0.5;
      schedules.emplace_back(1.0 - rho + 2.0 * rho * f);
    }
  } else if (drift == kWalk) {
    // The last real time the run reads a clock: a node's final broadcast
    // (at or before the horizon) schedules the next one delta_h of
    // hardware time later, at most delta_h / (1 - rho) of real time.
    // Each walk generates its segments up to there in one pass.
    const double last_query = cfg.horizon + cfg.params.delta_h / (1.0 - rho);
    // Known limitation (DESIGN.md "Determinism"): for n > 7919 these
    // seeds overlap across cfg.seed values; fixing it re-baselines every
    // walk trajectory.
    for (std::size_t i = 0; i < n; ++i) {
      schedules.push_back(clk::RateSchedule::random_walk(
          rho, /*step_dt=*/1.0, /*sigma=*/rho / 4.0,
          /*seed=*/cfg.seed * 7919 + i, /*start_rate=*/1.0, last_query));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      schedules.emplace_back(i < n / 2 ? 1.0 + rho : 1.0 - rho);
    }
  }
  return schedules;
}

net::DelayModel build_delay(const ExperimentConfig& cfg) {
  const double T = cfg.params.T;
  // T bounds every delay, and the delay models refuse a bound <= 0; name
  // T, not the delay spec it defaults.  (run_experiment refuses a
  // non-finite T before it gets here.)
  if (T <= 0.0) {
    throw std::invalid_argument("config key 'T' must be > 0, got '" +
                                util::json::dump_number(T) + "'");
  }
  util::spec::Reader spec(cfg.delay, "delay");
  const bool uniform = spec.kind() == "uniform";
  if (!uniform && spec.kind() != "constant") {
    spec.fail("unknown kind (expected uniform | constant)");
  }
  // "uniform" = [0, T], "uniform:lo" = [lo, T], "uniform:lo:hi"; a
  // positive lo gives the delay model the floor sharded runs need.
  // "constant" = T, "constant:x" = x.
  const double lo = spec.positional(uniform ? "lo" : "x", uniform ? 0.0 : T);
  const double hi = uniform ? spec.positional("hi", T) : lo;
  spec.finish();
  // The simulator clamps every draw into [0, T] (T is the model's delay
  // bound), so a spec reaching outside it would silently run a different
  // distribution.
  if (!(0.0 <= lo && lo <= hi && hi <= T)) spec.fail("must lie within [0, T]");
  return uniform ? net::make_uniform_delay(T, lo, hi)
                 : net::make_constant_delay(T, lo);
}

// The ablation axis: "dcsa" | "weighted[:w]" | "noblock" | "nojump".
core::Variant parse_variant(const std::string& text) {
  util::spec::Reader spec(text, "variant");
  core::Variant variant;
  if (spec.kind() == "weighted") {
    // "weighted" = uniform weight 0.5; "weighted:w" pins it.  The weight
    // must be a usable tolerance scale in (0, 1].
    variant.rule = core::Variant::Rule::kWeighted;
    variant.weight = spec.positional("w", 0.5);
    if (!(variant.weight > 0.0) || variant.weight > 1.0) {
      spec.fail("'w' must be in (0, 1], got '" +
                util::json::dump_number(variant.weight) + "'");
    }
  } else if (spec.kind() == "noblock") {
    variant.rule = core::Variant::Rule::kNoBlock;
  } else if (spec.kind() == "nojump") {
    variant.rule = core::Variant::Rule::kNoJump;
  } else if (spec.kind() != "dcsa") {
    spec.fail("unknown kind (expected dcsa | weighted | noblock | nojump)");
  }
  spec.finish();
  return variant;
}

}  // namespace

AxisModels read_axes(const ExperimentConfig& cfg) {
  name_index(kTopologies, cfg.topology, "topology");
  name_index(kDrifts, cfg.drift, "drift");
  // Braced lists evaluate left to right: a bad delay is named first.
  AxisModels axes{{build_delay(cfg), net::parse_traffic(cfg.traffic)},
                  parse_variant(cfg.variant)};
  // A background flow re-arms every period until the horizon: a period
  // the horizon absorbs (t + period == t) would spin forever, and more
  // than 2^32 emissions per link direction would not end in practice.
  const net::TrafficModel& traffic = axes.link.traffic;
  const double h = cfg.horizon;
  const double period = traffic.flow_period();
  const bool stuck = h + period == h;
  if (traffic.has_flows() && std::isfinite(h) &&
      (stuck || h / period > 0x1p32)) {
    using util::json::dump_number;
    const bool cbr = traffic.kind == net::TrafficModel::Kind::kCbr;
    throw std::invalid_argument(
        "traffic '" + cfg.traffic + "': '" + (cbr ? "rate" : "interval") +
        "' = " + dump_number(cbr ? traffic.rate : traffic.interval) +
        " gives a flow period of " + dump_number(period) + " s, which " +
        (stuck ? "cannot advance time at"
               : "implies more than 2^32 emissions per link direction over") +
        " the horizon " + dump_number(h));
  }
  // A direction's backlog is at most the bytes offered to it, and
  // peak_queue_bytes reports it as a whole number, exact only below
  // 2^53.  By the horizon a direction carries at most one sync message
  // per broadcast (a hardware clock reads at most (1 + rho) h) and one
  // flow emission per period, so a spec whose offered total can pass
  // 2^53 bytes is refused here, naming the knob that carries the most.
  if (traffic.pipeline_active() && traffic.bandwidth > 0.0 &&
      std::isfinite(h)) {
    const double sends =
        std::floor((1.0 + cfg.params.rho) * h / cfg.params.delta_h) + 1.0;
    const double emissions =
        traffic.has_flows() ? std::floor(h / period) + 1.0 : 0.0;
    const double sync = traffic.sync_bytes * sends;
    const double flow = traffic.flow_bytes() * emissions;
    if (!(sync + flow <= net::kMaxBacklogBytes)) {
      using util::json::dump_number;
      const bool by_sync = !(flow > sync);
      const char* knob = by_sync ? "msg"
                         : traffic.kind == net::TrafficModel::Kind::kCbr
                             ? "pkt"
                             : "bytes";
      throw std::invalid_argument(
          "traffic '" + cfg.traffic + "': '" + knob + "' = " +
          dump_number(by_sync ? traffic.sync_bytes : traffic.flow_bytes()) +
          " over " + dump_number(by_sync ? sends : emissions) +
          " offers lets one link direction queue more than 2^53 bytes by "
          "the horizon " +
          dump_number(h));
    }
  }
  return axes;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                obs::Recorder* recorder) {
  const core::SyncParams& p = cfg.params;
  if (p.n < 2) throw std::invalid_argument("run_experiment: need n >= 2");
  // A NaN slips through every ordered comparison below and then hangs
  // the engine or the serializer, so finiteness comes first.
  const std::pair<const char*, double> numbers[] = {
      {"rho", p.rho},         {"T", p.T},         {"D", p.D},
      {"delta_h", p.delta_h}, {"B0", p.B0},       {"horizon", cfg.horizon},
      {"sample_dt", cfg.sample_dt}};
  for (const auto& [field, value] : numbers) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument(std::string("run_experiment: ") + field +
                                  " must be finite, got " +
                                  std::to_string(value));
    }
  }
  // Out-of-range model constants used to fail deep inside the clock or
  // the B function without naming the field (rho, D) or run silently as
  // another value (a negative B0 ran as min_b0).
  if (!(p.rho > 0.0 && p.rho < 1.0)) {
    throw std::invalid_argument("run_experiment: rho must be in (0, 1), got " +
                                std::to_string(p.rho));
  }
  if (p.D < 0.0) {
    throw std::invalid_argument("run_experiment: D must be >= 0, got " +
                                std::to_string(p.D));
  }
  if (p.B0 < 0.0) {
    throw std::invalid_argument(
        "run_experiment: B0 must be >= 0 (0 selects min_b0), got " +
        std::to_string(p.B0));
  }
  if (!(cfg.horizon > 0.0)) {
    throw std::invalid_argument("run_experiment: horizon must be > 0");
  }
  // The walks are sized to horizon + delta_h / (1 - rho), which must be
  // a time after 0.
  if (!(p.delta_h > 0.0)) {
    throw std::invalid_argument("run_experiment: delta_h must be > 0, got " +
                                std::to_string(p.delta_h));
  }
  if (!(cfg.sample_dt > 0.0)) {
    throw std::invalid_argument("run_experiment: sample_dt must be > 0");
  }

  net::DynamicGraph graph = build_graph(cfg);
  if (graph.n() != p.n) {
    throw std::invalid_argument(
        "run_experiment: scenario size disagrees with params.n");
  }

  core::SimOptions options;
  options.seed = cfg.seed;
  options.recorder = recorder;
  options.shards = static_cast<std::size_t>(cfg.shards);
  AxisModels axes = read_axes(cfg);
  core::Protocol protocol;
  protocol.variant = axes.variant;
  core::NetworkSimulation sim(p, std::move(graph), std::move(axes.link),
                              build_schedules(cfg), options, protocol);

  ExperimentResult result;
  result.name = cfg.name;
  result.global_skew_bound = p.global_skew_bound();
  result.local_skew_floor = p.effective_b0();

  const core::BFunction& bfunc = sim.bfunc();
  const double slack = core::kConformanceSlack;
  obs::SeriesAggregator series;
  // One sample buffer reused across ticks and filled in place: one
  // batch advance() per sample instead of n virtual calls (the logical
  // values bit-match the per-node accessor, so the series bytes cannot
  // move).
  std::vector<double> logical_sample;
  sim.schedule_periodic(cfg.sample_dt, cfg.sample_dt, [&](sim::Time t) {
    ++result.samples;
    sim.sample_clocks(logical_sample);
    double lo = logical_sample[0];
    double hi = lo;
    for (std::size_t i = 1; i < sim.size(); ++i) {
      const double L = logical_sample[i];
      lo = std::min(lo, L);
      hi = std::max(hi, L);
    }
    obs::SeriesSample sample;
    sample.t = t;
    sample.global_skew = hi - lo;
    result.max_global_skew = std::max(result.max_global_skew, sample.global_skew);
    if (sample.global_skew > result.global_skew_bound + slack) {
      ++result.global_violations;
    }

    // Every fold over the edges is a max or a count, so the unsorted
    // slot order gives the same bytes as any other.
    const sim::Time now = sim.now();
    sim.for_each_live_edge([&](net::NodeId u, net::NodeId v,
                               sim::Time up_time) {
      const double local = std::abs(logical_sample[u] - logical_sample[v]);
      result.max_local_skew = std::max(result.max_local_skew, local);
      sample.max_local_skew = std::max(sample.max_local_skew, local);
      const core::AuditEnvelope envelope =
          core::audit_envelope(bfunc, p.rho, now - up_time);
      if (local > envelope.allowed) ++result.envelope_violations;
      // B is bounded below by b0 > 0, so the ratio is always finite;
      // it is the fraction of the allowed envelope this edge is using.
      sample.max_envelope_ratio =
          std::max(sample.max_envelope_ratio, local / envelope.b);
      ++sample.live_edges;
    });
    const core::RunStats& s = sim.stats();
    sample.in_flight =
        s.messages_sent - s.messages_delivered - s.messages_dropped;
    sample.engine_pending = sim.engine_pending();
    sample.queue_bytes = sim.max_queue_backlog();
    series.add(sample);
    if (recorder != nullptr) recorder->on_sample(sample);
  });

  sim.run_until(cfg.horizon);

  result.events_executed = sim.events_executed();
  result.clamped_events = sim.engine_clamped_count();
  result.run_stats = sim.stats();
  result.engine_stats = sim.engine_stats();
  result.series = series.summary();
  // Fold in the simulator's own delivery-time envelope checks (same
  // property, denser check points).  Monotonicity failures are a
  // different defect class and stay in run_stats only.
  result.envelope_violations += sim.stats().conformance_envelope_failures;
  return result;
}

}  // namespace gcs::harness
