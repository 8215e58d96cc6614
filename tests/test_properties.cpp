// Property tests for the paper's invariants, swept over randomized
// parameters and the randomized dynamic-scenario generators (churn,
// switching star, random-waypoint, Gauss-Markov, group).  Every run,
// whatever the drawn parameters, must satisfy:
//
//   1. global skew <= SyncParams::global_skew_bound() + slack  (Thm 4.6
//      flavor: the bound holds under any admissible dynamics),
//   2. local skew on live edges inside the B(age) envelope (the gradient
//      property -- checked via the simulator's conformance counters),
//   3. logical clocks are monotone non-decreasing, and
//   4. logical clocks stay inside the drift envelope of real time:
//      (1-rho) * t <= L_u(t) <= (1+rho) * t -- clocks free-run at >= the
//      slowest hardware rate, and jumps only chase lower bounds of other
//      clocks, so the global max advances at <= the fastest rate.
//
// The parameter draws are seeded and pinned (no <random>), so a failure
// reproduces exactly from the test name + seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/network_sim.hpp"
#include "harness/envelope.hpp"
#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "net/delay.hpp"
#include "net/scenario.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using gcs::core::NetworkSimulation;
using gcs::core::NodeId;
using gcs::core::SimOptions;
using gcs::core::SyncParams;

struct Lcg {
  std::uint64_t s;
  explicit Lcg(std::uint64_t seed) : s(seed * 2654435761u + 88172645463325252ULL) {}
  double uniform(double lo, double hi) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + (hi - lo) * (static_cast<double>(s >> 11) * 0x1.0p-53);
  }
  std::size_t index(std::size_t lo, std::size_t hi) {  // inclusive
    return lo + static_cast<std::size_t>(uniform(0.0, static_cast<double>(hi - lo + 1) * (1.0 - 1e-12)));
  }
};

SyncParams draw_params(Lcg& rng) {
  SyncParams p;
  p.n = rng.index(4, 12);
  p.rho = rng.uniform(0.01, 0.08);
  p.T = rng.uniform(0.5, 1.5);
  p.D = rng.uniform(1.5, 3.0);
  // Keep delta_h <= D: min_b0()'s headroom derivation assumes a
  // broadcast interval fits inside the discovery slack.
  p.delta_h = rng.uniform(0.25, 1.0);
  return p;
}

gcs::net::Scenario draw_scenario(const std::string& kind, const SyncParams& p,
                                 double horizon, Lcg& rng) {
  gcs::util::Rng scenario_rng(static_cast<std::uint64_t>(rng.uniform(1.0, 1e6)));
  if (kind == "churn") {
    return gcs::net::make_churn_scenario(p.n, /*volatile_edges=*/p.n / 2,
                                         /*lifetime=*/rng.uniform(5.0, 15.0),
                                         horizon, scenario_rng);
  }
  if (kind == "star") {
    const double period = rng.uniform(3.0, 8.0);
    return gcs::net::make_switching_star_scenario(
        p.n, period, /*overlap=*/period * rng.uniform(0.2, 0.6), horizon);
  }
  if (kind == "gauss-markov") {
    return gcs::net::make_gauss_markov_scenario(
        p.n, /*radius=*/rng.uniform(0.3, 0.5),
        /*mean_speed=*/rng.uniform(0.02, 0.06),
        /*alpha=*/rng.uniform(0.1, 0.95), /*speed_sigma=*/0.01,
        /*dir_sigma=*/rng.uniform(0.2, 0.9), /*update_dt=*/1.0, horizon,
        /*backbone=*/true, scenario_rng);
  }
  if (kind == "group") {
    return gcs::net::make_group_scenario(
        p.n, /*groups=*/rng.index(1, 3), /*radius=*/rng.uniform(0.3, 0.5),
        /*group_radius=*/rng.uniform(0.05, 0.2), /*speed_min=*/0.01,
        /*speed_max=*/rng.uniform(0.02, 0.08), /*update_dt=*/1.0,
        /*switch_prob=*/rng.uniform(0.0, 0.1), horizon,
        /*backbone=*/true, scenario_rng);
  }
  return gcs::net::make_mobility_scenario(
      p.n, /*radius=*/rng.uniform(0.3, 0.5), /*speed_min=*/0.01,
      /*speed_max=*/rng.uniform(0.02, 0.08), /*update_dt=*/1.0, horizon,
      /*backbone=*/true, scenario_rng);
}

void check_invariants(const std::string& kind, std::uint64_t seed) {
  SCOPED_TRACE(kind + " seed=" + std::to_string(seed));
  Lcg rng(seed);
  const SyncParams p = draw_params(rng);
  const double horizon = 40.0;

  std::vector<gcs::clk::RateSchedule> schedules;
  for (std::size_t i = 0; i < p.n; ++i) {
    schedules.push_back(gcs::clk::RateSchedule::random_walk(
        p.rho, /*step_dt=*/1.0, /*sigma=*/p.rho / 4.0, seed * 6151 + i));
  }

  SimOptions options;
  options.seed = seed * 31 + 7;
  options.check_conformance = true;
  NetworkSimulation sim(
      p, draw_scenario(kind, p, horizon, rng).to_dynamic_graph(),
      gcs::net::make_uniform_delay(p.T, 0.0, p.T), std::move(schedules),
      options);

  const double slack = gcs::core::kConformanceSlack;
  const double bound = p.global_skew_bound();
  std::vector<double> last_logical(p.n, 0.0);
  double max_global = 0.0;
  std::uint64_t samples = 0;

  sim.schedule_periodic(0.5, 0.5, [&](gcs::sim::Time t) {
    ++samples;
    double lo = sim.logical_clock(0);
    double hi = lo;
    for (std::size_t i = 0; i < p.n; ++i) {
      const double L = sim.logical_clock(static_cast<NodeId>(i));
      lo = std::min(lo, L);
      hi = std::max(hi, L);
      // 3. Monotone at sample granularity (the simulator also checks at
      //    every delivery via its conformance counter).
      EXPECT_GE(L, last_logical[i] - slack) << "node " << i << " at t=" << t;
      last_logical[i] = L;
      // 4. Drift envelope of real time.
      EXPECT_GE(L, (1.0 - p.rho) * t - slack) << "node " << i << " at t=" << t;
      EXPECT_LE(L, (1.0 + p.rho) * t + slack) << "node " << i << " at t=" << t;
    }
    max_global = std::max(max_global, hi - lo);
  });

  sim.run_until(horizon);

  ASSERT_GT(samples, 0u);
  // 1. Global skew bound.
  EXPECT_LE(max_global, bound + slack);
  // 2. Gradient property: the simulator audited B(age) on every delivery.
  EXPECT_GT(sim.stats().conformance_checks, 0u);
  EXPECT_EQ(sim.stats().conformance_envelope_failures, 0u);
  // 3. Monotonicity at delivery granularity.
  EXPECT_EQ(sim.stats().conformance_monotonicity_failures, 0u);
  // Scheduling hygiene: nothing was ever scheduled in the past.
  EXPECT_EQ(sim.engine_clamped_count(), 0u);
  // All property scenarios keep a backbone, so the simulator's
  // (T+D)-interval-connectivity audit must come back clean.
  EXPECT_GT(sim.stats().connectivity_windows_checked, 0u);
  EXPECT_EQ(sim.stats().connectivity_windows_disconnected, 0u);
}

class PropertySweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(PropertySweep, PaperInvariantsHold) {
  check_invariants(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PropertySweep,
    ::testing::Combine(::testing::Values("churn", "star", "mobility",
                                         "gauss-markov", "group"),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u)),
    [](const auto& info) {
      std::string kind = std::get<0>(info.param);
      for (char& c : kind) {
        if (c == '-') c = '_';
      }
      return kind + "_seed" + std::to_string(std::get<1>(info.param));
    });

// 5. The empirical skew envelope (harness/envelope.hpp) over real runs:
//    whatever parameters are drawn, the fitted curve must dominate every
//    observed point (envelope_ratio <= 1), stay below the analytic bound
//    it is measured against (that is what makes bound_gap >= 1 the
//    headline), and be monotone non-decreasing in n -- a fit that dips
//    as the network grows would be unusable as an envelope.
TEST(EnvelopeProperties, FitDominatesObservationsAndStaysUnderBound) {
  namespace json = gcs::util::json;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Lcg rng(seed * 97 + 11);
    gcs::harness::ExperimentConfig base;
    base.params = draw_params(rng);
    base.topology = "ring";
    base.delay = "constant:0.5";
    base.horizon = 30.0;
    std::map<std::string, json::Value> docs;
    for (const std::size_t n : {4u, 6u, 8u, 10u}) {
      // Two seeds per n: the fitter folds them into the per-n max, so
      // the group still has exactly four abscissae.
      for (const std::uint64_t s : {seed, seed + 50}) {
        gcs::harness::ExperimentConfig cfg = base;
        cfg.params.n = n;
        cfg.seed = s;
        const std::string label =
            "n" + std::to_string(n) + "-s" + std::to_string(s);
        cfg.name = label;
        const gcs::harness::ExperimentResult result =
            gcs::harness::run_experiment(cfg);
        EXPECT_EQ(result.global_violations, 0u) << label;
        json::Value doc;
        doc["cell"] = label;
        doc["config"] = gcs::harness::config_to_json(cfg);
        doc["result"] = gcs::harness::to_json(result);
        docs[label] = std::move(doc);
      }
    }
    const gcs::harness::EnvelopeFit fit = gcs::harness::fit_envelope(docs);
    ASSERT_EQ(fit.groups.size(), 1u);
    const gcs::harness::EnvelopeGroup& group = fit.groups[0];
    EXPECT_EQ(group.points, 4u);
    for (const gcs::harness::EnvelopePoint& p : fit.cells) {
      EXPECT_GE(p.fitted, p.observed - 1e-9) << p.cell;
      EXPECT_LE(p.envelope_ratio, 1.0 + 1e-9) << p.cell;
      // The fit sits strictly inside the analytic envelope: the bound
      // gap is the measured air between theory and behavior.
      EXPECT_LE(p.fitted, p.analytic + 1e-9) << p.cell;
      EXPECT_GE(p.bound_gap, 1.0) << p.cell;
    }
    double prev = group.evaluate(2);
    for (std::uint64_t n = 3; n <= 64; ++n) {
      const double cur = group.evaluate(n);
      EXPECT_GE(cur, prev - 1e-12) << "fit dips at n=" << n;
      prev = cur;
    }
  }
}

// The scenario horizon rule (scenario.hpp): no generator emits an event
// at or past its horizon; post-horizon dynamics are dropped, not clamped.
// The switching star is the regression case -- teardowns land `overlap`
// after a rotation, so a large overlap used to leak events past the
// horizon.
TEST(ScenarioHorizon, NoGeneratorEmitsEventsAtOrPastHorizon) {
  const auto expect_within = [](const gcs::net::Scenario& s, double horizon) {
    for (const gcs::net::TopologyEvent& ev : s.events) {
      EXPECT_LT(ev.at, horizon) << s.name << " leaked an event past horizon";
    }
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Lcg rng(seed * 31 + 7);
    const double horizon = rng.uniform(18.0, 45.0);
    {
      gcs::util::Rng gen(seed);
      expect_within(gcs::net::make_churn_scenario(10, 5, /*lifetime=*/6.0,
                                                  horizon, gen),
                    horizon);
    }
    // overlap close to period maximizes teardown overhang past the final
    // rotation.
    expect_within(gcs::net::make_switching_star_scenario(
                      8, /*period=*/10.0, /*overlap=*/9.5, horizon),
                  horizon);
    {
      gcs::util::Rng gen(seed + 100);
      expect_within(
          gcs::net::make_mobility_scenario(9, 0.4, 0.01, 0.05, 1.0, horizon,
                                           /*backbone=*/true, gen),
          horizon);
    }
    {
      gcs::util::Rng gen(seed + 200);
      expect_within(gcs::net::make_gauss_markov_scenario(
                        9, 0.4, /*mean_speed=*/0.04, /*alpha=*/0.8,
                        /*speed_sigma=*/0.01, /*dir_sigma=*/0.5, 1.0, horizon,
                        /*backbone=*/false, gen),
                    horizon);
    }
    {
      gcs::util::Rng gen(seed + 300);
      expect_within(gcs::net::make_group_scenario(
                        9, /*groups=*/3, 0.4, /*group_radius=*/0.1, 0.01, 0.05,
                        1.0, /*switch_prob=*/0.1, horizon, /*backbone=*/false,
                        gen),
                    horizon);
    }
  }
}

}  // namespace
