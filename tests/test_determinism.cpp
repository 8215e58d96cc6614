// The determinism contract across the engine/delivery matrix: the same
// seed and parameters must produce BIT-IDENTICAL logical-clock and skew
// trajectories whether events come from the binary heap or the calendar
// queue, and whether deliveries are batched or per-receiver.  This is
// what makes the calendar queue and batched delivery safe defaults: they
// are pure performance changes, invisible to the physics.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/network_sim.hpp"
#include "net/delay.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "net/trace.hpp"
#include "util/rng.hpp"

namespace {

using gcs::core::NetworkSimulation;
using gcs::core::SimOptions;
using gcs::core::SyncParams;
using gcs::sim::EnginePolicy;

SyncParams test_params(std::size_t n) {
  SyncParams p;
  p.n = n;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.5;
  p.delta_h = 0.5;
  return p;
}

std::vector<gcs::clk::RateSchedule> walk_schedules(const SyncParams& p,
                                                   std::uint64_t seed) {
  std::vector<gcs::clk::RateSchedule> schedules;
  for (std::size_t i = 0; i < p.n; ++i) {
    schedules.push_back(gcs::clk::RateSchedule::random_walk(
        p.rho, /*step_dt=*/1.0, /*sigma=*/p.rho / 4.0, seed * 7919 + i));
  }
  return schedules;
}

struct Trace {
  std::vector<double> clocks;  // every node's logical clock, every sample
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t delivery_events = 0;
  std::uint64_t jumps = 0;
  std::uint64_t clamped = 0;
};

Trace run(const gcs::net::Scenario& scenario, EnginePolicy policy,
          bool batched, double horizon) {
  const SyncParams p = test_params(scenario.n);
  SimOptions options;
  options.seed = 1234;
  options.engine_policy = policy;
  options.batched_delivery = batched;
  NetworkSimulation sim(
      p, scenario.to_dynamic_graph(), gcs::net::make_uniform_delay(p.T, 0.0, p.T),
      walk_schedules(p, 99),
      options);
  Trace trace;
  sim.schedule_periodic(0.25, 0.25, [&](gcs::sim::Time) {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      trace.clocks.push_back(sim.logical_clock(static_cast<gcs::core::NodeId>(i)));
    }
  });
  sim.run_until(horizon);
  trace.messages_sent = sim.stats().messages_sent;
  trace.messages_delivered = sim.stats().messages_delivered;
  trace.messages_dropped = sim.stats().messages_dropped;
  trace.delivery_events = sim.stats().delivery_events;
  trace.jumps = sim.stats().jumps;
  trace.clamped = sim.engine_clamped_count();
  return trace;
}

// Runs the full 2x2 {engine} x {delivery} matrix on a scenario and
// checks every observable against the baseline, bit for bit.
void expect_identical_across_modes(const gcs::net::Scenario& scenario,
                                   double horizon) {
  const Trace base = run(scenario, EnginePolicy::kHeap, false, horizon);
  ASSERT_FALSE(base.clocks.empty());
  EXPECT_GT(base.messages_delivered, 0u);
  EXPECT_EQ(base.clamped, 0u);
  const struct {
    EnginePolicy policy;
    bool batched;
    const char* name;
  } modes[] = {
      {EnginePolicy::kHeap, true, "heap/batched"},
      {EnginePolicy::kCalendar, false, "calendar/per-receiver"},
      {EnginePolicy::kCalendar, true, "calendar/batched"},
  };
  for (const auto& mode : modes) {
    const Trace got = run(scenario, mode.policy, mode.batched, horizon);
    // EXPECT_EQ on the double vector: exact equality, not approximate --
    // the trajectories must be the same floating-point numbers.
    EXPECT_EQ(base.clocks, got.clocks) << scenario.name << " " << mode.name;
    EXPECT_EQ(base.messages_sent, got.messages_sent) << mode.name;
    EXPECT_EQ(base.messages_delivered, got.messages_delivered) << mode.name;
    EXPECT_EQ(base.messages_dropped, got.messages_dropped) << mode.name;
    EXPECT_EQ(base.jumps, got.jumps) << mode.name;
    EXPECT_EQ(got.clamped, 0u) << mode.name;
    // Batching must only ever reduce the delivery event count.
    if (mode.batched) {
      EXPECT_LE(got.delivery_events, base.delivery_events) << mode.name;
    } else {
      EXPECT_EQ(got.delivery_events, base.delivery_events) << mode.name;
    }
  }
}

TEST(DeterminismMatrix, ChurnScenario) {
  gcs::util::Rng rng(7);
  expect_identical_across_modes(
      gcs::net::make_churn_scenario(12, 6, 8.0, 40.0, rng), 40.0);
}

TEST(DeterminismMatrix, SwitchingStarScenario) {
  expect_identical_across_modes(
      gcs::net::make_switching_star_scenario(10, 5.0, 1.0, 40.0), 40.0);
}

TEST(DeterminismMatrix, MobilityScenario) {
  gcs::util::Rng rng(21);
  expect_identical_across_modes(
      gcs::net::make_mobility_scenario(10, 0.35, 0.01, 0.05, 1.0, 40.0,
                                       /*backbone=*/true, rng),
      40.0);
}

TEST(DeterminismMatrix, GaussMarkovScenario) {
  gcs::util::Rng rng(33);
  expect_identical_across_modes(
      gcs::net::make_gauss_markov_scenario(10, /*radius=*/0.35,
                                           /*mean_speed=*/0.04, /*alpha=*/0.8,
                                           /*speed_sigma=*/0.01,
                                           /*dir_sigma=*/0.5, /*update_dt=*/1.0,
                                           40.0, /*backbone=*/true, rng),
      40.0);
}

TEST(DeterminismMatrix, GroupScenario) {
  gcs::util::Rng rng(45);
  expect_identical_across_modes(
      gcs::net::make_group_scenario(12, /*groups=*/3, /*radius=*/0.3,
                                    /*group_radius=*/0.12, /*speed_min=*/0.02,
                                    /*speed_max=*/0.06, /*update_dt=*/1.0,
                                    /*switch_prob=*/0.05, 40.0,
                                    /*backbone=*/true, rng),
      40.0);
}

// Trace-driven replay, including a backbone-free schedule patched by the
// interval-connectivity enforcer: connector events must be just as
// trajectory-neutral across the matrix as generator events.
TEST(DeterminismMatrix, TraceScenarioWithEnforcedConnectivity) {
  gcs::net::ContactTrace trace;
  trace.n = 8;
  for (std::size_t i = 0; i + 1 < trace.n; ++i) {
    trace.events.push_back({0.0, static_cast<gcs::net::NodeId>(i),
                            static_cast<gcs::net::NodeId>(i + 1), true});
  }
  // Break the path apart in the middle for a while; the enforcer patches
  // the windows this leaves disconnected.
  trace.events.push_back({10.0, 3, 4, false});
  trace.events.push_back({26.0, 3, 4, true});
  gcs::net::Scenario scenario = gcs::net::make_trace_scenario(trace, 40.0);
  gcs::net::enforce_interval_connectivity(scenario, /*window=*/3.5, 40.0);
  expect_identical_across_modes(scenario, 40.0);
}

// Dense static graph under constant delay: the regime where batching
// actually coalesces (every broadcast's fan-out shares one instant), so
// prove both the trajectory equality AND that the event count drops by
// ~average degree.
TEST(DeterminismMatrix, CompleteGraphBatchingCoalesces) {
  const std::size_t n = 16;
  const SyncParams p = test_params(n);
  auto run_complete = [&](EnginePolicy policy, bool batched) {
    SimOptions options;
    options.seed = 5;
    options.engine_policy = policy;
    options.batched_delivery = batched;
    options.check_conformance = false;
    NetworkSimulation sim(
        p,
        gcs::net::DynamicGraph(n, gcs::net::make_complete(n).edges(), {}),
        gcs::net::make_constant_delay(p.T, p.T / 2.0), walk_schedules(p, 3),
        options);
    sim.run_until(30.0);
    std::vector<double> clocks;
    for (std::size_t i = 0; i < n; ++i) {
      clocks.push_back(sim.logical_clock(static_cast<gcs::core::NodeId>(i)));
    }
    return std::make_pair(clocks, sim.stats());
  };
  const auto [clocks_unbatched, stats_unbatched] =
      run_complete(EnginePolicy::kHeap, false);
  const auto [clocks_batched, stats_batched] =
      run_complete(EnginePolicy::kCalendar, true);
  EXPECT_EQ(clocks_unbatched, clocks_batched);
  EXPECT_EQ(stats_unbatched.messages_delivered, stats_batched.messages_delivered);
  // Every broadcast fans out to n-1 receivers at one instant: batched
  // mode needs one event per broadcast, not n-1.
  EXPECT_EQ(stats_unbatched.delivery_events, stats_unbatched.messages_sent);
  EXPECT_LE(stats_batched.delivery_events * (n - 2),
            stats_batched.messages_sent);
}

// ---------------------------------------------------------------------------
// The sharded universe: options.shards >= 1 runs the conservative-
// parallel engine on the delay floor.  Its contract is K-invariance --
// every observable byte identical across shard counts and queue
// policies, with shards=1 (inline, threadless) as the reference.  A
// sharded run is intentionally NOT compared against shards=0: per-node
// RNG streams and per-message delivery events make it a separate
// deterministic universe.
// ---------------------------------------------------------------------------

Trace run_sharded(const gcs::net::Scenario& scenario, EnginePolicy policy,
                  std::size_t shards, double horizon) {
  const SyncParams p = test_params(scenario.n);
  SimOptions options;
  options.seed = 1234;
  options.engine_policy = policy;
  options.shards = shards;
  NetworkSimulation sim(
      p, scenario.to_dynamic_graph(),
      // lo = 0.25 gives the positive delay floor sharded mode needs.
      gcs::net::make_uniform_delay(p.T, 0.25, p.T), walk_schedules(p, 99),
      options);
  Trace trace;
  sim.schedule_periodic(0.25, 0.25, [&](gcs::sim::Time) {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      trace.clocks.push_back(sim.logical_clock(static_cast<gcs::core::NodeId>(i)));
    }
  });
  sim.run_until(horizon);
  trace.messages_sent = sim.stats().messages_sent;
  trace.messages_delivered = sim.stats().messages_delivered;
  trace.messages_dropped = sim.stats().messages_dropped;
  trace.delivery_events = sim.stats().delivery_events;
  trace.jumps = sim.stats().jumps;
  trace.clamped = sim.engine_clamped_count();
  return trace;
}

void expect_identical_across_shard_counts(const gcs::net::Scenario& scenario,
                                          double horizon) {
  const Trace base = run_sharded(scenario, EnginePolicy::kCalendar, 1, horizon);
  ASSERT_FALSE(base.clocks.empty());
  EXPECT_GT(base.messages_delivered, 0u);
  EXPECT_EQ(base.clamped, 0u);
  // One engine event per message in sharded mode: the staging path has
  // no same-instant coalescing to do.
  EXPECT_EQ(base.delivery_events, base.messages_sent);
  const struct {
    EnginePolicy policy;
    std::size_t shards;
    const char* name;
  } modes[] = {
      {EnginePolicy::kHeap, 1, "shards1/heap"},
      {EnginePolicy::kCalendar, 2, "shards2/calendar"},
      {EnginePolicy::kCalendar, 4, "shards4/calendar"},
      {EnginePolicy::kHeap, 4, "shards4/heap"},
  };
  for (const auto& mode : modes) {
    const Trace got = run_sharded(scenario, mode.policy, mode.shards, horizon);
    EXPECT_EQ(base.clocks, got.clocks) << scenario.name << " " << mode.name;
    EXPECT_EQ(base.messages_sent, got.messages_sent) << mode.name;
    EXPECT_EQ(base.messages_delivered, got.messages_delivered) << mode.name;
    EXPECT_EQ(base.messages_dropped, got.messages_dropped) << mode.name;
    EXPECT_EQ(base.delivery_events, got.delivery_events) << mode.name;
    EXPECT_EQ(base.jumps, got.jumps) << mode.name;
    EXPECT_EQ(got.clamped, 0u) << mode.name;
  }
}

TEST(DeterminismMatrixSharded, ChurnScenario) {
  gcs::util::Rng rng(7);
  expect_identical_across_shard_counts(
      gcs::net::make_churn_scenario(12, 6, 8.0, 40.0, rng), 40.0);
}

TEST(DeterminismMatrixSharded, SwitchingStarScenario) {
  expect_identical_across_shard_counts(
      gcs::net::make_switching_star_scenario(10, 5.0, 1.0, 40.0), 40.0);
}

TEST(DeterminismMatrixSharded, GaussMarkovScenario) {
  gcs::util::Rng rng(33);
  expect_identical_across_shard_counts(
      gcs::net::make_gauss_markov_scenario(10, /*radius=*/0.35,
                                           /*mean_speed=*/0.04, /*alpha=*/0.8,
                                           /*speed_sigma=*/0.01,
                                           /*dir_sigma=*/0.5, /*update_dt=*/1.0,
                                           40.0, /*backbone=*/true, rng),
      40.0);
}

TEST(DeterminismMatrixSharded, MoreShardsThanNodesClampsAndStaysInvariant) {
  // shards > n must not break anything: the simulator clamps to one
  // shard per node and the trajectory stays the reference one.
  gcs::util::Rng rng(7);
  const gcs::net::Scenario scenario =
      gcs::net::make_churn_scenario(12, 6, 8.0, 40.0, rng);
  const Trace base = run_sharded(scenario, EnginePolicy::kCalendar, 1, 40.0);
  const Trace wide = run_sharded(scenario, EnginePolicy::kCalendar, 64, 40.0);
  EXPECT_EQ(base.clocks, wide.clocks);
  EXPECT_EQ(base.messages_delivered, wide.messages_delivered);
}

TEST(DeterminismMatrixSharded, RefusesZeroFloorDelay) {
  // A delay model without a positive floor gives the conservative engine
  // no lookahead; construction must fail loudly with guidance, not
  // deadlock or violate the contract at the first barrier.
  const SyncParams p = test_params(8);
  SimOptions options;
  options.shards = 2;
  EXPECT_THROW(
      NetworkSimulation(
          p, gcs::net::DynamicGraph(8, gcs::net::make_ring(8).edges(), {}),
          gcs::net::make_uniform_delay(p.T, 0.0, p.T), walk_schedules(p, 99),
          options),
      std::invalid_argument);
}

}  // namespace
