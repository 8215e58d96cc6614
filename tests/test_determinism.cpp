// The determinism contract of batched delivery: the same seed and
// parameters must produce BIT-IDENTICAL logical-clock and skew
// trajectories whether same-instant deliveries share one engine event
// (batched, what every cell runs) or get one event per message (the
// reference, SimOptions::batched_delivery = false).  That
// is what makes batching a pure performance change, invisible to the
// physics.  The queue itself is checked the same way one layer down:
// test_link.cpp's EngineReplay tests run the streams real cells produce
// through the heap and the calendar queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/network_sim.hpp"
#include "net/delay.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "net/trace.hpp"
#include "obs/recorder.hpp"
#include "sim_fixture.hpp"
#include "util/rng.hpp"

namespace {

using gcs::core::NetworkSimulation;
using gcs::core::SimOptions;
using gcs::core::SyncParams;
using gcs::test::Trace;
using gcs::test::expect_same_trajectory;
using gcs::test::run_scenario;
using gcs::test::test_params;
using gcs::test::walk_schedules;

// shards == 0 is the classic engine, batched or one event per message;
// shards >= 1 the sharded one, which needs the positive delay floor that
// lo = 0.25 gives it (batched is then ignored).
Trace run(const gcs::net::Scenario& scenario, bool batched, std::size_t shards,
          double horizon) {
  SimOptions options;
  options.batched_delivery = batched;
  options.shards = shards;
  return run_scenario(
      scenario, gcs::net::make_uniform_delay(1.0, shards > 0 ? 0.25 : 0.0, 1.0),
      options, horizon);
}

// Runs a scenario batched and one event per message, and checks every
// observable of the batched run against that reference, bit for bit.
void expect_identical_across_modes(const gcs::net::Scenario& scenario,
                                   double horizon) {
  const Trace base = run(scenario, /*batched=*/false, 0, horizon);
  ASSERT_FALSE(base.clocks.empty());
  EXPECT_GT(base.stats.messages_delivered, 0u);
  EXPECT_EQ(base.clamped, 0u);
  EXPECT_EQ(base.stats.delivery_events, base.stats.messages_sent);
  const Trace got = run(scenario, /*batched=*/true, 0, horizon);
  expect_same_trajectory(base, got, scenario.name);
  EXPECT_EQ(got.clamped, 0u);
  // Batching must only ever reduce the delivery event count.
  EXPECT_LE(got.stats.delivery_events, base.stats.delivery_events);
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
  const gcs::net::Scenario complete =
      gcs::net::make_static_scenario(gcs::net::make_complete(n));
  const auto run_complete = [&](bool batched) {
    SimOptions options;
    options.batched_delivery = batched;
    options.check_conformance = false;
    return run_scenario(complete, gcs::net::make_constant_delay(1.0, 0.5),
                        options, 30.0);
  };
  const Trace unbatched = run_complete(false);
  const Trace batched = run_complete(true);
  EXPECT_EQ(unbatched.clocks, batched.clocks);
  EXPECT_EQ(unbatched.stats.messages_delivered,
            batched.stats.messages_delivered);
  // Every broadcast fans out to n-1 receivers at one instant: batched
  // mode needs one event per broadcast, not n-1.
  EXPECT_EQ(unbatched.stats.delivery_events, unbatched.stats.messages_sent);
  EXPECT_LE(batched.stats.delivery_events * (n - 2),
            batched.stats.messages_sent);
}

// Every delivery in execution order: (time, from, to).
class DeliveryLog : public gcs::obs::Recorder {
 public:
  bool wants_trace() const override { return true; }
  void on_trace(const gcs::obs::TraceEvent& e) override {
    if (e.kind == gcs::obs::TraceEvent::Kind::kDeliver) {
      order.emplace_back(e.t, e.a, e.b);
    }
  }
  std::vector<std::tuple<double, std::uint32_t, std::uint32_t>> order;
};

// Hub broadcasts wider than flush_outbox's insertion-sort cutoff, under
// a delay with a few discrete values: each outbox is both out of order
// and full of ties, so the large-outbox sort must reproduce the
// per-message reference's delivery order (send order within an
// instant) exactly.
TEST(DeterminismMatrix, WideOutboxWithTiedDelays) {
  const std::size_t n = 80;
  const gcs::net::Scenario star =
      gcs::net::make_static_scenario(gcs::net::make_star(n));
  gcs::net::DelayModel tied;
  tied.bound = 1.0;
  tied.sample = [](const gcs::net::Edge&, gcs::util::Rng& rng) {
    return 0.25 * static_cast<double>(rng.uniform_int(1, 4));
  };
  const auto run_star = [&](bool batched, DeliveryLog* log) {
    SimOptions options;
    options.batched_delivery = batched;
    options.recorder = log;
    return run_scenario(star, tied, options, 30.0);
  };
  DeliveryLog unbatched_log;
  DeliveryLog batched_log;
  const Trace unbatched = run_star(false, &unbatched_log);
  const Trace batched = run_star(true, &batched_log);
  expect_same_trajectory(unbatched, batched, "wide-outbox star");
  ASSERT_FALSE(unbatched_log.order.empty());
  EXPECT_EQ(unbatched_log.order, batched_log.order);
  // The hub's ties coalesced into shared delivery events.
  EXPECT_LT(batched.stats.delivery_events, unbatched.stats.delivery_events);
}

// ---------------------------------------------------------------------------
// The sharded universe: options.shards >= 1 runs the conservative-
// parallel engine on the delay floor.  Its contract is K-invariance --
// every observable byte identical across shard counts, with shards=1
// (inline, threadless) as the reference.  A
// sharded run is intentionally NOT compared against shards=0: per-node
// RNG streams and per-message delivery events make it a separate
// deterministic universe.
// ---------------------------------------------------------------------------

void expect_identical_across_shard_counts(const gcs::net::Scenario& scenario,
                                          double horizon) {
  const Trace base = run(scenario, true, 1, horizon);
  ASSERT_FALSE(base.clocks.empty());
  EXPECT_GT(base.stats.messages_delivered, 0u);
  EXPECT_EQ(base.clamped, 0u);
  // One engine event per message in sharded mode: the staging path has
  // no same-instant coalescing to do.
  EXPECT_EQ(base.stats.delivery_events, base.stats.messages_sent);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const Trace got = run(scenario, true, shards, horizon);
    const std::string name =
        scenario.name + " shards" + std::to_string(shards);
    expect_same_trajectory(base, got, name);
    EXPECT_EQ(base.stats.delivery_events, got.stats.delivery_events) << name;
    EXPECT_EQ(got.clamped, 0u) << name;
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
  const Trace base = run(scenario, true, 1, 40.0);
  const Trace wide = run(scenario, true, 64, 40.0);
  EXPECT_EQ(base.clocks, wide.clocks);
  EXPECT_EQ(base.stats.messages_delivered, wide.stats.messages_delivered);
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
          gcs::net::make_uniform_delay(p.T, 0.0, p.T),
          walk_schedules(p, 99, 1.0), options),
      std::invalid_argument);
}

}  // namespace
