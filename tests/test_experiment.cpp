#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "harness/serialize.hpp"
#include "net/scenario.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

gcs::harness::ExperimentConfig small_config() {
  gcs::harness::ExperimentConfig cfg;
  cfg.name = "unit";
  cfg.params.n = 8;
  cfg.params.rho = 0.05;
  cfg.params.T = 1.0;
  cfg.params.D = 2.5;
  cfg.params.delta_h = 0.5;
  cfg.topology = "ring";
  cfg.drift = "spread";
  cfg.delay = "uniform";
  cfg.horizon = 40.0;
  cfg.sample_dt = 0.5;
  cfg.seed = 9;
  return cfg;
}

TEST(RunExperiment, StaticRingHasZeroViolations) {
  const auto result = gcs::harness::run_experiment(small_config());
  EXPECT_EQ(result.global_violations, 0u);
  EXPECT_EQ(result.envelope_violations, 0u);
  EXPECT_GT(result.samples, 0u);
  EXPECT_GT(result.events_executed, 0u);
  EXPECT_GT(result.run_stats.messages_delivered, 0u);
  EXPECT_GT(result.max_global_skew, 0.0);  // drift does open real skew...
  EXPECT_LE(result.max_global_skew, result.global_skew_bound);  // ...bounded
  EXPECT_EQ(result.run_stats.messages_dropped, 0u);  // static graph
}

TEST(RunExperiment, ChurnScenarioHasZeroViolations) {
  auto cfg = small_config();
  cfg.params.n = 12;
  cfg.drift = "walk";
  cfg.horizon = 60.0;
  gcs::util::Rng rng(5);
  cfg.scenario =
      gcs::net::make_churn_scenario(12, 6, 10.0, cfg.horizon, rng);
  const auto result = gcs::harness::run_experiment(cfg);
  EXPECT_EQ(result.global_violations, 0u);
  EXPECT_EQ(result.envelope_violations, 0u);
  EXPECT_GT(result.run_stats.topology_events_applied, 0u);
  EXPECT_LE(result.max_global_skew, result.global_skew_bound);
}

TEST(RunExperiment, DeterministicPerSeed) {
  const auto a = gcs::harness::run_experiment(small_config());
  const auto b = gcs::harness::run_experiment(small_config());
  EXPECT_EQ(a.max_global_skew, b.max_global_skew);
  EXPECT_EQ(a.max_local_skew, b.max_local_skew);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.run_stats.messages_delivered, b.run_stats.messages_delivered);
  EXPECT_EQ(a.run_stats.jumps, b.run_stats.jumps);

  auto other = small_config();
  other.seed = 10;  // different delays -> different skew trajectory
  const auto c = gcs::harness::run_experiment(other);
  EXPECT_NE(a.max_global_skew, c.max_global_skew);
}

TEST(RunExperiment, ConstantDelayStringParses) {
  auto cfg = small_config();
  cfg.delay = "constant:0.5";
  const auto result = gcs::harness::run_experiment(cfg);
  EXPECT_EQ(result.global_violations + result.envelope_violations, 0u);
}

TEST(RunExperiment, RejectsBadConfigs) {
  auto cfg = small_config();
  cfg.topology = "torus";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.drift = "quadratic";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.delay = "zipf";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.params.n = 1;
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.horizon = 0.0;
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.sample_dt = -1.0;
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  // delta_h <= 0 used to reschedule every broadcast at its own instant
  // (0: a livelock) or fail late inside the clock (-1); both are refused
  // up front, naming the field.
  for (const double delta_h : {0.0, -1.0}) {
    cfg = small_config();
    cfg.params.delta_h = delta_h;
    try {
      gcs::harness::run_experiment(cfg);
      ADD_FAILURE() << "delta_h=" << delta_h << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'delta_h' must be > 0"),
                std::string::npos)
          << e.what();
    }
  }
  // rho outside (0, 1), D < 0 and B0 < 0 are refused naming the field;
  // they used to fail inside the clock or the B function (rho, D) or
  // run as min_b0 (B0).
  using Config = gcs::harness::ExperimentConfig;
  const std::tuple<const char*, double* (*)(Config&), double> bad[] = {
      {"'rho' must be in (0, 1)", [](Config& c) { return &c.params.rho; }, 0.0},
      {"'rho' must be in (0, 1)", [](Config& c) { return &c.params.rho; }, 1.0},
      {"'rho' must be in (0, 1)", [](Config& c) { return &c.params.rho; }, -0.1},
      {"'D' must be >= 0", [](Config& c) { return &c.params.D; }, -1.0},
      {"'B0' must be >= 0", [](Config& c) { return &c.params.B0; }, -5.0}};
  for (const auto& [message, field, value] : bad) {
    cfg = small_config();
    *field(cfg) = value;
    try {
      gcs::harness::run_experiment(cfg);
      ADD_FAILURE() << message << " " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  // B0 = 0 stays the min_b0 sentinel, and D = 0 is a valid model.
  cfg = small_config();
  cfg.params.B0 = 0.0;
  cfg.params.D = 0.0;
  EXPECT_NO_THROW(gcs::harness::run_experiment(cfg));
}

TEST(RunExperiment, RejectsNonFiniteParameters) {
  // A NaN passes no ordered comparison, so without the up-front check a
  // NaN horizon or D hung the engine and a NaN/Inf B0 ran the whole cell
  // before the serializer refused it.  Each is rejected before any work,
  // naming the field.
  using Config = gcs::harness::ExperimentConfig;
  const std::pair<const char*, double* (*)(Config&)> fields[] = {
      {"rho", [](Config& c) { return &c.params.rho; }},
      {"T", [](Config& c) { return &c.params.T; }},
      {"D", [](Config& c) { return &c.params.D; }},
      {"delta_h", [](Config& c) { return &c.params.delta_h; }},
      {"B0", [](Config& c) { return &c.params.B0; }},
      {"horizon", [](Config& c) { return &c.horizon; }},
      {"sample_dt", [](Config& c) { return &c.sample_dt; }}};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const auto& [name, field] : fields) {
      auto cfg = small_config();
      *field(cfg) = bad;
      try {
        gcs::harness::run_experiment(cfg);
        ADD_FAILURE() << name << "=" << bad << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("'") + name +
                                             "' must be finite"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(RunExperiment, VariantAxisRunsAblationProtocols) {
  // The ablation variants (core::Variant) through the harness.  On this
  // quiet spread-drift ring the blocking cap never binds, so noblock and
  // weighted track plain DCSA's physics, while nojump free-runs: with
  // constant rates evenly spaced over [1-rho, 1+rho] and no catch-up,
  // the skew at the final sample is exactly 2 * rho * horizon.
  const auto dcsa_cfg = small_config();
  const auto dcsa = gcs::harness::run_experiment(dcsa_cfg);

  auto nojump_cfg = dcsa_cfg;
  nojump_cfg.variant = "nojump";
  const auto nojump = gcs::harness::run_experiment(nojump_cfg);
  EXPECT_NEAR(nojump.max_global_skew, 2.0 * 0.05 * 40.0, 1e-6);
  EXPECT_GT(nojump.max_global_skew, dcsa.max_global_skew);
  EXPECT_EQ(nojump.run_stats.jumps, 0u);
  EXPECT_GT(nojump.run_stats.messages_sent, 0u);  // broadcasts continue

  for (const char* variant : {"noblock", "weighted:0.5"}) {
    auto cfg = dcsa_cfg;
    cfg.variant = variant;
    const auto result = gcs::harness::run_experiment(cfg);
    EXPECT_EQ(result.global_violations, 0u) << variant;
    EXPECT_NEAR(result.max_global_skew, dcsa.max_global_skew, 1e-9)
        << variant;
  }
}

TEST(RunExperiment, VariantValidationIsLoud) {
  // A malformed variant must refuse to run rather than silently measure
  // the wrong protocol.
  auto cfg = small_config();
  for (const char* variant : {"bogus", "weighted:0", "weighted:1.5",
                              "weightedx", "nojump:1"}) {
    cfg.variant = variant;
    EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument)
        << variant;
  }
}

// Expects run_experiment(cfg) to throw std::invalid_argument whose
// message quotes `spec` in full.
void expect_rejected(const gcs::harness::ExperimentConfig& cfg,
                     const std::string& spec) {
  try {
    gcs::harness::run_experiment(cfg);
    ADD_FAILURE() << "'" << spec << "' was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + spec + "'"), std::string::npos)
        << e.what();
  }
}

TEST(RunExperiment, NumberGrammarsRejectPartialTokens) {
  // Every number in the delay and variant grammars is one whole finite
  // token: a numeric prefix with trailing junk, an empty token or a
  // non-number fails naming the full spec (std::stod used to accept the
  // prefix, or fail with a bare "stod").
  for (const char* delay :
       {"constant:0.25junk", "uniform:0.25:1junk", "constant:x", "constant:",
        "uniform:", "uniform:0.25:", "uniform:0.25:1:2", "constant:inf",
        "constant:nan", "constant: 0.25", "constantx",
        // JSON number syntax only: hex, a leading '+' or '.' and overflow
        // are refused, and the delay takes bare numbers, not key=value.
        "constant:0x1p-1", "constant:+0.5", "constant:.5", "uniform:1e400",
        "uniform::1", "uniform:lo=0.25"}) {
    auto cfg = small_config();
    cfg.delay = delay;
    expect_rejected(cfg, delay);
  }
  for (const char* variant :
       {"weighted:0.5junk", "weighted:", "weighted:x", "weighted:nan",
        "weighted:inf", "weighted:+0.5", "weighted:.5", "weighted:0x1p-1",
        "weighted:w=0.5", "dcsa:1"}) {
    auto cfg = small_config();
    cfg.variant = variant;
    expect_rejected(cfg, variant);
  }
  // The traffic holes of the old std::stod reader: NaN knobs ran and
  // passed --check, an infinite bw or msg broke the artifact writer, and
  // hex ran as its value.
  for (const char* traffic :
       {"idle:mark=nan", "idle:queue=nan:bw=8000", "cbr:bw=inf:rate=2",
        "idle:msg=inf:bw=8000", "cbr:bw=0x1F40:rate=2"}) {
    auto cfg = small_config();
    cfg.traffic = traffic;
    expect_rejected(cfg, traffic);
    EXPECT_THROW(gcs::harness::read_axes(cfg), std::invalid_argument)
        << traffic;
  }
  // The workload specs keep their exact values: other spellings of the
  // same doubles produce the same run.
  const auto same_run = [](const char* a, const char* b) {
    auto cfg_a = small_config();
    cfg_a.delay = a;
    auto cfg_b = small_config();
    cfg_b.delay = b;
    EXPECT_EQ(gcs::util::json::dump(gcs::harness::to_json(
                  gcs::harness::run_experiment(cfg_a))),
              gcs::util::json::dump(gcs::harness::to_json(
                  gcs::harness::run_experiment(cfg_b))))
        << a << " vs " << b;
  };
  same_run("constant:0.25", "constant:2.5e-1");
  same_run("uniform:0.25:1", "uniform:0.250:1.0");
}

TEST(RunExperiment, DelaysOutsideZeroToTAreRejected) {
  // Every delay is clamped into [0, T] when it is drawn, so a spec that
  // reaches outside would run a different distribution than it names.
  // small_config has T = 1.
  for (const char* delay :
       {"constant:-1", "constant:5", "constant:1.0001", "uniform:-0.5",
        "uniform:0:5", "uniform:0.25:1.5", "uniform:2", "uniform:0.5:0.25"}) {
    auto cfg = small_config();
    cfg.delay = delay;
    expect_rejected(cfg, delay);
  }
  for (const char* delay : {"constant:0", "constant:1", "uniform:0:1"}) {
    auto cfg = small_config();
    cfg.delay = delay;
    cfg.horizon = 4.0;
    EXPECT_NO_THROW(gcs::harness::run_experiment(cfg)) << delay;
  }
}

TEST(RunExperiment, VariantsAreInvariantAcrossShards) {
  // Every variant runs in the one kernel under every execution layout:
  // within the sharded universe each is byte-identical across shard
  // counts (engine_stats describes the scheduler, not the trajectory, so
  // it is left out of the comparison).
  for (const char* variant : {"weighted:0.5", "noblock", "nojump"}) {
    std::string reference;
    for (const std::uint64_t shards : {1u, 4u}) {
      auto cfg = small_config();
      cfg.params.n = 12;
      cfg.drift = "walk";
      cfg.delay = "uniform:0.25:1";
      cfg.variant = variant;
      cfg.shards = shards;
      gcs::util::Rng rng(5);
      cfg.scenario =
          gcs::net::make_churn_scenario(12, 6, 10.0, cfg.horizon, rng);
      gcs::util::json::Value doc =
          gcs::harness::to_json(gcs::harness::run_experiment(cfg));
      EXPECT_GT(doc.at("run_stats").at("messages_delivered").as_u64(), 0u);
      doc.as_object().erase("engine_stats");
      const std::string bytes = gcs::util::json::dump(doc);
      if (reference.empty()) reference = bytes;
      EXPECT_EQ(bytes, reference) << variant << " shards=" << shards;
    }
  }
}

TEST(RunExperiment, SampleAtHorizonBoundaryFiresUnderBothEngines) {
  // The periodic sample scheduled exactly at t == horizon fires: both the
  // classic engine's and the sharded engine's run_until execute events
  // with t <= horizon, so horizon == k*sample_dt (with both exact in
  // binary floating point) yields exactly k samples.  Pinned so `samples`
  // cannot drift across engine refactors.
  for (const std::uint64_t shards : {0u, 1u}) {
    auto cfg = small_config();
    cfg.delay = "constant:0.5";  // the floor sharded runs need
    cfg.shards = shards;
    cfg.horizon = 10.0;
    cfg.sample_dt = 0.5;
    const auto result = gcs::harness::run_experiment(cfg);
    EXPECT_EQ(result.samples, 20u) << shards;  // t = 0.5, 1.0, ..., 10.0
  }
}

TEST(RunExperiment, ReportsDeliveryEventStats) {
  // Batched delivery: under constant delay a broadcast's fan-out shares
  // one engine event; under a continuous delay every message gets its own.
  auto cfg = small_config();
  cfg.topology = "complete";
  cfg.delay = "constant:0.5";
  const auto slotted = gcs::harness::run_experiment(cfg);
  EXPECT_LT(slotted.run_stats.delivery_events,
            slotted.run_stats.messages_sent / 2);
  cfg.delay = "uniform";
  const auto continuous = gcs::harness::run_experiment(cfg);
  EXPECT_EQ(continuous.run_stats.delivery_events,
            continuous.run_stats.messages_sent);
}

}  // namespace
