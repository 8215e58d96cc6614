#include "cli/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "util/json.hpp"

namespace {

namespace cli = gcs::cli;
namespace json = gcs::util::json;

cli::Campaign from_text(const std::string& text,
                        std::map<std::string, std::string> overrides = {}) {
  const json::Value doc = json::parse(text);
  return cli::build_campaign(&doc, overrides);
}

TEST(Campaign, ExpandsCrossProductInCanonicalOrder) {
  const cli::Campaign campaign = from_text(R"({
    "name": "unit",
    "defaults": {"rho": 0.01, "horizon": 30},
    "sweep": {
      "n": [8, 16],
      "topology": ["ring", "complete"],
      "seeds": {"base": 1, "count": 3}
    }
  })");
  ASSERT_EQ(campaign.cells.size(), 12u);  // 2 * 2 * 3
  EXPECT_EQ(campaign.name, "unit");

  std::set<std::string> labels;
  for (const cli::Cell& cell : campaign.cells) {
    labels.insert(cell.label);
    EXPECT_DOUBLE_EQ(cell.config.params.rho, 0.01);
    EXPECT_DOUBLE_EQ(cell.config.horizon, 30.0);
    EXPECT_TRUE(cell.scenario.is_static());
    EXPECT_EQ(cell.config.name, "unit/" + cell.label);
  }
  EXPECT_EQ(labels.size(), 12u);  // labels are unique

  // Canonical order: n varies slowest, seed fastest.
  EXPECT_EQ(campaign.cells[0].label, "000-n8-ring-s1");
  EXPECT_EQ(campaign.cells[1].label, "001-n8-ring-s2");
  EXPECT_EQ(campaign.cells[3].label, "003-n8-complete-s1");
  EXPECT_EQ(campaign.cells[11].label, "011-n16-complete-s3");
  EXPECT_EQ(campaign.cells[11].config.params.n, 16u);
  EXPECT_EQ(campaign.cells[11].config.seed, 3u);

  // The axis metadata --list prints: canonical order, pinned defaults
  // contribute cardinality 1, and the product is the cell count.
  ASSERT_EQ(campaign.axes.size(), 5u);
  EXPECT_EQ(campaign.axes[0].key, "n");
  EXPECT_EQ(campaign.axes[0].cardinality, 2u);
  EXPECT_EQ(campaign.axes[1].key, "topology");
  EXPECT_EQ(campaign.axes[1].cardinality, 2u);
  EXPECT_EQ(campaign.axes[2].key, "rho");
  EXPECT_EQ(campaign.axes[2].cardinality, 1u);
  EXPECT_EQ(campaign.axes[3].key, "horizon");
  EXPECT_EQ(campaign.axes[3].cardinality, 1u);
  EXPECT_EQ(campaign.axes[4].key, "seed");
  EXPECT_EQ(campaign.axes[4].cardinality, 3u);
  std::size_t product = 1;
  for (const cli::AxisInfo& axis : campaign.axes) product *= axis.cardinality;
  EXPECT_EQ(product, campaign.cells.size());
}

TEST(Campaign, TrafficAxisSweepsAndValidatesSpecs) {
  const cli::Campaign campaign = from_text(R"({
    "name": "load",
    "defaults": {"n": 8, "delay": "constant:0.5"},
    "sweep": {"traffic": ["off", "cbr:bw=4000:rate=10"]}
  })");
  ASSERT_EQ(campaign.cells.size(), 2u);
  EXPECT_EQ(campaign.cells[0].config.traffic, "off");
  EXPECT_EQ(campaign.cells[1].config.traffic, "cbr:bw=4000:rate=10");
  // The traffic axis sits between delay and variant in label order, and
  // the spec's ':'/'=' sanitize to '-' in the label part.
  EXPECT_EQ(campaign.cells[1].label, "001-cbr-bw-4000-rate-10");
}

TEST(Campaign, VariantAxisSweepsProtocols) {
  // The ablation axis (campaigns/ablation_frontier.json): every cell
  // carries its protocol variant in config and label.
  const cli::Campaign campaign = from_text(R"({
    "name": "abl",
    "defaults": {"n": 8},
    "sweep": {"variant": ["dcsa", "weighted:0.5", "nojump"]}
  })");
  ASSERT_EQ(campaign.cells.size(), 3u);
  EXPECT_EQ(campaign.cells[0].config.variant, "dcsa");
  EXPECT_EQ(campaign.cells[1].config.variant, "weighted:0.5");
  EXPECT_EQ(campaign.cells[2].config.variant, "nojump");
  EXPECT_NE(campaign.cells[1].label.find("weighted"), std::string::npos)
      << campaign.cells[1].label;
  // The store, engine and delivery axes are retired (one kernel, the
  // calendar queue, batched delivery), so each is an unknown key in a
  // campaign file and as a flag, even with a value a cell once ran.
  for (const auto& [axis, value] :
       {std::pair<std::string, std::string>{"store", "columns"},
        {"engine", "calendar"},
        {"delivery", "batched"}}) {
    const std::string field = "\"" + axis + "\": ";
    EXPECT_THROW(from_text("{\"defaults\": {" + field + "\"" + value + "\"}}"),
                 std::invalid_argument)
        << axis;
    EXPECT_THROW(from_text("{\"sweep\": {" + field + "[\"" + value + "\"]}}"),
                 std::invalid_argument)
        << axis;
    EXPECT_THROW(from_text(R"({"defaults": {"n": 8}})", {{axis, value}}),
                 std::invalid_argument)
        << axis;
  }
}

TEST(Campaign, SeedListAndUnsweptAxesKeepDefaults) {
  const cli::Campaign campaign = from_text(R"({
    "name": "seeds",
    "sweep": {"seeds": [7, 9]}
  })");
  ASSERT_EQ(campaign.cells.size(), 2u);
  EXPECT_EQ(campaign.cells[0].config.seed, 7u);
  EXPECT_EQ(campaign.cells[1].config.seed, 9u);
  // Untouched axes keep the ExperimentConfig defaults.
  EXPECT_EQ(campaign.cells[0].config.topology, "path");
  EXPECT_EQ(campaign.cells[0].config.drift, "spread");
  EXPECT_EQ(campaign.cells[0].config.params.n, 2u);
}

TEST(Campaign, ScenarioAxisSweepsGenerators) {
  const cli::Campaign campaign = from_text(R"({
    "name": "dyn",
    "defaults": {"n": 10, "horizon": 40},
    "sweep": {
      "scenario": [
        {"kind": "churn", "volatile_edges": 4, "lifetime": 5},
        {"kind": "switching-star", "period": 8, "overlap": 2}
      ],
      "seeds": [1, 2]
    }
  })");
  ASSERT_EQ(campaign.cells.size(), 4u);
  EXPECT_EQ(campaign.cells[0].scenario.kind, "churn");
  EXPECT_EQ(campaign.cells[0].scenario.volatile_edges, 4u);
  EXPECT_EQ(campaign.cells[2].scenario.kind, "switching-star");
  EXPECT_DOUBLE_EQ(campaign.cells[2].scenario.period, 8.0);

  // instantiate() resolves the spec against the cell's n/horizon/seed,
  // deterministically.
  const gcs::harness::ExperimentConfig a =
      cli::instantiate(campaign.cells[0]);
  const gcs::harness::ExperimentConfig b =
      cli::instantiate(campaign.cells[0]);
  ASSERT_TRUE(a.scenario.has_value());
  EXPECT_EQ(a.scenario->n, 10u);
  EXPECT_EQ(a.scenario->events.size(), b.scenario->events.size());
  EXPECT_GT(a.scenario->events.size(), 0u);

  // Different seeds draw different churn adversaries.
  const gcs::harness::ExperimentConfig c =
      cli::instantiate(campaign.cells[1]);
  bool differs = a.scenario->events.size() != c.scenario->events.size();
  for (std::size_t i = 0;
       !differs && i < a.scenario->events.size(); ++i) {
    differs = a.scenario->events[i].at != c.scenario->events[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(Campaign, OverridesPinOrResweepAxes) {
  const std::string text = R"({
    "name": "base",
    "sweep": {"drift": ["spread", "walk"], "n": [4, 8]}
  })";
  // Scalar override pins a swept axis.
  const cli::Campaign pinned = from_text(text, {{"drift", "walk"}});
  ASSERT_EQ(pinned.cells.size(), 2u);
  for (const cli::Cell& cell : pinned.cells) {
    EXPECT_EQ(cell.config.drift, "walk");
  }
  // List override re-sweeps; ranges expand inclusively.
  const cli::Campaign reswept = from_text(text, {{"seeds", "1..3"}});
  EXPECT_EQ(reswept.cells.size(), 2u * 2u * 3u);
  // Name override renames the campaign.
  const cli::Campaign renamed = from_text(text, {{"name", "other"}});
  EXPECT_EQ(renamed.name, "other");
  EXPECT_EQ(renamed.cells[0].config.name.rfind("other/", 0), 0u);
}

TEST(Campaign, FlagsOnlyMode) {
  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"n", "4,6"}, {"drift", "walk"}, {"topology", "ring"}});
  ASSERT_EQ(campaign.cells.size(), 2u);
  EXPECT_EQ(campaign.name, "adhoc");
  EXPECT_EQ(campaign.cells[0].config.params.n, 4u);
  EXPECT_EQ(campaign.cells[1].config.params.n, 6u);
  EXPECT_EQ(campaign.cells[0].config.drift, "walk");
  EXPECT_EQ(campaign.cells[0].config.topology, "ring");
}

TEST(Campaign, ScenarioFlagSyntax) {
  const cli::ScenarioSpec spec =
      cli::ScenarioSpec::from_flag("churn:lifetime=5:volatile_edges=3");
  EXPECT_EQ(spec.kind, "churn");
  EXPECT_DOUBLE_EQ(spec.lifetime, 5.0);
  EXPECT_EQ(spec.volatile_edges, 3u);

  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"n", "6"}, {"scenario", "mobility:backbone=true:radius=0.4"}});
  ASSERT_EQ(campaign.cells.size(), 1u);
  EXPECT_EQ(campaign.cells[0].scenario.kind, "mobility");
  EXPECT_DOUBLE_EQ(campaign.cells[0].scenario.radius, 0.4);

  EXPECT_THROW(cli::ScenarioSpec::from_flag("churn:period=3"),
               std::invalid_argument);  // knob of the wrong kind
  EXPECT_THROW(cli::ScenarioSpec::from_flag("warp"), std::invalid_argument);
  // strtod reads these whole; the refusal names the knob and the value.
  for (const char* value : {"nan", "inf", "1e400"}) {
    try {
      cli::ScenarioSpec::from_flag(std::string("churn:lifetime=") + value);
      ADD_FAILURE() << "accepted lifetime=" << value;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'lifetime'"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + value + "'"), std::string::npos)
          << what;
    }
  }
  // Campaign validation refuses knobs the generators cannot run, naming
  // the knob and the value: a non-positive lifetime, and a count knob
  // that is not a whole number >= 0 (huge values are not exact).
  const std::pair<const char*, const char*> refused[] = {
      {"churn:lifetime=-1", "'lifetime' must be > 0, got '-1'"},
      {"churn:lifetime=0", "'lifetime' must be > 0, got '0'"},
      {"churn:volatile_edges=2.5", "'volatile_edges' must be a whole number"},
      {"churn:volatile_edges=-3", "got '-3'"},
      {"churn:volatile_edges=1e30", "'volatile_edges' must be a whole number"},
      {"group:groups=1.5", "'groups' must be a whole number >= 0, got '1.5'"},
      // strtod read hex whole, so this ran as lifetime 16.
      {"churn:lifetime=0x10", "'lifetime' must be a number, got '0x10'"},
      {"churn:lifetime=+5", "'lifetime' must be a number, got '+5'"},
      {"churn:lifetime=5:lifetime=6", "knob 'lifetime' is given twice"},
      {"mobility:backbone=yes", "'backbone' must be true or false, got '\"yes\"'"},
  };
  for (const auto& [flag, message] : refused) {
    try {
      cli::build_campaign(nullptr, {{"n", "6"}, {"scenario", flag}});
      ADD_FAILURE() << "accepted " << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << flag << ": " << e.what();
    }
  }
  // The same rules hold for the JSON form of a spec.
  json::Value doc;
  doc["kind"] = "churn";
  doc["lifetime"] = -2.0;
  EXPECT_THROW(cli::ScenarioSpec::from_json(doc), std::invalid_argument);
}

TEST(Campaign, SpecJsonRoundTrip) {
  const cli::ScenarioSpec spec =
      cli::ScenarioSpec::from_flag("mobility:radius=0.5:backbone=false");
  const cli::ScenarioSpec back = cli::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(json::dump(back.to_json()), json::dump(spec.to_json()));
  EXPECT_FALSE(back.backbone);
}

TEST(Campaign, NewGeneratorSpecsRoundTripAndValidate) {
  // Gauss-Markov: every knob serializes and survives the round trip.
  const cli::ScenarioSpec gm = cli::ScenarioSpec::from_flag(
      "gauss-markov:alpha=0.9:mean_speed=0.05:speed_sigma=0.02:dir_sigma=0.3:"
      "backbone=false:connect_window=3.5");
  EXPECT_EQ(gm.kind, "gauss-markov");
  EXPECT_DOUBLE_EQ(gm.alpha, 0.9);
  EXPECT_DOUBLE_EQ(gm.connect_window, 3.5);
  const cli::ScenarioSpec gm_back = cli::ScenarioSpec::from_json(gm.to_json());
  EXPECT_EQ(json::dump(gm_back.to_json()), json::dump(gm.to_json()));

  const cli::ScenarioSpec grp = cli::ScenarioSpec::from_flag(
      "group:groups=4:group_radius=0.1:switch_prob=0.05");
  EXPECT_EQ(grp.groups, 4u);
  const cli::ScenarioSpec grp_back =
      cli::ScenarioSpec::from_json(grp.to_json());
  EXPECT_EQ(json::dump(grp_back.to_json()), json::dump(grp.to_json()));

  // Knob strictness still applies per kind.
  EXPECT_THROW(cli::ScenarioSpec::from_flag("gauss-markov:lifetime=5"),
               std::invalid_argument);
  EXPECT_THROW(cli::ScenarioSpec::from_flag("group:alpha=0.5"),
               std::invalid_argument);
}

TEST(Campaign, TraceSpecCarriesPathAndRequiresIt) {
  // The path knob is a string; flag parsing must not mangle it, and the
  // JSON round trip must preserve it (this is what makes a trace cell
  // re-runnable from its result document).
  const cli::ScenarioSpec spec = cli::ScenarioSpec::from_flag(
      "trace:path=campaigns/traces/example_contacts.csv:connect_window=3.5");
  EXPECT_EQ(spec.kind, "trace");
  EXPECT_EQ(spec.path, "campaigns/traces/example_contacts.csv");
  EXPECT_DOUBLE_EQ(spec.connect_window, 3.5);
  const cli::ScenarioSpec back = cli::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back.path, spec.path);
  EXPECT_EQ(json::dump(back.to_json()), json::dump(spec.to_json()));

  // A trace spec without a path is a loud error, not a later file-not-
  // found surprise.
  EXPECT_THROW(cli::ScenarioSpec::from_flag("trace"), std::invalid_argument);
  EXPECT_THROW(cli::ScenarioSpec::from_flag("trace:connect_window=2"),
               std::invalid_argument);
  // A missing trace file fails at build (= cell instantiation) time.
  cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"n", "4"}, {"scenario", "trace:path=/no/such/trace.csv"}});
  ASSERT_EQ(campaign.cells.size(), 1u);
  EXPECT_THROW(cli::instantiate(campaign.cells[0]), std::runtime_error);
}

TEST(Campaign, RejectsMalformedCampaigns) {
  EXPECT_THROW(from_text(R"({"swep": {}})"), std::invalid_argument);
  EXPECT_THROW(from_text(R"({"sweep": {"warp": [1]}})"),
               std::invalid_argument);
  EXPECT_THROW(from_text(R"({"defaults": {"topologyy": "ring"}})"),
               std::invalid_argument);
  EXPECT_THROW(from_text(R"({"sweep": {"n": []}})"), std::invalid_argument);
  EXPECT_THROW(
      from_text(R"({"sweep": {"seeds": {"base": 1, "cont": 3}}})"),
      std::invalid_argument);
  // Workload axis must be topology or scenario, not both.
  EXPECT_THROW(from_text(R"({
    "defaults": {"topology": "ring"},
    "sweep": {"scenario": [{"kind": "churn"}]}
  })"),
               std::invalid_argument);
  // Unknown override key.
  EXPECT_THROW(cli::build_campaign(nullptr, {{"warp", "9"}}),
               std::invalid_argument);
  // Cross-product explosion guard -- including before the seeds axis is
  // materialized, so an absurd count cannot allocate first.
  EXPECT_THROW(from_text(R"({"sweep": {"seeds": {"base": 0, "count": 20000}}})"),
               std::invalid_argument);
  EXPECT_THROW(
      from_text(R"({"sweep": {"seeds": {"base": 1, "count": 200000000}}})"),
      std::invalid_argument);
  // Ranges are strictly integer: a float-looking range must fail loudly,
  // not strtoull-truncate into a silently different sweep.
  EXPECT_THROW(cli::build_campaign(nullptr, {{"rho", "0.01..0.05"}}),
               std::invalid_argument);
  EXPECT_THROW(cli::build_campaign(nullptr, {{"seeds", "1..x"}}),
               std::invalid_argument);
}

// A value of the wrong kind, from a file or a flag, is refused naming
// its field (and, for a flag, the value that could not be held).
TEST(Campaign, MistypedValuesNameTheField) {
  const auto expect_named = [](const std::function<void()>& build,
                               const std::string& message) {
    try {
      build();
      ADD_FAILURE() << "accepted; wanted '" << message << "'";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  expect_named([] { from_text(R"({"defaults": {"horizon": "2"}})"); },
               "config key 'horizon' must be a number, got '\"2\"'");
  expect_named(
      [] {
        from_text(R"({"sweep": {"scenario": [{"kind": "churn",
                                              "lifetime": "5"}]}})");
      },
      "scenario knob 'lifetime' must be a number, got '\"5\"'");
  const std::pair<const char*, const char*> flags[] = {
      {"horizon=abc", "config key 'horizon' must be a number"},
      {"n=2.5", "config key 'n' must be a whole number >= 0, got '2.5'"},
      {"n=1e30", "config key 'n' must be a whole number >= 0"},
      {"seed=-1", "config key 'seed' must be a whole number >= 0, got '-1'"},
      {"shards=1.5", "config key 'shards' must be a whole number >= 0"},
      {"seed=1e400", "--seed must be finite, got '1e400'"},
      {"horizon=nan", "--horizon must be finite, got 'nan'"},
      {"rho=-inf", "--rho must be finite, got '-inf'"},
      // strtod read hex whole, so this ran as n = 16; JSON syntax has no
      // hex, so the text stays a string and fails the field's kind.
      {"n=0x10", "config key 'n' must be a whole number >= 0, got '\"0x10\"'"},
      {"horizon=+5", "config key 'horizon' must be a number, got '\"+5\"'"},
      // A boolean in a swept numeric list reached the cell label first,
      // which failed as "json: expected number, got bool".
      {"n=8,true", "config key 'n' must be a whole number >= 0, got 'true'"},
      // T <= 0 failed as the default delay spec or a delay model's
      // "bad bounds", naming neither T nor its value.
      {"T=-1", "config key 'T' must be > 0, got '-1'"},
      {"T=0", "config key 'T' must be > 0, got '0'"},
  };
  for (const auto& [flag, message] : flags) {
    const std::string text = flag;
    const std::string key = text.substr(0, text.find('='));
    const std::string value = text.substr(text.find('=') + 1);
    expect_named(
        [&] { cli::build_campaign(nullptr, {{key, value}}); },
        message);
  }
}

// Every cell's model constants, delay (against that cell's T), traffic
// and variant are checked while the campaign expands, with the reader
// run_experiment uses, so a bad value fails before any cell runs, naming
// the field, or the axis, the knob and the text.
TEST(Campaign, BadAxisSpecsFailAtExpansion) {
  const std::pair<std::map<std::string, std::string>, const char*> refused[] = {
      {{{"delay", "unifrom"}}, "delay 'unifrom': unknown kind"},
      {{{"delay", "constant:0x1p-1"}}, "'x' must be a number, got '0x1p-1'"},
      {{{"delay", "uniform:0.25:nan"}}, "'hi' must be finite, got 'nan'"},
      {{{"traffic", "cbr:rate=nope"}}, "'rate' must be a number, got 'nope'"},
      {{{"traffic", "idle:mark=nan"}}, "'mark' must be finite, got 'nan'"},
      {{{"traffic", "idle:queue=nan:bw=8000"}}, "'queue' must be finite"},
      {{{"traffic", "cbr:bw=inf:rate=2"}}, "'bw' must be finite, got 'inf'"},
      {{{"traffic", "idle:msg=inf:bw=8000"}}, "'msg' must be finite"},
      {{{"traffic", "cbr:bw=0x1F40:rate=2"}}, "'bw' must be a number"},
      {{{"variant", "weigthed"}}, "variant 'weigthed': unknown kind"},
      {{{"variant", "weighted:inf"}}, "'w' must be finite, got 'inf'"},
      // Drift and topology names: a bad drift used to expand as valid and
      // a bad topology to error every cell at run time.
      {{{"drift", "foo"}}, "drift 'foo': unknown kind (expected spread | "
                           "walk | two-camp)"},
      {{{"topology", "ring,cube"}}, "topology 'cube': unknown kind (expected "
                                    "path | ring | star | complete)"},
      // One bad value in a sweep fails the whole expansion.
      {{{"traffic", "off,idle:bw=fast"}}, "'bw' must be a number, got 'fast'"},
      // The delay bound is the cell's own T.
      {{{"T", "0.5,1"}, {"delay", "constant:0.75"}},
       "delay 'constant:0.75': must lie within [0, T]"},
      // Model constants out of range used to expand and then error every
      // cell at run time.
      {{{"rho", "0.05,2"}}, "config key 'rho' must be in (0, 1), got '2'"},
      {{{"n", "1"}}, "config key 'n' must be >= 2, got '1'"},
      {{{"delta_h", "0"}}, "config key 'delta_h' must be > 0, got '0'"},
      {{{"horizon", "0"}}, "config key 'horizon' must be > 0, got '0'"},
      {{{"B0", "-1"}}, "config key 'B0' must be >= 0 (0 selects min_b0), "
                       "got '-1'"},
      {{{"D", "-1"}}, "config key 'D' must be >= 0, got '-1'"},
      {{{"sample_dt", "0"}}, "config key 'sample_dt' must be > 0, got '0'"},
  };
  for (const auto& [flags, message] : refused) {
    std::map<std::string, std::string> overrides = flags;
    overrides.emplace("n", "8");
    try {
      cli::build_campaign(nullptr, overrides);
      ADD_FAILURE() << "accepted; wanted '" << message << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  // A campaign file's sweep is checked the same way.
  const json::Value doc = json::parse(
      R"({"defaults": {"n": 8}, "sweep": {"variant": ["dcsa", "nojump:1"]}})");
  EXPECT_THROW(cli::build_campaign(&doc, {}), std::invalid_argument);
  EXPECT_EQ(cli::build_campaign(nullptr, {{"n", "8"},
                                          {"T", "1"},
                                          {"delay", "constant:0.75"}})
                .cells.size(),
            1u);
}

// The --key=value override grammar (comma lists, whole-number ranges
// a..b, numbers, booleans, axis specs), seeded the way test_spec.cpp seeds
// its spec mutants: drop, duplicate or swap a byte, insert a hostile
// token, or repeat a ','-separated list element.  Each mutant must either
// expand to cells whose config numbers are all finite, under the
// 10000-cell cap, or throw std::invalid_argument naming the flag -- never
// run as NaN/Inf, never fail with another exception type.  A value of
// the wrong kind is refused by the config reader as util::json::Error,
// the other refusal build_campaign documents, and must name the flag too.
TEST(Campaign, SeededOverrideMutantsExpandOrNameTheirFlag) {
  const std::pair<const char*, const char*> kCorpus[] = {
      {"n", "8,16"},         {"seeds", "1..3"},
      {"seed", "7"},         {"rho", "0.01,0.05"},
      {"T", "1"},            {"D", "2.5"},
      {"delta_h", "0.5"},    {"B0", "0,20"},
      {"horizon", "30"},     {"sample_dt", "0.5,1"},
      {"shards", "0,1,4"},   {"topology", "ring,complete"},
      {"drift", "walk,spread,two-camp"},
      {"delay", "constant:0.5,uniform:0.25:1"},
      {"variant", "dcsa,weighted:0.25"},
      {"traffic", "off,idle"},
  };
  const char* const kTokens[] = {",", "..", "true", "false", "nan", "inf",
                                 "1e400", "-", "0x10", "99", "1e3", " "};
  std::mt19937_64 rng(20261020);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto& [key, seed_text] = kCorpus[pick(std::size(kCorpus))];
    std::string text = seed_text;
    for (std::size_t m = 1 + pick(3); m > 0; --m) {
      const std::size_t at = pick(text.size() + 1);
      switch (pick(5)) {
        case 0:  // drop a byte
          if (at < text.size()) text.erase(at, 1);
          break;
        case 1:  // duplicate a byte
          if (at < text.size()) text.insert(at, 1, text[at]);
          break;
        case 2:  // swap two neighbouring bytes
          if (at + 1 < text.size()) std::swap(text[at], text[at + 1]);
          break;
        case 3:  // insert a hostile token
          text.insert(at, kTokens[pick(std::size(kTokens))]);
          break;
        default: {  // repeat a list element
          const std::size_t start = text.rfind(',', at);
          const std::size_t from = start == std::string::npos ? 0 : start + 1;
          const std::size_t end = text.find(',', from);
          text += "," + text.substr(from, end == std::string::npos
                                              ? std::string::npos
                                              : end - from);
        }
      }
    }
    const std::string flag = std::string("--") + key + "=" + text;
    try {
      const cli::Campaign campaign = cli::build_campaign(nullptr, {{key, text}});
      ASSERT_GE(campaign.cells.size(), 1u) << flag;
      ASSERT_LE(campaign.cells.size(), 10000u) << flag;
      for (const cli::Cell& cell : campaign.cells) {
        const json::Value doc = gcs::harness::config_to_json(cell.config);
        for (const auto& [field, value] : doc.as_object()) {
          if (value.is_number()) {
            ASSERT_TRUE(std::isfinite(value.as_number())) << field << " in " << flag;
          }
        }
      }
      ++accepted;
    } catch (const std::exception& e) {
      if (!dynamic_cast<const std::invalid_argument*>(&e) &&
          !dynamic_cast<const json::Error*>(&e)) {
        ADD_FAILURE() << flag << " threw " << typeid(e).name() << ": "
                      << e.what();
        continue;
      }
      // "--seed", "config key 'seed'" or "delay '...'"; seeds is seed.
      const std::string what = e.what();
      const std::string name = std::string(key) == "seeds" ? "seed" : key;
      EXPECT_TRUE(what.find("--" + name) != std::string::npos ||
                  what.find("'" + name + "'") != std::string::npos ||
                  what.find(name + " '") != std::string::npos)
          << flag << " -> " << what;
      ++refused;
    }
  }
  // Both outcomes must be common, or the stream tests nothing.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(refused, 1000u);
}

TEST(Campaign, NameIsSanitizedForPathsAndCsv) {
  // Commas would break the CSV schema; slashes and dot-runs would escape
  // the results root.
  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"name", "a,b/../x"}, {"n", "4"}});
  EXPECT_EQ(campaign.name, "a-b-..-x");
  const cli::Campaign dots =
      cli::build_campaign(nullptr, {{"name", ".."}, {"n", "4"}});
  EXPECT_EQ(dots.name, "campaign");
}

}  // namespace
