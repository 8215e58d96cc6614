// Unit tests for cli::diff_trees: identical trees, counter vs float
// tolerance semantics, timing exclusion, missing/extra cells, and
// schema-version mismatches -- each against real trees written by
// run_campaign into scratch directories.
#include "cli/diff.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "cli/campaign.hpp"
#include "cli/runner.hpp"
#include "util/json.hpp"

namespace {

namespace cli = gcs::cli;
namespace fs = std::filesystem;
namespace json = gcs::util::json;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gcs_diff" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Writes one small real tree with run_campaign.
fs::path make_tree(const std::string& name,
                   const std::string& campaign_name = "difftest") {
  const fs::path dir = fresh_dir(name);
  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"name", campaign_name}, {"n", "6"}, {"topology", "ring"},
                {"seeds", "1..3"}, {"horizon", "8"}});
  cli::RunnerOptions options;
  options.quiet = true;
  options.fixed_timing = true;
  options.out_dir = dir.string();
  std::ostringstream log;
  EXPECT_EQ(cli::run_campaign(campaign, options, log), 0);
  return dir;
}

// Parses a cell file, lets `mutate` edit the document, writes it back.
void rewrite_cell(const fs::path& tree, const std::string& file,
                  const std::function<void(json::Value&)>& mutate) {
  const fs::path path = tree / "cells" / file;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  json::Value doc = json::parse(buf.str());
  mutate(doc);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json::dump(doc, 2) << "\n";
}

struct DiffRun {
  int rc = 0;
  cli::DiffStats stats;
  std::string log;
};

DiffRun run_diff(const fs::path& a, const fs::path& b,
                 cli::DiffOptions options = {}) {
  DiffRun run;
  std::ostringstream log;
  run.rc = cli::diff_trees(a.string(), b.string(), options, log, &run.stats);
  run.log = log.str();
  return run;
}

TEST(DiffTrees, IdenticalTreesMatchUnderStrict) {
  const fs::path a = make_tree("ident-a");
  const fs::path b = make_tree("ident-b");
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 0);
  EXPECT_TRUE(run.stats.clean());
  EXPECT_EQ(run.stats.cells_compared, 3u);
  EXPECT_NE(run.log.find("trees match"), std::string::npos) << run.log;
}

TEST(DiffTrees, CounterDeltaIsExactEvenWithTolerance) {
  const fs::path a = make_tree("ctr-a");
  const fs::path b = make_tree("ctr-b");
  rewrite_cell(b, "000-s1.json", [](json::Value& doc) {
    doc["result"]["events_executed"] =
        doc.at("result").at("events_executed").as_u64() + 1;
  });
  cli::DiffOptions options;
  options.strict = true;
  options.tolerance = 100.0;  // counters must not care
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 1);
  EXPECT_EQ(run.stats.cells_differing, 1u);
  EXPECT_EQ(run.stats.field_diffs, 1u);
  EXPECT_NE(run.log.find("result.events_executed"), std::string::npos)
      << run.log;
}

TEST(DiffTrees, FloatFieldsRespectTolerance) {
  const fs::path a = make_tree("tol-a");
  const fs::path b = make_tree("tol-b");
  rewrite_cell(b, "001-s2.json", [](json::Value& doc) {
    doc["result"]["max_global_skew"] =
        doc.at("result").at("max_global_skew").as_number() + 1e-9;
  });
  cli::DiffOptions strict;
  strict.strict = true;
  EXPECT_EQ(run_diff(a, b, strict).rc, 1);  // tol 0 -> exact -> differs
  cli::DiffOptions tolerant = strict;
  tolerant.tolerance = 1e-6;
  const DiffRun run = run_diff(a, b, tolerant);
  EXPECT_EQ(run.rc, 0);
  EXPECT_TRUE(run.stats.clean());
}

TEST(DiffTrees, TimingIsIgnoredUnlessAsked) {
  const fs::path a = make_tree("time-a");
  const fs::path b = make_tree("time-b");
  rewrite_cell(b, "002-s3.json", [](json::Value& doc) {
    doc["wall_ms"] = 123.456;
    doc["events_per_sec"] = 1e9;
  });
  cli::DiffOptions strict;
  strict.strict = true;
  EXPECT_EQ(run_diff(a, b, strict).rc, 0);  // timing excluded by default
  cli::DiffOptions with_timing = strict;
  with_timing.compare_timing = true;
  const DiffRun run = run_diff(a, b, with_timing);
  EXPECT_EQ(run.rc, 1);
  EXPECT_EQ(run.stats.field_diffs, 2u);
}

TEST(DiffTrees, MissingAndExtraCellsAreReported) {
  const fs::path a = make_tree("miss-a");
  const fs::path b = make_tree("miss-b");
  fs::remove(b / "cells" / "001-s2.json");
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun ab = run_diff(a, b, options);
  EXPECT_EQ(ab.rc, 1);
  EXPECT_EQ(ab.stats.missing_cells, 1u);
  EXPECT_EQ(ab.stats.extra_cells, 0u);
  EXPECT_EQ(ab.stats.cells_compared, 2u);
  const DiffRun ba = run_diff(b, a, options);
  EXPECT_EQ(ba.stats.missing_cells, 0u);
  EXPECT_EQ(ba.stats.extra_cells, 1u);
}

TEST(DiffTrees, SchemaVersionMismatchIsOneLoudFinding) {
  const fs::path a = make_tree("schema-a");
  const fs::path b = make_tree("schema-b");
  rewrite_cell(b, "000-s1.json", [](json::Value& doc) {
    doc["schema_version"] = 999;
    // Field drift under the bumped version must NOT add per-field noise.
    doc["result"]["events_executed"] = 0;
  });
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 1);
  EXPECT_EQ(run.stats.schema_mismatches, 1u);
  EXPECT_EQ(run.stats.field_diffs, 0u);
  EXPECT_NE(run.log.find("schema_version"), std::string::npos) << run.log;
}

TEST(DiffTrees, DifferentCampaignNamesStillMatch) {
  // A baseline tree routinely carries another campaign name.  Both trees
  // come from the real pipeline, so every place the campaign name leaks
  // into a cell document (top-level "campaign", config.name, result.name)
  // is exercised; all of them are identity, not trajectory.
  const fs::path a = make_tree("name-a");
  const fs::path b = make_tree("name-b", "renamed-baseline");
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 0) << run.log;
  EXPECT_TRUE(run.stats.clean()) << run.log;
}

// Trees written before an axis was retired echo it in every cell; they
// must diff clean against current trees under --strict, while any other
// value of the retired key fails loudly naming the axis.
void expect_retired_echo_diffs_clean(
    const std::string& tag, const std::function<void(json::Value&)>& legacy,
    const char* key, const char* bad, const std::string& message) {
  const fs::path a = make_tree(tag + "-a");
  const fs::path b = make_tree(tag + "-b");
  for (const char* cell : {"000-s1.json", "001-s2.json", "002-s3.json"}) {
    rewrite_cell(b, cell, [&](json::Value& doc) { legacy(doc["config"]); });
  }
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 0) << run.log;
  EXPECT_TRUE(run.stats.clean()) << run.log;

  rewrite_cell(b, "001-s2.json",
               [&](json::Value& doc) { doc["config"][key] = bad; });
  try {
    run_diff(a, b, options);
    FAIL() << "a tree echoing " << key << " " << bad << " diffed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

TEST(DiffTrees, LegacyStoreEchoDiffsCleanAndAdapterFailsLoudly) {
  expect_retired_echo_diffs_clean(
      "store", [](json::Value& config) { config["store"] = "columns"; },
      "store", "adapter", "store axis is retired");
}

TEST(DiffTrees, RetiredExecutionEchoesDiffClean) {
  expect_retired_echo_diffs_clean(
      "exec",
      [](json::Value& config) {
        config["engine"] = "heap";
        config["delivery"] = "per-receiver";
      },
      "engine", "wheel", "engine axis is retired");
}

// diff_files: the single-document mode gcs_diff uses to gate the
// committed ENVELOPE_baseline.json against a regenerated envelope fit.
fs::path write_file(const std::string& name, const std::string& text) {
  const fs::path path = fs::path(::testing::TempDir()) / "gcs_diff" / name;
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

TEST(DiffFiles, IdenticalDocumentsMatchUnderStrict) {
  const std::string text =
      R"({"cells": [{"bound_gap": 12.5, "cell": "a", "envelope_ratio": 0.9}],)"
      R"( "schema_version": 7})";
  const fs::path a = write_file("env-a.json", text);
  const fs::path b = write_file("env-b.json", text);
  cli::DiffOptions options;
  options.strict = true;
  std::ostringstream log;
  cli::DiffStats stats;
  EXPECT_EQ(cli::diff_files(a.string(), b.string(), options, log, &stats), 0);
  EXPECT_TRUE(stats.clean()) << log.str();
  EXPECT_EQ(stats.cells_compared, 1u);
}

TEST(DiffFiles, PerturbedRatioFailsStrictNamingTheField) {
  const fs::path a = write_file(
      "perturb-a.json",
      R"({"cells": [{"cell": "a", "envelope_ratio": 0.9}], "schema_version": 7})");
  const fs::path b = write_file(
      "perturb-b.json",
      R"({"cells": [{"cell": "a", "envelope_ratio": 0.95}], "schema_version": 7})");
  cli::DiffOptions options;
  options.strict = true;
  std::ostringstream log;
  cli::DiffStats stats;
  EXPECT_EQ(cli::diff_files(a.string(), b.string(), options, log, &stats), 1);
  EXPECT_EQ(stats.field_diffs, 1u);
  EXPECT_NE(log.str().find("envelope_ratio"), std::string::npos) << log.str();
  // Without --strict the difference is still reported but not fatal.
  std::ostringstream relog;
  EXPECT_EQ(cli::diff_files(a.string(), b.string(), {}, relog, nullptr), 0);
}

TEST(DiffFiles, UnparseableFileThrowsNamingThePath) {
  const fs::path good = write_file("parse-good.json", R"({"schema_version": 7})");
  const fs::path bad = write_file("parse-bad.json", "{nope");
  try {
    std::ostringstream log;
    cli::diff_files(good.string(), bad.string(), {}, log, nullptr);
    FAIL() << "unparseable file did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("parse-bad.json"), std::string::npos)
        << e.what();
  }
}

TEST(DiffTrees, UnreadableTreeThrows) {
  const fs::path a = make_tree("throw-a");
  EXPECT_THROW(
      {
        std::ostringstream log;
        cli::diff_trees(a.string(), (a / "nope").string(), {}, log);
      },
      std::runtime_error);
}

// The classes the field tables declare reproduce the key lists gcs_diff
// kept before the tables existed.
TEST(FieldClass, DeclaredClassesMatchTheFormerKeyLists) {
  using gcs::util::DiffClass;
  for (const char* key :
       {"max_global_skew", "max_local_skew", "global_skew_bound",
        "local_skew_floor", "mean_global_skew", "max_envelope_ratio",
        "total_jump", "first_clamped_time", "sync_delay_sum",
        "sync_delay_max", "observed", "analytic", "fitted", "envelope_ratio",
        "bound_gap", "intercept", "slope", "shift", "rss", "rho", "T", "D",
        "delta_h", "B0", "horizon", "sample_dt", "lifetime", "period",
        "overlap", "radius", "speed_min", "speed_max", "update_dt",
        "mean_speed", "alpha", "speed_sigma", "dir_sigma", "group_radius",
        "switch_prob", "connect_window"}) {
    EXPECT_EQ(cli::field_class(key), DiffClass::kFloat) << key;
  }
  for (const char* key :
       {"wall_ms", "events_per_sec", "arena_bytes", "peak_rss_kb"}) {
    EXPECT_EQ(cli::field_class(key), DiffClass::kTiming) << key;
  }
  // Counters, sizes and strings, including the double-valued series
  // peak_queue_bytes next to its run_stats twin, and undeclared keys.
  for (const char* key :
       {"messages_sent", "n", "seed", "points", "peak_queue_bytes", "name",
        "volatile_edges", "backbone", "schema_version", "campaign"}) {
    EXPECT_EQ(cli::field_class(key), DiffClass::kExact) << key;
  }
}

// A leaf key is classified wherever it appears, so no two tables may
// declare it with different classes.
TEST(FieldClass, NoKeyIsDeclaredWithTwoClasses) {
  std::map<std::string, gcs::util::DiffClass> seen;
  for (const auto& [key, diff] : cli::declared_field_classes()) {
    const auto [it, fresh] = seen.emplace(key, diff);
    EXPECT_TRUE(fresh || it->second == diff) << key;
  }
  // Every record's table contributes: result, config, cell timing,
  // scenario knobs and envelope rows.
  for (const char* key : {"messages_sent", "max_pending", "points", "name",
                          "rho", "wall_ms", "lifetime", "bound_gap", "rss"}) {
    EXPECT_EQ(seen.count(key), 1u) << key;
  }
}

}  // namespace
