// Unit and fuzz tests for harness/envelope.hpp, the empirical
// skew-envelope fitter behind `gcs_report --envelope`:
//
//   * exact recovery of constant / log n / linear-n growth, with the
//     documented tie-break (constant < log < linear on equal RSS);
//   * the grouping contract: execution-layout axes (engine, delivery,
//     shards) and the seed never split a group, the variant axis
//     always does, and duplicate-n observations fold to the per-n max;
//   * the domination shift (fitted >= observed everywhere, so
//     envelope_ratio <= 1) and monotone non-decreasing evaluate();
//   * the all-zero column convention (ratios 0, document stays finite);
//   * the loud-failure discipline: empty input, n < 2, non-finite or
//     non-positive skews, and schema-drifted cells all throw with the
//     culprit cell named (non-finite values cannot arrive through
//     json::parse, so the NaN/Inf probes are built in memory -- the
//     file-level paths are covered end to end by
//     tests/run_envelope_guard.cmake);
//   * byte-identical to_json / envelope_from_json round-trips.
//
// Like test_properties.cpp, the fuzz draws are seeded and pinned (no
// <random>), so a failure reproduces from the test name alone.
#include "harness/envelope.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "util/json.hpp"

namespace {

namespace harness = gcs::harness;
namespace json = gcs::util::json;

// A synthetic cell document shaped exactly like gcs_run output (real
// config echo + result serialization, so the fitter's strict decode is
// exercised), with only the fields the fitter reads set explicitly.
json::Value make_cell(const std::string& label, std::size_t n,
                      double observed, double analytic,
                      harness::ExperimentConfig config = {},
                      std::uint64_t seed = 1) {
  config.params.n = n;
  config.seed = seed;
  harness::ExperimentResult result;
  result.max_global_skew = observed;
  result.global_skew_bound = analytic;
  json::Value doc;
  doc["cell"] = label;
  doc["campaign"] = std::string("envtest");
  doc["config"] = harness::config_to_json(config);
  doc["result"] = harness::to_json(result);
  return doc;
}

// Deterministic draws, same recipe as test_properties.cpp.
struct Lcg {
  std::uint64_t s;
  explicit Lcg(std::uint64_t seed)
      : s(seed * 2654435761u + 88172645463325252ULL) {}
  double uniform(double lo, double hi) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + (hi - lo) * (static_cast<double>(s >> 11) * 0x1.0p-53);
  }
};

TEST(EnvelopeFit, RecoversLogGrowthExactly) {
  std::map<std::string, json::Value> docs;
  for (const std::size_t n : {4u, 8u, 16u, 32u}) {
    const double y = 2.0 + 3.0 * std::log(static_cast<double>(n));
    docs["n" + std::to_string(n)] =
        make_cell("n" + std::to_string(n), n, y, 100.0);
  }
  const harness::EnvelopeFit fit = harness::fit_envelope(docs);
  ASSERT_EQ(fit.groups.size(), 1u);
  const harness::EnvelopeGroup& g = fit.groups[0];
  EXPECT_EQ(g.basis, "log");
  EXPECT_NEAR(g.intercept, 2.0, 1e-9);
  EXPECT_NEAR(g.slope, 3.0, 1e-9);
  EXPECT_NEAR(g.shift, 0.0, 1e-9);
  EXPECT_NEAR(g.rss, 0.0, 1e-18);
  EXPECT_EQ(g.points, 4u);
  EXPECT_EQ(fit.campaign, "envtest");
  ASSERT_EQ(fit.cells.size(), 4u);
  for (const harness::EnvelopePoint& p : fit.cells) {
    EXPECT_GE(p.fitted, p.observed - 1e-9) << p.cell;
    EXPECT_NEAR(p.envelope_ratio, 1.0, 1e-9) << p.cell;
    EXPECT_NEAR(p.bound_gap, 100.0 / p.fitted, 1e-9) << p.cell;
  }
}

TEST(EnvelopeFit, RecoversLinearGrowthExactly) {
  std::map<std::string, json::Value> docs;
  for (const std::size_t n : {4u, 8u, 16u, 32u}) {
    const double y = 1.0 + 0.5 * static_cast<double>(n);
    docs["n" + std::to_string(n)] =
        make_cell("n" + std::to_string(n), n, y, 100.0);
  }
  const harness::EnvelopeFit fit = harness::fit_envelope(docs);
  ASSERT_EQ(fit.groups.size(), 1u);
  EXPECT_EQ(fit.groups[0].basis, "linear");
  EXPECT_NEAR(fit.groups[0].intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.groups[0].slope, 0.5, 1e-9);
}

TEST(EnvelopeFit, ConstantColumnTieBreaksToConstantBasis) {
  // All three candidates fit y = 5 with RSS 0 (the sloped models degrade
  // to their constant fallback); the tie-break must keep "constant".
  std::map<std::string, json::Value> docs;
  for (const std::size_t n : {4u, 8u, 16u}) {
    docs["n" + std::to_string(n)] =
        make_cell("n" + std::to_string(n), n, 5.0, 40.0);
  }
  const harness::EnvelopeFit fit = harness::fit_envelope(docs);
  ASSERT_EQ(fit.groups.size(), 1u);
  EXPECT_EQ(fit.groups[0].basis, "constant");
  EXPECT_DOUBLE_EQ(fit.groups[0].intercept, 5.0);
  EXPECT_DOUBLE_EQ(fit.groups[0].slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.groups[0].shift, 0.0);
  for (const harness::EnvelopePoint& p : fit.cells) {
    EXPECT_DOUBLE_EQ(p.fitted, 5.0);
    EXPECT_DOUBLE_EQ(p.envelope_ratio, 1.0);
    EXPECT_DOUBLE_EQ(p.bound_gap, 8.0);
  }
}

TEST(EnvelopeFit, DecreasingDataFallsBackToConstant) {
  // A negative least-squares slope would break monotonicity; the fitter
  // clamps to the constant model (intercept = mean) instead.
  std::map<std::string, json::Value> docs;
  docs["a"] = make_cell("a", 4, 6.0, 40.0);
  docs["b"] = make_cell("b", 8, 4.0, 40.0);
  docs["c"] = make_cell("c", 16, 2.0, 40.0);
  const harness::EnvelopeFit fit = harness::fit_envelope(docs);
  ASSERT_EQ(fit.groups.size(), 1u);
  EXPECT_EQ(fit.groups[0].basis, "constant");
  EXPECT_DOUBLE_EQ(fit.groups[0].slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.groups[0].intercept, 4.0);
  // The domination shift lifts the mean to the worst point.
  EXPECT_DOUBLE_EQ(fit.groups[0].shift, 2.0);
  for (const harness::EnvelopePoint& p : fit.cells) {
    EXPECT_DOUBLE_EQ(p.fitted, 6.0) << p.cell;
    EXPECT_LE(p.envelope_ratio, 1.0) << p.cell;
  }
}

TEST(EnvelopeFit, SingleNCollapsesToConstantAtTheMax) {
  std::map<std::string, json::Value> docs;
  docs["s1"] = make_cell("s1", 8, 1.0, 40.0, {}, /*seed=*/1);
  docs["s2"] = make_cell("s2", 8, 3.0, 40.0, {}, /*seed=*/2);
  const harness::EnvelopeFit fit = harness::fit_envelope(docs);
  ASSERT_EQ(fit.groups.size(), 1u);
  EXPECT_EQ(fit.groups[0].basis, "constant");
  EXPECT_EQ(fit.groups[0].points, 1u);  // duplicate n folds to one point
  EXPECT_DOUBLE_EQ(fit.groups[0].evaluate(8), 3.0);
  ASSERT_EQ(fit.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(fit.cells.at(0).envelope_ratio, 1.0 / 3.0);  // s1
  EXPECT_DOUBLE_EQ(fit.cells.at(1).envelope_ratio, 1.0);        // s2
}

TEST(EnvelopeFit, ExecutionLayoutAxesNeverSplitAGroup) {
  // Same physics, wildly different execution layout: one group.  This is
  // the property that makes the envelope artifact byte-stable across
  // {--jobs} x {shards} reruns
  // (tests/run_envelope_stability.cmake proves it end to end).
  harness::ExperimentConfig a;
  harness::ExperimentConfig b;
  b.shards = 4;
  std::map<std::string, json::Value> docs;
  docs["a"] = make_cell("a", 8, 2.0, 40.0, a, /*seed=*/1);
  docs["b"] = make_cell("b", 12, 2.5, 40.0, b, /*seed=*/7);
  // A cell from a tree written before the engine and delivery axes were
  // retired still carries their echoes; they fold out too.
  docs["c"] = make_cell("c", 16, 3.0, 40.0, a, /*seed=*/3);
  docs["c"]["config"]["engine"] = std::string("heap");
  docs["c"]["config"]["delivery"] = std::string("per-receiver");
  const harness::EnvelopeFit fit = harness::fit_envelope(docs);
  EXPECT_EQ(fit.groups.size(), 1u);
}

TEST(EnvelopeFit, VariantAxisSplitsGroups) {
  harness::ExperimentConfig nojump;
  nojump.variant = "nojump";
  std::map<std::string, json::Value> docs;
  docs["a"] = make_cell("a", 8, 2.0, 40.0);
  docs["b"] = make_cell("b", 8, 6.0, 40.0, nojump);
  const harness::EnvelopeFit fit = harness::fit_envelope(docs);
  ASSERT_EQ(fit.groups.size(), 2u);
  EXPECT_NE(fit.cells.at(0).group, fit.cells.at(1).group);
  EXPECT_NE(fit.cells.at(0).group.find("variant=dcsa"), std::string::npos);
  EXPECT_NE(fit.cells.at(1).group.find("variant=nojump"), std::string::npos);
}

TEST(EnvelopeFit, AllZeroColumnKeepsRatiosFinite) {
  // fitted == 0 would make observed/fitted and analytic/fitted blow up
  // (and json::dump_number throws on non-finite); the documented
  // convention is both ratios 0.
  std::map<std::string, json::Value> docs;
  docs["a"] = make_cell("a", 4, 0.0, 40.0);
  docs["b"] = make_cell("b", 8, 0.0, 40.0);
  const harness::EnvelopeFit fit = harness::fit_envelope(docs);
  for (const harness::EnvelopePoint& p : fit.cells) {
    EXPECT_DOUBLE_EQ(p.fitted, 0.0) << p.cell;
    EXPECT_DOUBLE_EQ(p.envelope_ratio, 0.0) << p.cell;
    EXPECT_DOUBLE_EQ(p.bound_gap, 0.0) << p.cell;
  }
  EXPECT_NO_THROW(json::dump(harness::to_json(fit), 2));
}

TEST(EnvelopeFit, FuzzedGridsDominateAndStayMonotone) {
  // Random grids (random n sets, random skew columns, duplicate n via
  // seeds): whatever the draw, fitted dominates observed, ratios stay in
  // [0, 1], evaluate() is monotone non-decreasing in n, and the document
  // round-trips byte-identically.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Lcg rng(seed);
    std::map<std::string, json::Value> docs;
    const int columns = 2 + static_cast<int>(rng.uniform(0.0, 3.0));
    int label = 0;
    for (int c = 0; c < columns; ++c) {
      const std::size_t n =
          2 + static_cast<std::size_t>(rng.uniform(0.0, 60.0));
      const int dups = 1 + static_cast<int>(rng.uniform(0.0, 2.0));
      for (int d = 0; d < dups; ++d) {
        const std::string cell = "c" + std::to_string(label++);
        docs[cell] = make_cell(cell, n, rng.uniform(0.0, 10.0),
                               rng.uniform(20.0, 80.0), {},
                               /*seed=*/static_cast<std::uint64_t>(d + 1));
      }
    }
    const harness::EnvelopeFit fit = harness::fit_envelope(docs);
    ASSERT_EQ(fit.groups.size(), 1u);
    const harness::EnvelopeGroup& g = fit.groups[0];
    EXPECT_GE(g.slope, 0.0);
    EXPECT_GE(g.shift, -1e-12);
    double prev = g.evaluate(2);
    for (std::uint64_t n = 3; n <= 80; ++n) {
      const double cur = g.evaluate(n);
      EXPECT_GE(cur, prev - 1e-12) << "n=" << n;
      prev = cur;
    }
    for (const harness::EnvelopePoint& p : fit.cells) {
      EXPECT_GE(p.fitted, p.observed - 1e-9) << p.cell;
      EXPECT_GE(p.envelope_ratio, 0.0) << p.cell;
      EXPECT_LE(p.envelope_ratio, 1.0 + 1e-9) << p.cell;
    }
    const std::string bytes = json::dump(harness::to_json(fit), 2);
    const harness::EnvelopeFit back =
        harness::envelope_from_json(json::parse(bytes));
    EXPECT_EQ(json::dump(harness::to_json(back), 2), bytes);
  }
}

TEST(EnvelopeFit, RejectsEmptyInput) {
  try {
    harness::fit_envelope({});
    FAIL() << "empty input did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no cells to fit"),
              std::string::npos)
        << e.what();
  }
}

// The loud-failure contract: every rejection names the culprit cell, so
// a 48-cell tree failing in CI points straight at the bad document.
void expect_rejected(const std::map<std::string, json::Value>& docs,
                     const std::string& cell, const std::string& reason) {
  try {
    harness::fit_envelope(docs);
    FAIL() << "expected rejection: " << reason;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell '" + cell + "'"), std::string::npos) << what;
    EXPECT_NE(what.find(reason), std::string::npos) << what;
  }
}

TEST(EnvelopeFit, RejectsDegenerateCellsNamingTheCulprit) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    std::map<std::string, json::Value> docs;
    docs["good"] = make_cell("good", 8, 2.0, 40.0);
    docs["tiny"] = make_cell("tiny", 1, 2.0, 40.0);
    expect_rejected(docs, "tiny", "n < 2");
  }
  {
    // NaN/Inf cannot arrive through json::parse (the parser rejects
    // non-finite numbers), so these probes build the document in memory.
    std::map<std::string, json::Value> docs;
    docs["nan-skew"] = make_cell("nan-skew", 8, nan, 40.0);
    expect_rejected(docs, "nan-skew", "non-finite or negative observed");
  }
  {
    std::map<std::string, json::Value> docs;
    docs["inf-bound"] = make_cell("inf-bound", 8, 2.0, inf);
    expect_rejected(docs, "inf-bound", "non-finite or non-positive analytic");
  }
  {
    std::map<std::string, json::Value> docs;
    docs["neg-skew"] = make_cell("neg-skew", 8, -0.5, 40.0);
    expect_rejected(docs, "neg-skew", "non-finite or negative observed");
  }
  {
    std::map<std::string, json::Value> docs;
    docs["zero-bound"] = make_cell("zero-bound", 8, 2.0, 0.0);
    expect_rejected(docs, "zero-bound", "non-finite or non-positive analytic");
  }
  {
    // Schema drift inside one cell: the strict result decoder's error
    // must surface with the cell label attached, not as a silent skip.
    std::map<std::string, json::Value> docs;
    docs["drifted"] = make_cell("drifted", 8, 2.0, 40.0);
    docs["drifted"]["result"]["schema_version"] = 999;
    expect_rejected(docs, "drifted", "schema");
  }
}

TEST(EnvelopeFromJson, RejectsForeignDocuments) {
  const harness::EnvelopeFit fit = harness::fit_envelope(
      {{"a", make_cell("a", 8, 2.0, 40.0)}});
  json::Value doc = harness::to_json(fit);
  doc["schema_version"] = harness::kResultSchemaVersion + 1;
  EXPECT_THROW(harness::envelope_from_json(doc), json::Error);
  doc["schema_version"] = harness::kResultSchemaVersion;
  doc["kind"] = std::string("report");
  EXPECT_THROW(harness::envelope_from_json(doc), json::Error);
}

TEST(EnvelopeFromJson, EveryDroppedRowKeyIsRefusedByName) {
  const json::Value doc = harness::to_json(harness::fit_envelope(
      {{"a", make_cell("a", 8, 2.0, 40.0)}}));
  std::size_t dropped = 0;
  for (const char* rows : {"groups", "cells"}) {
    for (const auto& entry : doc.at(rows).as_array().front().as_object()) {
      json::Value broken = doc;
      broken[rows].as_array().front().as_object().erase(entry.first);
      try {
        harness::envelope_from_json(broken);
        ADD_FAILURE() << rows << " row without '" << entry.first
                      << "' was accepted";
      } catch (const json::Error& e) {
        EXPECT_NE(std::string(e.what()).find("'" + entry.first + "'"),
                  std::string::npos)
            << e.what();
      }
      ++dropped;
    }
  }
  EXPECT_EQ(dropped, 7u + 8u);
}

}  // namespace
