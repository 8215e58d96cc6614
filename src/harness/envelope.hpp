// gcs::harness -- the empirical skew-envelope fitter.
//
// global_skew_bound() is a conservative linear-in-n envelope; this module
// measures the real one.  Given the cell documents of a results tree, it
//
//   1. groups cells by their trajectory-shaping axes -- workload, drift,
//      delay, traffic, variant, and the physics constants (rho, T, D,
//      delta_h, B0, horizon, sample_dt) -- leaving out n (the fit
//      dimension), the execution-layout axis shards (trajectory-
//      neutral, so trees run at different settings fit to identical
//      bytes), and the seed (seeds fold into the observed
//      worst case);
//   2. per group, takes the observed worst-case skew at each distinct n
//      (the max of result.max_global_skew over that group's cells) and
//      least-squares fits three candidate bases over those points:
//        constant   y = a
//        log        y = a + b * ln(n)
//        linear     y = a + b * n
//      with the slope clamped at 0 (a negative-slope fit degrades to the
//      constant model), so every fitted envelope is monotone
//      non-decreasing in n; the basis with the smallest residual sum of
//      squares wins, exact ties resolved in the order constant < log <
//      linear, so the output bytes are reproducible;
//   3. shifts the winning fit up by the largest positive residual, so the
//      fitted envelope dominates every observed point;
//   4. stamps each cell with envelope_ratio = observed / fitted (<= 1 by
//      construction) and bound_gap = analytic / fitted (how much air the
//      paper's bound leaves above reality).
//
// The fit is closed-form double arithmetic over sorted inputs: the same
// tree always produces the same bytes, whatever --jobs/shards
// produced it (the envelope-stability CTest enforces this).
//
// Failure discipline: unlike the report's skip-and-continue decoding, a
// cell the fitter cannot use -- schema drift, a non-finite or negative
// observed skew, a missing result -- throws std::runtime_error naming the
// culprit cell, and gcs_report exits 2.  A fit artifact quietly missing
// cells would gate nothing.
#ifndef GCS_HARNESS_ENVELOPE_HPP
#define GCS_HARNESS_ENVELOPE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/fields.hpp"
#include "util/json.hpp"

namespace gcs::harness {

// One fitted group: the model (basis, intercept, slope), the domination
// shift, the pre-shift residual, and how many distinct n values went in.
struct EnvelopeGroup {
  std::string group;
  std::string basis;       // "constant" | "log" | "linear"
  double intercept = 0.0;  // a
  double slope = 0.0;      // b, always >= 0 (clamped)
  double shift = 0.0;      // domination shift, always >= 0
  double rss = 0.0;        // least-squares residual before the shift
  std::uint64_t points = 0;  // distinct n values fitted

  // The fitted envelope at n: intercept + slope * g(n) + shift.
  double evaluate(std::uint64_t n) const;
};

// One cell's row: its observed/analytic skews and the two schema-v7
// derived fields.  When the fitted envelope is exactly 0 (an all-zero
// observed column, only reachable from synthetic fixtures), both ratios
// are 0 by convention -- never NaN/Inf, which the JSON writer rejects.
struct EnvelopePoint {
  std::string cell;
  std::string group;
  std::uint64_t n = 0;
  double observed = 0.0;        // result.max_global_skew
  double analytic = 0.0;        // result.global_skew_bound
  double fitted = 0.0;          // group envelope at this n
  double envelope_ratio = 0.0;  // observed / fitted, <= 1 by construction
  double bound_gap = 0.0;       // analytic / fitted, >= 1 when the bound holds
};

struct EnvelopeFit {
  std::string campaign;               // from the cells' "campaign" echo
  std::vector<EnvelopeGroup> groups;  // sorted by group key
  std::vector<EnvelopePoint> cells;   // sorted by cell label
};

// Fits the envelope over the given cell documents (the load_cell_documents
// shape: label -> document).  Throws std::runtime_error naming the culprit
// cell on any unusable input, or "no cells" when the map is empty.
EnvelopeFit fit_envelope(const std::map<std::string, util::json::Value>& docs);

// load_cell_documents + fit_envelope.
EnvelopeFit fit_envelope_tree(const std::string& tree_dir);

// The envelope document: {"schema_version": 7, "kind": "envelope",
// "campaign", "groups": [...], "cells": [...]}.  Versioned with
// kResultSchemaVersion; envelope_from_json rejects any other version or a
// missing field, and to_json(envelope_from_json(doc)) reproduces doc
// byte-for-byte under json::dump (enforced by test_envelope.cpp).
util::json::Value to_json(const EnvelopeFit& fit);
EnvelopeFit envelope_from_json(const util::json::Value& doc);

// The (key, diff class) of every group and cell row, for gcs_diff.
std::vector<util::FieldClass> envelope_field_classes();

}  // namespace gcs::harness

#endif  // GCS_HARNESS_ENVELOPE_HPP
