// gcs::cli -- campaign result-tree diffing, the engine behind gcs_diff.
//
// Two gcs_run results trees are mechanically comparable: cells match by
// their "cell" label (not by file name), and every field of the matched
// cell documents is compared --
//
//   * each leaf key by the diff class its field table declares
//     (field_class): counters and strings exactly (events_executed,
//     violation counts, config echoes, scenario specs, ...);
//   * float-valued physics fields (skews, bounds, total_jump, ...) within
//     an absolute tolerance, 0 by default so "compare" means "identical";
//   * timing fields (wall_ms / events_per_sec and the arena_bytes /
//     peak_rss_kb memory pair) describe the machine, not the trajectory:
//     they are ignored unless compare_timing is set (then within the
//     tolerance), which is what lets a --jobs 4 tree diff clean against a
//     --jobs 1 baseline without --fixed-timing;
//   * a schema_version mismatch is reported once per cell as schema drift
//     rather than as a pile of per-field noise.
//
// Cells present in only one tree are reported as missing/extra.  With
// `strict`, any difference (field, missing cell, schema drift) makes
// diff_trees return 1, so CI can gate "did this refactor change any
// trajectory?" the same way gcs_run --check gates physics.
#ifndef GCS_CLI_DIFF_HPP
#define GCS_CLI_DIFF_HPP

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/fields.hpp"

namespace gcs::cli {

struct DiffOptions {
  // Absolute tolerance for float- and timing-classified fields;
  // counters, strings, and structure always compare exactly.
  double tolerance = 0.0;
  bool compare_timing = false;  // include the timing-class fields
  bool strict = false;          // return 1 on any difference
  bool quiet = false;           // print the summary line only
  std::size_t max_report = 64;  // cap on printed difference lines
};

struct DiffStats {
  std::size_t cells_compared = 0;   // labels present in both trees
  std::size_t cells_differing = 0;  // matched cells with >= 1 field diff
  std::size_t field_diffs = 0;      // individual differing fields
  std::size_t missing_cells = 0;    // labels only in tree A
  std::size_t extra_cells = 0;      // labels only in tree B
  std::size_t schema_mismatches = 0;  // cells whose schema_version differs

  bool clean() const {
    return cells_differing == 0 && field_diffs == 0 && missing_cells == 0 &&
           extra_cells == 0 && schema_mismatches == 0;
  }
};

// Every (key, diff class) the document field tables declare: result,
// config echo, cell timing, scenario knobs and envelope rows.
std::vector<util::FieldClass> declared_field_classes();
// The declared class of a leaf key wherever it appears; undeclared keys
// (schema_version, campaign, kind, ...) compare exactly.
util::DiffClass field_class(const std::string& key);

// Compares the trees at dir_a and dir_b cell by cell, writing human-
// readable difference lines and a one-line summary to `log`.  Returns 0
// when the trees match under `options` (always, unless strict), 1 when
// strict and any difference was found.  Throws std::runtime_error when
// either directory is not a readable results tree -- gcs_diff maps that
// to exit code 2, keeping "trees differ" and "bad invocation" distinct.
int diff_trees(const std::string& dir_a, const std::string& dir_b,
               const DiffOptions& options, std::ostream& log,
               DiffStats* stats = nullptr);

// Compares two standalone JSON documents (the envelope-fit artifacts:
// ENVELOPE_baseline.json vs a freshly regenerated fit) under the same
// field rules as tree cells: schema drift is one loud finding, the
// "campaign" echo is identity, fit fields (observed/fitted/ratios/
// intercept/slope/shift/rss) are float-classed, counters exact.  Return
// and throw conventions match diff_trees; gcs_diff picks this path when
// both arguments are regular files.
int diff_files(const std::string& file_a, const std::string& file_b,
               const DiffOptions& options, std::ostream& log,
               DiffStats* stats = nullptr);

}  // namespace gcs::cli

#endif  // GCS_CLI_DIFF_HPP
