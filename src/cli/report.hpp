// gcs::cli -- tree analytics behind gcs_report.
//
// Reads a gcs_run results tree (schema v3 cell documents) and renders a
// text report of how close each cell sailed to the Kuhn-Locher-Oshman
// analytic bound:
//
//   * per-cell observed-max-skew / global_skew_bound ratio, plus the
//     per-sample B-envelope utilization peak from the series digest;
//   * the top-k tightest cells (highest observed/bound ratio) -- the
//     cells that matter for the ROADMAP's empirical bound tightening;
//   * per-axis aggregation across the sweep (n, workload, drift, delay,
//     traffic, seed): cell count, mean and max ratio per value;
//   * a fixed-bin histogram of the ratios;
//   * with `frontier`, the skew-vs-message-cost frontier: cells sorted
//     by messages sent, with their delta_h / B0 knobs -- the reporting
//     path for the bench_ablation tolerance variants (see
//     campaigns/ablation.json);
//   * with `contention`, the observed-skew-vs-offered-load view: cells
//     grouped by their traffic spec (config.traffic), each group with
//     its mean/max skew ratio, mean sync-message latency, and the
//     queue/drop/mark totals -- the reporting path for
//     campaigns/contention.json;
//   * with `envelope`, the empirical skew-envelope view: the
//     harness/envelope.hpp fit (groups, per-cell observed/fitted/
//     envelope_ratio/bound_gap, widest bound gaps) -- the reporting path
//     for campaigns/ablation_frontier.json.  Unlike every other section,
//     this one refuses to render over undecodable cells: the fitter
//     throws naming the culprit cell and gcs_report exits 2, because an
//     envelope quietly fitted over a partial tree would gate nothing.
//
// Output is deterministic (sorted maps, shortest-round-trip numbers):
// running the report twice on one tree produces identical bytes, which
// CI self-checks.
#ifndef GCS_CLI_REPORT_HPP
#define GCS_CLI_REPORT_HPP

#include <cstddef>
#include <iosfwd>
#include <string>

namespace gcs::cli {

struct ReportOptions {
  std::size_t top_k = 5;    // rows in the "tightest cells" section
  bool frontier = false;    // add the skew-vs-message-cost section
  bool contention = false;  // add the skew-vs-offered-load section
  bool envelope = false;    // add the empirical-envelope section
};

// Renders the report for `tree_dir` to `out`.  Returns 0 when every
// cell decoded, 1 when any cell was skipped for schema drift (the skip
// is reported in the output, loudly).  Throws std::runtime_error when
// the tree itself is unusable (no cells/ directory, unparseable file).
int write_report(const std::string& tree_dir, const ReportOptions& options,
                 std::ostream& out);

}  // namespace gcs::cli

#endif  // GCS_CLI_REPORT_HPP
