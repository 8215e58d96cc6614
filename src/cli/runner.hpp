// gcs::cli -- the campaign runner behind gcs_run.
//
// Executes every cell of a Campaign through harness::run_experiment and
// writes one results tree:
//
//   <out>/
//     cells/<file>.json    per-cell document: config echo + result + timing
//                          (<file> is the sanitized cell label)
//     cells/<file>.series.csv    with `series`: the per-sample_dt
//                          observation time series (obs::TelemetryRecorder)
//     cells/<file>.trace.jsonl   with `trace`: the bounded structured
//                          event trace, meta line first
//     campaign.csv         one row per cell (csv_header(); CI diffs this)
//     campaign.jsonl       the per-cell documents again, one compact line
//                          each, for jq-style slicing
//     summary.json         campaign name, cell/failure counts, worst skews
//
// Every artifact has one writer.  campaign.csv and campaign.jsonl are
// appended as each cell commits, and series rows go straight from the
// recorder to cells/<file>.series.csv, so runner memory stays flat in
// cell count and horizon (the trace is bounded by trace_limit, and cell
// JSON is per-cell).
//
// Series and trace bytes are trajectory-derived only (no timing, no
// scheduler counters), so they are byte-identical across --jobs values;
// tests/run_telemetry_determinism.cmake enforces it.
//
// Cells are independent (each gets its own engine, clocks, and RNG
// streams inside run_experiment), so with `jobs > 1` they execute on a
// worker pool.  Determinism is preserved by construction: workers only
// compute; all artifact bytes are committed in cell order by the calling
// thread, so every output file is byte-identical to a jobs=1 run of the
// same campaign.  Timing fields (wall_ms / events_per_sec, the only
// nondeterministic outputs) can be pinned to zero with `fixed_timing`
// when byte-comparable trees are wanted; tests/run_jobs_determinism.cmake
// enforces the guarantee end to end.
//
// In check mode every cell is audited after it runs: bound violations,
// monotonicity failures, engine clamps (reported with the first offending
// (time, seq) pair from RunStats), and schema drift -- each written cell
// file is re-parsed through result_from_json and must reproduce the same
// bytes.  Any failure makes run_campaign return exit code 1; the process
// never aborts mid-campaign, so one bad cell still leaves a complete
// results tree to inspect.
#ifndef GCS_CLI_RUNNER_HPP
#define GCS_CLI_RUNNER_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "cli/campaign.hpp"
#include "harness/experiment.hpp"

namespace gcs::cli {

struct RunnerOptions {
  std::string out_dir;  // empty -> "results/<campaign-name>"
  bool check = false;   // audit cells; exit 1 on any failure
  bool quiet = false;   // suppress per-cell progress lines
  bool list_only = false;  // print expanded cells, run nothing
  // Worker threads executing cells.  Values are clamped to
  // [1, cells.size()]; every output byte is independent of this knob.
  int jobs = 1;
  // Write wall_ms / events_per_sec as 0 in every artifact (cell files,
  // CSV, JSONL, summary) so two runs of the same campaign are
  // byte-identical.  Progress lines still show real timing.
  bool fixed_timing = false;
  // Write cells/<file>.series.csv: one row per sample_dt tick (skews,
  // envelope ratio, live edges, in-flight, engine pending).
  bool series = false;
  // Write cells/<file>.trace.jsonl: structured simulator events, bounded
  // to trace_limit kept records by deterministic geometric decimation.
  bool trace = false;
  std::uint64_t trace_limit = 4096;
};

// The exact campaign.csv header line (no trailing newline), from the same
// column list as every row.  The e2e test and any external consumer pin
// this string; adding a column is a schema change (append, and bump
// harness::kResultSchemaVersion).
std::string csv_header();

// RFC 4180 quoting: returns `field` unchanged unless it contains a comma,
// quote, or newline, in which case it is wrapped in double quotes with
// embedded quotes doubled.  Every string-valued CSV cell passes through
// here so campaign names or axis values cannot corrupt campaign.csv.
std::string csv_field(const std::string& field);

struct CellOutcome {
  std::string label;
  harness::ExperimentResult result;  // default-initialized if the cell errored
  double wall_ms = 0.0;
  bool errored = false;  // threw instead of running (bad config)
  // Audit findings for a cell that ran; for an errored cell, the single
  // "failed to run: ..." message.
  std::vector<std::string> failures;
};

struct CampaignOutcome {
  std::vector<CellOutcome> cells;
  // Disjoint counters: a cell is either errored (it threw and produced no
  // artifacts) or failed (it ran but its audit found violations/drift).
  std::size_t failed_cells = 0;
  std::size_t errored_cells = 0;
  std::string out_dir;  // resolved output directory
};

// Runs (or lists) the campaign.  `log` receives progress and audit
// findings.  Returns 0 on success, 1 when check mode found failures or
// when any cell errored (errors fail the run even without --check).
int run_campaign(const Campaign& campaign, const RunnerOptions& options,
                 std::ostream& log, CampaignOutcome* outcome = nullptr);

}  // namespace gcs::cli

#endif  // GCS_CLI_RUNNER_HPP
