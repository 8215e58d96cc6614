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
// Cells are independent (each gets its own engine, clocks, and RNG
// streams inside run_experiment), so with `jobs > 1` they execute on a
// pool of worker threads next to the calling thread.  Every artifact has
// one writer:
//
//   worker             simulates the cell; streams cells/<file>.series.csv
//                      from the recorder as samples are taken; writes
//                      cells/<file>.trace.jsonl (up to trace_limit
//                      records, too large to hand over); renders the
//                      cell document, its campaign.csv row and its
//                      campaign.jsonl line into the cell's ring slot.
//   calling thread     commits cells strictly in cell order: creates
//                      cells/<file>.json from the rendered document,
//                      audits it, appends the row and the line, logs the
//                      cell, and at the end writes summary.json.
//
// File creation, which costs a disk round trip on a freshly emptied
// directory, thus runs alongside the simulation instead of between two
// cells of one worker.  Workers may run at most kRunAheadWindow cells
// ahead of the last committed cell; the slots form a ring of that size,
// so the rendered-but-uncommitted documents the runner holds are bounded
// by the window, not the campaign.  With no CampaignOutcome the runner
// keeps nothing per committed cell.  What still grows with the cell
// count is the expanded Campaign itself (~1.1 KB per cell) and the
// cell-file name table.
//
// Series and trace bytes are trajectory-derived only (no timing, no
// scheduler counters), and every committed file is written in cell order
// from bytes that depend only on the cell, so each output file is
// byte-identical to a jobs=1 run of the same campaign.  Timing fields
// (wall_ms / events_per_sec, the only nondeterministic outputs) can be
// pinned to zero with `fixed_timing` when byte-comparable trees are
// wanted; tests/run_jobs_shards_determinism.cmake enforces the guarantee
// end to end.
//
// Every cell that ran is audited as it commits: bound violations,
// monotonicity failures, engine clamps (reported with the first
// offending (time, seq) pair from RunStats), and schema drift -- the
// calling thread re-reads the cell file it just wrote from disk through
// result_from_json, and it must reproduce the same bytes.  In check mode
// any finding makes run_campaign return exit code 1; the process never
// aborts mid-campaign for a finding, so one bad cell still leaves a
// complete results tree to inspect.  An artifact that cannot be written
// throws std::runtime_error naming the file, after the workers have been
// released and joined.
#ifndef GCS_CLI_RUNNER_HPP
#define GCS_CLI_RUNNER_HPP

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "cli/campaign.hpp"
#include "harness/experiment.hpp"

namespace gcs::cli {

// How many cells workers may have claimed but the calling thread not yet
// committed.  Large enough that a slow file creation on the committing
// thread does not stall the workers of a sweep of small cells; small
// enough that the rendered documents waiting in the ring stay a few
// hundred KB.
inline constexpr std::size_t kRunAheadWindow = 64;

struct RunnerOptions {
  std::string out_dir;  // empty -> "results/<campaign-name>"
  bool check = false;   // audit cells; exit 1 on any failure
  bool quiet = false;   // suppress per-cell progress lines
  bool list_only = false;  // print expanded cells, run nothing
  // Worker threads executing cells.  Values are clamped to
  // [1, cells.size()]; every output byte is independent of this knob.
  // The calling thread commits cells next to them.
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
  // The most cells claimed by workers and not yet committed at any one
  // moment; never above kRunAheadWindow.
  std::size_t max_uncommitted_cells = 0;
};

// Runs (or lists) the campaign.  `log` receives progress and audit
// findings on the calling thread.  `outcome`, when given, receives one
// CellOutcome per cell in cell order.  Returns 0 on success, 1 when check mode found failures or
// when any cell errored (errors fail the run even without --check).
int run_campaign(const Campaign& campaign, const RunnerOptions& options,
                 std::ostream& log, CampaignOutcome* outcome = nullptr);

}  // namespace gcs::cli

#endif  // GCS_CLI_RUNNER_HPP
