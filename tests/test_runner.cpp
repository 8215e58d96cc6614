// Unit tests for the campaign runner: the --jobs determinism guarantee
// (in-process, on a small sweep; tests/run_jobs_shards_determinism.cmake
// drives the real binary on campaigns/churn.json), CSV quoting, filename
// sanitization of hand-built labels, the disjoint errored/failed
// accounting, the run-ahead window between workers and the committing
// thread, and write failures on the committing thread.
#include "cli/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>

#include "cli/campaign.hpp"
#include "harness/serialize.hpp"
#include "util/json.hpp"

namespace {

namespace cli = gcs::cli;
namespace fs = std::filesystem;
namespace json = gcs::util::json;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gcs_runner" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

cli::Campaign small_campaign() {
  return cli::build_campaign(
      nullptr, {{"name", "unit"},
                {"n", "6"},
                {"topology", "ring"},
                {"seeds", "1..4"},
                {"horizon", "10"},
                {"sample_dt", "0.5"}});
}

// A sweep of at least four windows of tiny cells.
cli::Campaign window_campaign() {
  return cli::build_campaign(
      nullptr, {{"name", "window"},
                {"n", "4"},
                {"topology", "ring"},
                {"seeds", "1.." + std::to_string(4 * cli::kRunAheadWindow + 8)},
                {"horizon", "2"},
                {"sample_dt", "1"}});
}

// Two cells: the first fails only at run time, the second runs clean.
// build_campaign refuses n = 1, so the errored cell is set by hand.
cli::Campaign errored_campaign() {
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(2);
  campaign.cells[0].config.params.n = 1;
  return campaign;
}

// A log sink that sleeps on every line, so the committing thread (which
// logs each cell) falls behind the workers.
class SlowLineSink : public std::streambuf {
 protected:
  int_type overflow(int_type c) override {
    if (c == '\n') std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return traits_type::not_eof(c);
  }
};

// Points `path` at /dev/full, where every write fails with ENOSPC.
bool link_to_dev_full(const fs::path& path) {
  if (!fs::exists("/dev/full")) return false;
  fs::create_directories(path.parent_path());
  fs::create_symlink("/dev/full", path);
  return true;
}

TEST(CsvField, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(cli::csv_field("plain-0.5_x"), "plain-0.5_x");
  EXPECT_EQ(cli::csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(cli::csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(cli::csv_field("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(cli::csv_field(""), "");
}

TEST(Runner, SeriesAndTraceArtifactsAppearOnlyWhenRequested) {
  const fs::path off_dir = fresh_dir("telemetry-off");
  const fs::path on_dir = fresh_dir("telemetry-on");
  const cli::Campaign campaign = small_campaign();

  cli::RunnerOptions options;
  options.quiet = true;
  options.fixed_timing = true;
  std::ostringstream log;

  options.out_dir = off_dir.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);
  options.series = true;
  options.trace = true;
  options.trace_limit = 32;
  options.out_dir = on_dir.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);

  std::size_t cells = 0;
  for (const auto& entry : fs::directory_iterator(on_dir / "cells")) {
    const fs::path p = entry.path();
    if (p.extension() != ".json") continue;
    ++cells;
    const fs::path stem = p.stem();
    const fs::path series = on_dir / "cells" / (stem.string() + ".series.csv");
    const fs::path trace = on_dir / "cells" / (stem.string() + ".trace.jsonl");
    ASSERT_TRUE(fs::exists(series)) << series;
    ASSERT_TRUE(fs::exists(trace)) << trace;
    // One header plus horizon/sample_dt rows.
    const std::string csv = read_file(series);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 21);
    EXPECT_EQ(csv.rfind("t,global_skew,", 0), 0u);
    // Trace is bounded: meta line + at most trace_limit records.
    const std::string jsonl = read_file(trace);
    const auto lines = std::count(jsonl.begin(), jsonl.end(), '\n');
    EXPECT_LE(lines, 33);
    EXPECT_GE(lines, 2);
    const json::Value meta =
        json::parse(jsonl.substr(0, jsonl.find('\n')));
    EXPECT_EQ(meta.at("kind").as_string(), "meta");
    EXPECT_GT(meta.at("events_seen").as_u64(), 0u);

    // Without the flags, neither file exists...
    EXPECT_FALSE(fs::exists(off_dir / "cells" / series.filename()));
    EXPECT_FALSE(fs::exists(off_dir / "cells" / trace.filename()));
    // ...and the cell document itself is byte-identical either way:
    // telemetry observes, it never changes results.
    EXPECT_EQ(read_file(off_dir / "cells" / p.filename()), read_file(p));
  }
  EXPECT_EQ(cells, campaign.cells.size());
}

TEST(Runner, ParallelRunIsByteIdenticalToSerial) {
  const fs::path dir_a = fresh_dir("serial");
  const fs::path dir_b = fresh_dir("parallel");
  const cli::Campaign campaign = small_campaign();

  cli::RunnerOptions options;
  options.quiet = true;
  options.fixed_timing = true;  // timing is the only nondeterministic output
  std::ostringstream log_a;
  std::ostringstream log_b;

  options.jobs = 1;
  options.out_dir = dir_a.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log_a), 0);
  options.jobs = 3;
  options.out_dir = dir_b.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log_b), 0);

  for (const char* artifact : {"campaign.csv", "campaign.jsonl",
                               "summary.json"}) {
    EXPECT_EQ(read_file(dir_a / artifact), read_file(dir_b / artifact))
        << artifact;
  }
  std::size_t cells_compared = 0;
  for (const auto& entry : fs::directory_iterator(dir_a / "cells")) {
    const fs::path other = dir_b / "cells" / entry.path().filename();
    ASSERT_TRUE(fs::exists(other)) << other;
    EXPECT_EQ(read_file(entry.path()), read_file(other))
        << entry.path().filename();
    ++cells_compared;
  }
  EXPECT_EQ(cells_compared, campaign.cells.size());
  // The quiet log carries only the summary line; both runs agree on
  // everything but wall time, which the summary line reports, so compare
  // the cell/failure counters prefix.
  EXPECT_EQ(log_a.str().substr(0, log_a.str().find(" events in")),
            log_b.str().substr(0, log_b.str().find(" events in")));
}

TEST(Runner, StreamedSeriesOfErroredCellIsRemoved) {
  // An errored cell must not leave a partial (header-only) series file
  // behind when the series stream was already open.
  const fs::path dir = fresh_dir("errored-series");
  const cli::Campaign campaign = errored_campaign();
  cli::RunnerOptions options;
  options.quiet = true;
  options.series = true;
  options.out_dir = dir.string();
  std::ostringstream log;
  EXPECT_EQ(cli::run_campaign(campaign, options, log), 1);

  std::size_t series_files = 0;
  std::size_t json_files = 0;
  for (const auto& entry : fs::directory_iterator(dir / "cells")) {
    const std::string name = entry.path().filename().string();
    if (name.find(".series.csv") != std::string::npos) ++series_files;
    if (entry.path().extension() == ".json") ++json_files;
  }
  EXPECT_EQ(json_files, 1u);    // only the clean cell wrote a document
  EXPECT_EQ(series_files, 1u);  // and only it kept a series file
}

TEST(Runner, PeakRssIsFilledUnlessTimingIsFixed) {
  const fs::path live = fresh_dir("rss-live");
  const fs::path pinned = fresh_dir("rss-pinned");
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(1);

  cli::RunnerOptions options;
  options.quiet = true;
  std::ostringstream log;
  options.out_dir = live.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);
  options.fixed_timing = true;
  options.out_dir = pinned.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);

  auto rss_of = [](const fs::path& tree) {
    for (const auto& entry : fs::directory_iterator(tree / "cells")) {
      if (entry.path().extension() == ".json") {
        const json::Value doc = json::parse(read_file(entry.path()));
        return doc.at("result").at("run_stats").at("peak_rss_kb").as_u64();
      }
    }
    return std::uint64_t{0};
  };
  // Any real process has megabytes resident; --fixed-timing pins the
  // counter to 0 so trees stay byte-comparable.
  EXPECT_GT(rss_of(live), 1000u);
  EXPECT_EQ(rss_of(pinned), 0u);
}

TEST(Runner, ErroredCellsAreDisjointFromFailedAndLogTimingOnly) {
  const fs::path dir = fresh_dir("errored");
  const cli::Campaign campaign = errored_campaign();

  cli::RunnerOptions options;
  options.out_dir = dir.string();
  std::ostringstream log;
  cli::CampaignOutcome outcome;
  // An errored cell fails the run even without --check...
  EXPECT_EQ(cli::run_campaign(campaign, options, log, &outcome), 1);
  // ...but the counters stay disjoint: it is errored, not "failed".
  EXPECT_EQ(outcome.errored_cells, 1u);
  EXPECT_EQ(outcome.failed_cells, 0u);
  ASSERT_EQ(outcome.cells.size(), 2u);
  EXPECT_TRUE(outcome.cells[0].errored);
  EXPECT_FALSE(outcome.cells[1].errored);

  // The ERROR progress line prints timing only -- no "0 events, max skew
  // 0" from a default-constructed result.
  const std::string text = log.str();
  const std::size_t error_line = text.find(" ERROR (");
  ASSERT_NE(error_line, std::string::npos) << text;
  const std::size_t eol = text.find('\n', error_line);
  const std::string line = text.substr(error_line, eol - error_line);
  EXPECT_EQ(line.find("events"), std::string::npos) << line;
  EXPECT_EQ(line.find("skew"), std::string::npos) << line;
  EXPECT_NE(line.find("ms)"), std::string::npos) << line;

  // summary.json reports the disjoint counters.
  const json::Value summary = json::parse(read_file(dir / "summary.json"));
  EXPECT_EQ(summary.at("errored_cells").as_u64(), 1u);
  EXPECT_EQ(summary.at("failed_cells").as_u64(), 0u);
  EXPECT_EQ(summary.at("cells").as_u64(), 2u);

  // The errored cell leaves no artifacts: one CSV row, one JSONL line,
  // one cell file.
  const std::string csv = read_file(dir / "campaign.csv");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);  // header + 1 row
}

TEST(Runner, HandBuiltLabelsAreSanitizedAndCsvQuoted) {
  const fs::path dir = fresh_dir("weird-labels");
  // run_campaign accepts hand-built Campaigns whose labels and name never
  // went through build_campaign's sanitizer.
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(2);
  campaign.name = "evil,name";
  campaign.cells[0].label = "a/b,c";    // '/' would escape cells/
  campaign.cells[1].label = "a-b-c";    // collides with cell 0 post-sanitize
  cli::RunnerOptions options;
  options.quiet = true;
  options.out_dir = dir.string();
  std::ostringstream log;
  ASSERT_EQ(cli::run_campaign(campaign, options, log), 0);

  // Filenames: sanitized, collision-resolved, nothing escaped cells/.
  EXPECT_TRUE(fs::exists(dir / "cells" / "a-b-c.json"));
  EXPECT_TRUE(fs::exists(dir / "cells" / "a-b-c-1.json"));

  // CSV: the raw label and campaign name survive inside quotes; the row
  // still has the header's column count when parsed with quote-awareness.
  const std::string csv = read_file(dir / "campaign.csv");
  EXPECT_NE(csv.find("\"evil,name\",\"a/b,c\","), std::string::npos) << csv;

  // The cell documents keep the raw (unsanitized) label, which is what
  // gcs_diff matches on.
  const json::Value doc =
      json::parse(read_file(dir / "cells" / "a-b-c.json"));
  EXPECT_EQ(doc.at("cell").as_string(), "a/b,c");
  EXPECT_EQ(doc.at("campaign").as_string(), "evil,name");
}

TEST(Runner, DuplicateLabelsAreRejectedBeforeRunning) {
  // Two cells with one label would write a tree whose documents share an
  // identity -- gcs_diff could never tell them apart -- so the runner
  // refuses up front, before touching the output directory.
  const fs::path dir = fresh_dir("dup-labels");
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(2);
  campaign.cells[1].label = campaign.cells[0].label;
  cli::RunnerOptions options;
  options.quiet = true;
  options.out_dir = (dir / "tree").string();
  std::ostringstream log;
  EXPECT_THROW(cli::run_campaign(campaign, options, log),
               std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir / "tree"));
}

TEST(Runner, JobsAboveCellCountIsSafe) {
  const fs::path dir = fresh_dir("overprovisioned");
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(2);
  cli::RunnerOptions options;
  options.quiet = true;
  options.jobs = 64;  // clamped to the cell count
  options.out_dir = dir.string();
  std::ostringstream log;
  EXPECT_EQ(cli::run_campaign(campaign, options, log), 0);
  EXPECT_TRUE(fs::exists(dir / "campaign.csv"));
}

TEST(Runner, RunAheadWindowBoundsUncommittedCells) {
  const cli::Campaign campaign = window_campaign();
  ASSERT_GE(campaign.cells.size(), 4 * cli::kRunAheadWindow);

  cli::RunnerOptions options;
  options.fixed_timing = true;
  SlowLineSink sink;
  std::ostream slow_log(&sink);
  const fs::path dir_j4 = fresh_dir("window-j4");
  const fs::path dir_j1 = fresh_dir("window-j1");
  cli::CampaignOutcome parallel;
  options.jobs = 4;
  options.out_dir = dir_j4.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, slow_log, &parallel), 0);
  // The committer sleeps on every line, so the workers run ahead until
  // the window stops them, and never further.
  EXPECT_EQ(parallel.max_uncommitted_cells, cli::kRunAheadWindow);

  cli::CampaignOutcome serial;
  std::ostringstream log;
  options.jobs = 1;
  options.quiet = true;
  options.out_dir = dir_j1.string();
  ASSERT_EQ(cli::run_campaign(campaign, options, log, &serial), 0);
  EXPECT_GE(serial.max_uncommitted_cells, 1u);
  EXPECT_LE(serial.max_uncommitted_cells, cli::kRunAheadWindow);

  // Holding cells back changes nothing a cell produces.
  EXPECT_EQ(serial.failed_cells, parallel.failed_cells);
  EXPECT_EQ(serial.errored_cells, parallel.errored_cells);
  ASSERT_EQ(serial.cells.size(), campaign.cells.size());
  ASSERT_EQ(parallel.cells.size(), campaign.cells.size());
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].label, campaign.cells[i].label);
    EXPECT_EQ(parallel.cells[i].label, campaign.cells[i].label);
    EXPECT_EQ(json::dump(gcs::harness::to_json(serial.cells[i].result)),
              json::dump(gcs::harness::to_json(parallel.cells[i].result)))
        << campaign.cells[i].label;
    EXPECT_EQ(serial.cells[i].failures, parallel.cells[i].failures);
  }
  for (const char* artifact : {"campaign.csv", "campaign.jsonl",
                               "summary.json"}) {
    EXPECT_EQ(read_file(dir_j1 / artifact), read_file(dir_j4 / artifact))
        << artifact;
  }
}

TEST(Runner, FailedCellWriteNamesTheFileAndReleasesParkedWorkers) {
  const cli::Campaign campaign = window_campaign();
  const fs::path dir = fresh_dir("cell-dev-full");
  // A cell two windows in: by the time the slow committer reaches it the
  // workers have filled the window and are parked behind it.
  const std::size_t bad = 2 * cli::kRunAheadWindow;
  const fs::path bad_file =
      dir / "cells" / (campaign.cells[bad].label + ".json");
  if (!link_to_dev_full(bad_file)) GTEST_SKIP() << "no /dev/full";

  cli::RunnerOptions options;
  options.check = true;
  options.jobs = 4;
  options.out_dir = dir.string();
  SlowLineSink sink;
  std::ostream slow_log(&sink);
  cli::CampaignOutcome outcome;
  try {
    cli::run_campaign(campaign, options, slow_log, &outcome);
    FAIL() << "a cell file on /dev/full must fail the run";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(bad_file.string()),
              std::string::npos)
        << e.what();
  }
  // It got here, so every worker was released and joined.  The cells
  // before the bad one committed; none after it did.
  EXPECT_EQ(outcome.cells.size(), bad);
  EXPECT_EQ(outcome.max_uncommitted_cells, cli::kRunAheadWindow);
  EXPECT_FALSE(fs::exists(dir / "summary.json"));
}

TEST(Runner, FailedSummaryWriteFailsTheRun) {
  // summary.json is a few hundred bytes, which the stream buffers until
  // it closes; the failure must still be seen.
  const fs::path dir = fresh_dir("summary-dev-full");
  if (!link_to_dev_full(dir / "summary.json")) GTEST_SKIP() << "no /dev/full";
  cli::Campaign campaign = small_campaign();
  campaign.cells.resize(1);
  cli::RunnerOptions options;
  options.quiet = true;
  options.check = true;
  options.out_dir = dir.string();
  std::ostringstream log;
  try {
    cli::run_campaign(campaign, options, log);
    FAIL() << "summary.json on /dev/full must fail the run";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("summary.json"), std::string::npos)
        << e.what();
  }
}

}  // namespace
