#include "cli/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <sys/resource.h>

#include "harness/serialize.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace gcs::cli {

namespace json = gcs::util::json;
namespace fs = std::filesystem;

const char kCsvHeader[] =
    "campaign,cell,n,workload,drift,delay,traffic,seed,"
    "horizon,sample_dt,samples,max_global_skew,global_skew_bound,"
    "global_margin,max_local_skew,local_skew_floor,global_violations,"
    "envelope_violations,monotonicity_failures,messages_sent,"
    "messages_delivered,messages_dropped,delivery_events,traffic_packets,"
    "traffic_dropped,ecn_marks,peak_queue_bytes,sync_delay_sum,"
    "sync_delay_max,events_executed,clamped_events,wall_ms,events_per_sec";

std::string csv_field(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

namespace {

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// Process high-water RSS in KiB (getrusage's ru_maxrss unit on Linux);
// 0 when the platform call fails.  This is the runner-filled
// run_stats.peak_rss_kb -- a machine-visibility counter like wall_ms,
// pinned to 0 under --fixed-timing and ignored by gcs_diff.
std::uint64_t process_peak_rss_kb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss > 0 ? static_cast<std::uint64_t>(usage.ru_maxrss) : 0;
}

std::string csv_row(const Campaign& campaign, const Cell& cell,
                    const harness::ExperimentResult& result, double wall_ms,
                    double events_per_sec) {
  const core::RunStats& stats = result.run_stats;
  const std::string workload =
      cell.scenario.is_static() ? cell.config.topology : cell.scenario.kind;
  std::ostringstream row;
  auto num = [](double v) { return json::dump_number(v); };
  row << csv_field(campaign.name) << ',' << csv_field(cell.label) << ','
      << cell.config.params.n << ',' << csv_field(workload) << ','
      << csv_field(cell.config.drift) << ',' << csv_field(cell.config.delay)
      << ',' << csv_field(cell.config.traffic) << ',' << cell.config.seed
      << ',' << num(cell.config.horizon) << ',' << num(cell.config.sample_dt)
      << ',' << result.samples << ',' << num(result.max_global_skew) << ','
      << num(result.global_skew_bound) << ','
      << num(result.global_skew_bound - result.max_global_skew) << ','
      << num(result.max_local_skew) << ',' << num(result.local_skew_floor)
      << ',' << result.global_violations << ',' << result.envelope_violations
      << ',' << stats.conformance_monotonicity_failures << ','
      << stats.messages_sent << ',' << stats.messages_delivered << ','
      << stats.messages_dropped << ',' << stats.delivery_events << ','
      << stats.traffic_packets << ',' << stats.traffic_dropped << ','
      << stats.ecn_marks << ',' << stats.peak_queue_bytes << ','
      << num(stats.sync_delay_sum) << ',' << num(stats.sync_delay_max) << ','
      << result.events_executed << ',' << result.clamped_events << ','
      << num(wall_ms) << ',' << num(events_per_sec);
  return row.str();
}

// The --check audit.  The schema round-trip reads the cell file back off
// disk, so it gates the artifact CI uploads, not an in-memory copy.
std::vector<std::string> audit_cell(const harness::ExperimentResult& result,
                                    const fs::path& cell_path) {
  std::vector<std::string> failures;
  if (result.global_violations > 0) {
    failures.push_back("global skew bound violated " +
                       std::to_string(result.global_violations) + " time(s)");
  }
  if (result.envelope_violations > 0) {
    failures.push_back("B envelope violated " +
                       std::to_string(result.envelope_violations) + " time(s)");
  }
  if (result.run_stats.conformance_monotonicity_failures > 0) {
    failures.push_back(
        "logical clock ran backwards " +
        std::to_string(result.run_stats.conformance_monotonicity_failures) +
        " time(s)");
  }
  if (result.run_stats.connectivity_windows_disconnected > 0) {
    failures.push_back(
        "(T+D)-interval connectivity violated: " +
        std::to_string(result.run_stats.connectivity_windows_disconnected) +
        " of " +
        std::to_string(result.run_stats.connectivity_windows_checked) +
        " window(s) had a disconnected snapshot union");
  }
  if (result.clamped_events > 0) {
    failures.push_back(
        "engine clamped " + std::to_string(result.clamped_events) +
        " past-time event(s); first asked for t=" +
        json::dump_number(result.run_stats.first_clamped_time) +
        " as seq=" + std::to_string(result.run_stats.first_clamped_seq));
  }
  try {
    const json::Value reread = json::parse_file(cell_path.string());
    const harness::ExperimentResult decoded =
        harness::result_from_json(reread.at("result"));
    if (json::dump(harness::to_json(decoded)) !=
        json::dump(reread.at("result"))) {
      failures.push_back("schema drift: result does not round-trip");
    }
    // The config echo must be re-runnable too (the scenario spec lives
    // next to it, so both readers get exactly the shape they expect).
    harness::ExperimentConfig echoed =
        harness::config_from_json(reread.at("config"));
    (void)echoed;
    if (const json::Value* spec = reread.find("scenario")) {
      (void)ScenarioSpec::from_json(*spec);
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("schema drift: ") + e.what());
  }
  return failures;
}

// Everything one worker produces for one cell.  Workers fill slots; the
// calling thread commits them strictly in cell order, so campaign.csv,
// campaign.jsonl, and the log are byte-identical whatever `jobs` is.
struct CellExecution {
  CellOutcome outcome;
  std::string csv_line;    // empty if the cell errored
  std::string jsonl_line;  // empty if the cell errored
  std::exception_ptr fatal;  // artifact I/O failure; rethrown by the committer
  bool done = false;         // guarded by the pool mutex
};

// Sanitized, collision-free file names for cells/, fixed before the pool
// starts so workers never coordinate.  Labels from build_campaign are
// already unique and filesystem-safe; hand-built Campaigns may not be.
// Duplicate *labels* are rejected outright -- the documents embed the
// label as the cell's identity (gcs_diff matches on it), so a campaign
// with two cells of one label would write a tree no reader can use.
// Distinct labels that merely sanitize to the same file name are fine
// and get a collision suffix.
std::vector<std::string> cell_file_names(const Campaign& campaign) {
  std::set<std::string> labels;
  for (const Cell& cell : campaign.cells) {
    if (!labels.insert(cell.label).second) {
      throw std::invalid_argument("campaign: duplicate cell label '" +
                                  cell.label + "'");
    }
  }
  std::vector<std::string> names;
  names.reserve(campaign.cells.size());
  std::set<std::string> used;
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    std::string name = sanitize_component(campaign.cells[i].label, "cell");
    while (!used.insert(name).second) name += "-" + std::to_string(i);
    names.push_back(name + ".json");
  }
  return names;
}

}  // namespace

int run_campaign(const Campaign& campaign, const RunnerOptions& options,
                 std::ostream& log, CampaignOutcome* outcome) {
  if (options.list_only) {
    for (const Cell& cell : campaign.cells) {
      json::Value doc;
      doc["config"] = harness::config_to_json(cell.config);
      if (!cell.scenario.is_static()) {
        doc["scenario"] = cell.scenario.to_json();
      }
      log << cell.label << " " << json::dump(doc) << "\n";
    }
    // Per-axis cardinality, so an oversized sweep is visible (and
    // explainable: the cell count is the product of these) before
    // anything runs.
    for (const AxisInfo& axis : campaign.axes) {
      log << "axis " << axis.key << ": " << axis.cardinality << " value(s)\n";
    }
    log << campaign.cells.size() << " cell(s)\n";
    return 0;
  }

  // Validates labels and fixes file names before anything touches disk.
  const std::vector<std::string> file_names = cell_file_names(campaign);

  const fs::path out_dir = options.out_dir.empty()
                               ? fs::path("results") / campaign.name
                               : fs::path(options.out_dir);
  fs::create_directories(out_dir / "cells");

  CampaignOutcome local;
  CampaignOutcome& out = outcome ? *outcome : local;
  out.out_dir = out_dir.string();

  const std::size_t cell_count = campaign.cells.size();
  std::vector<CellExecution> slots(cell_count);

  // A worker runs one cell end to end: experiment, cell file, audit.  All
  // state it touches is its own slot plus its own cells/<file>.json, so
  // workers never contend; only the done flag needs the lock.
  auto execute_cell = [&](std::size_t i) {
    const Cell& cell = campaign.cells[i];
    CellExecution& ex = slots[i];
    ex.outcome.label = cell.label;

    // file_names[i] always ends in ".json"; the telemetry artifacts
    // share its stem so a cell's files sort together.
    const std::string stem = file_names[i].substr(0, file_names[i].size() - 5);
    const fs::path series_path = out_dir / "cells" / (stem + ".series.csv");

    // Telemetry probe, when asked for: series rows always, the bounded
    // trace only under --trace.  The recorder is passive, so attaching
    // it cannot change any result byte (the determinism tests gate it).
    std::optional<gcs::obs::TelemetryRecorder> recorder;
    std::ofstream series_out;
    if (options.series || options.trace) {
      recorder.emplace(options.trace ? options.trace_limit : 0);
      if (options.series) {
        // Rows go to disk as they are sampled, so the recorder holds no
        // per-sample state however long the horizon.
        series_out.open(series_path, std::ios::binary | std::ios::trunc);
        if (!series_out) {
          ex.fatal = std::make_exception_ptr(std::runtime_error(
              "cannot write " + series_path.string()));
          return;
        }
        recorder->stream_series_to(series_out);
      }
    }

    // A throwing cell (bad axis value, n < 2, ...) is recorded and the
    // campaign keeps going: a red run must still leave a complete results
    // tree for CI to upload.
    const auto start = std::chrono::steady_clock::now();
    try {
      ex.outcome.result = harness::run_experiment(
          instantiate(cell), recorder ? &*recorder : nullptr);
    } catch (const std::exception& e) {
      ex.outcome.failures.push_back(std::string("failed to run: ") + e.what());
      ex.outcome.errored = true;
    }
    ex.outcome.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (ex.outcome.errored) {
      // A partially streamed series file describes a run that never
      // happened; drop it so errored cells leave no telemetry artifacts.
      if (series_out.is_open()) {
        series_out.close();
        std::error_code ec;
        fs::remove(series_path, ec);
      }
      return;
    }
    // Runner-filled memory counter, set before the cell document is
    // written so the --check round-trip sees the final bytes.  Pinned to
    // 0 under --fixed-timing: RSS describes the machine and the cell
    // schedule, not the trajectory.
    ex.outcome.result.run_stats.peak_rss_kb =
        options.fixed_timing ? 0 : process_peak_rss_kb();

    try {
      const harness::ExperimentResult& result = ex.outcome.result;
      const double wall_ms = options.fixed_timing ? 0.0 : ex.outcome.wall_ms;
      const double events_per_sec =
          options.fixed_timing
              ? 0.0
              : static_cast<double>(result.events_executed) /
                    std::max(ex.outcome.wall_ms, 1e-3) * 1e3;
      const json::Value spec_json =
          cell.scenario.is_static() ? json::Value() : cell.scenario.to_json();
      const json::Value doc = harness::cell_document(
          campaign.name, cell.label, harness::config_to_json(cell.config),
          cell.scenario.is_static() ? nullptr : &spec_json, result, wall_ms,
          events_per_sec);
      const fs::path cell_path = out_dir / "cells" / file_names[i];
      write_file(cell_path, json::dump(doc, 2) + "\n");
      if (options.series) {
        series_out.close();
        if (!series_out) {
          throw std::runtime_error("cannot write " + series_path.string());
        }
      }
      if (options.trace) {
        write_file(out_dir / "cells" / (stem + ".trace.jsonl"),
                   recorder->trace_jsonl());
      }
      ex.csv_line =
          csv_row(campaign, cell, result, wall_ms, events_per_sec) + "\n";
      ex.jsonl_line = json::dump(doc) + "\n";
      ex.outcome.failures = audit_cell(result, cell_path);
    } catch (...) {
      ex.fatal = std::current_exception();
    }
  };

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::size_t> next_cell{0};
  // Set by the committer before it rethrows a fatal artifact error, so
  // workers stop claiming new cells instead of computing (and failing to
  // write) the rest of a possibly huge campaign.
  std::atomic<bool> cancelled{false};
  const std::size_t jobs = std::min<std::size_t>(
      std::max(options.jobs, 1), std::max<std::size_t>(cell_count, 1));

  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        const std::size_t i = next_cell.fetch_add(1);
        if (i >= cell_count) return;
        execute_cell(i);
        {
          const std::lock_guard<std::mutex> lock(mu);
          slots[i].done = true;
        }
        cv.notify_all();
      }
    });
  }
  // Join even when the commit loop throws (a worker's fatal I/O error):
  // workers only touch their own slots and stop at the next dispatch, so
  // letting the in-flight cells finish is safe.
  struct Joiner {
    std::vector<std::thread>& pool;
    std::atomic<bool>& cancelled;
    ~Joiner() {
      cancelled.store(true, std::memory_order_relaxed);
      for (std::thread& t : pool) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{pool, cancelled};

  // Campaign artifacts, appended per committed cell.
  std::ofstream csv_stream(out_dir / "campaign.csv",
                           std::ios::binary | std::ios::trunc);
  std::ofstream jsonl_stream(out_dir / "campaign.jsonl",
                             std::ios::binary | std::ios::trunc);
  if (!csv_stream || !jsonl_stream) {
    throw std::runtime_error("cannot write campaign artifacts in " +
                             out_dir.string());
  }
  csv_stream << kCsvHeader << "\n";
  double max_global = 0.0;
  double max_local = 0.0;
  double total_wall_ms = 0.0;
  std::uint64_t total_events = 0;

  // Commit strictly in cell order: wait for cell i, fold it into the
  // artifacts, log it.  Workers may be many cells ahead; output order
  // never shows that.
  for (std::size_t i = 0; i < cell_count; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return slots[i].done; });
    }
    CellExecution& ex = slots[i];
    if (ex.fatal) std::rethrow_exception(ex.fatal);

    const CellOutcome& cell_out = ex.outcome;
    if (cell_out.errored) {
      ++out.errored_cells;
    } else {
      csv_stream << ex.csv_line;
      jsonl_stream << ex.jsonl_line;
      // Free the committed lines eagerly; with many cells in flight the
      // slots themselves are the next-largest resident state.
      std::string().swap(ex.csv_line);
      std::string().swap(ex.jsonl_line);
      max_global = std::max(max_global, cell_out.result.max_global_skew);
      max_local = std::max(max_local, cell_out.result.max_local_skew);
      total_events += cell_out.result.events_executed;
      if (!cell_out.failures.empty()) ++out.failed_cells;
    }
    total_wall_ms += cell_out.wall_ms;

    if (!options.quiet) {
      // An errored cell has no result; print only its timing, not the
      // default-constructed zeros.
      log << "[" << (i + 1) << "/" << cell_count << "] " << cell_out.label;
      if (cell_out.errored) {
        log << " ERROR (" << json::dump_number(cell_out.wall_ms) << " ms)\n";
      } else {
        log << (cell_out.failures.empty() ? " ok" : " FAIL") << " ("
            << json::dump_number(cell_out.wall_ms) << " ms, "
            << cell_out.result.events_executed << " events, max skew "
            << json::dump_number(cell_out.result.max_global_skew) << ")\n";
      }
    }
    for (const std::string& failure : cell_out.failures) {
      log << "  check: " << cell_out.label << ": " << failure << "\n";
    }
    out.cells.push_back(std::move(ex.outcome));
  }

  csv_stream.close();
  jsonl_stream.close();
  if (!csv_stream || !jsonl_stream) {
    throw std::runtime_error("cannot write campaign artifacts in " +
                             out_dir.string());
  }

  json::Value summary;
  summary["schema_version"] = harness::kResultSchemaVersion;
  summary["campaign"] = campaign.name;
  summary["cells"] = out.cells.size();
  summary["failed_cells"] = out.failed_cells;
  summary["errored_cells"] = out.errored_cells;
  summary["max_global_skew"] = max_global;
  summary["max_local_skew"] = max_local;
  summary["total_events"] = total_events;
  summary["total_wall_ms"] = options.fixed_timing ? 0.0 : total_wall_ms;
  write_file(out_dir / "summary.json", json::dump(summary, 2) + "\n");

  log << campaign.name << ": " << out.cells.size() << " cell(s), "
      << out.failed_cells << " failed, " << out.errored_cells << " errored, "
      << total_events << " events in " << json::dump_number(total_wall_ms)
      << " ms -> " << out.out_dir << "\n";

  // Cells that could not run at all are a broken campaign, not a physics
  // finding: they fail the run with or without --check.
  if (out.errored_cells > 0) return 1;
  return options.check && out.failed_cells > 0 ? 1 : 0;
}

}  // namespace gcs::cli
