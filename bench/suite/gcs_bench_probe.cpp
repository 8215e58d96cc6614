// gcs_bench_probe -- times the simulator's public layers from outside.
//
//   gcs_bench_probe setup --campaign FILE [--key=value ...]
//   gcs_bench_probe trace --campaign FILE --spans OUT [--key=value ...]
//   gcs_bench_probe spawn PROGRAM [ARG ...]
//
// Campaign files and --key=value overrides expand exactly as in gcs_run
// (cli::build_campaign), so the probe sees the cells gcs_run runs.
//
// setup: per cell, times cli::instantiate plus harness::run_experiment on
// the instantiated config with the horizon cut to 1e-12.  The cut lies
// below every node's first broadcast and every sample, so the call builds
// the schedules, link, graph and NetworkSimulation, executes nothing, and
// frees them again; a cell in which any event runs is a failure.  Prints
// {"cells", "setup_s", "calib_s", "failures"} with the time summed over
// cells.
//
// trace: one pass over the cells with a span around each public call
// (name, start, end, parent, cell), kept in memory and written to OUT at
// exit.  The full run gets a counting obs::Recorder that wants the trace;
// its per-kind counts must equal the run's RunStats, and the (send,
// delivery) time pairs it captures are replayed through a bare sim::Engine
// under each scheduler policy.  Prints per-span-name totals and self times
// (duration minus children), the number of replayed sends and the
// failures.
//
// spawn: runs PROGRAM as a child, waits for it, and prints its exit code,
// wall time, CPU time, peak RSS and calib_s as a JSON line after the
// child's own output.  A process's ru_maxrss starts from its parent's
// resident set at fork (and, under vfork, from the parent's own high-water
// mark), so a program launched straight from an interpreter reports at
// least the interpreter's RSS; launched from this small process, a
// program smaller than the interpreter reports its own peak.
//
// calib_s is the mean time of a fixed integer loop run just before and just
// after the timed work: the host's speed at that moment, which run.py
// divides out of the times it reports.
//
// Exit codes: 0 ok, 1 "failures" is not empty, 2 bad usage or campaign.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cli/campaign.hpp"
#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "net/dynamic_graph.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "util/json.hpp"

namespace {

namespace json = gcs::util::json;
using Clock = std::chrono::steady_clock;

// Horizon for the set-up-only run: positive (run_experiment rejects 0)
// and far below the first broadcast phase and the first sample.
constexpr double kSetupHorizon = 1e-12;

// Steps of the host-speed calibration loop (~0.12 s on a 2 GHz Xeon).
constexpr std::uint64_t kCalibrationSteps = std::uint64_t{1} << 26;
volatile std::uint64_t calibration_sink = 0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One timed pass of a dependent integer chain: no memory traffic, no
// closed form, so its time tracks only how fast this CPU runs right now.
double calibrate() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 1;
  for (std::uint64_t k = 0; k < kCalibrationSteps; ++k) {
    x = x * 6364136223846793005ULL + (x >> 17) + k;
  }
  calibration_sink = x;
  return seconds_since(start);
}

struct Span {
  std::string name;
  std::string cell;  // empty outside a cell
  double start = 0.0;  // seconds since the probe started
  double end = 0.0;
  int parent = -1;  // index into the span list, -1 for the root
};

// In-memory span list with an explicit open-span stack; spans nest
// strictly, so the innermost open span is every new span's parent.
class Tracer {
 public:
  void open(const std::string& name, const std::string& cell = {}) {
    spans_.push_back(
        Span{name, cell, seconds_since(origin_), 0.0,
             stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    spans_[stack_.back()].end = seconds_since(origin_);
    stack_.pop_back();
  }
  template <typename Fn>
  auto time(const std::string& name, const std::string& cell, Fn&& fn) {
    open(name, cell);
    struct Closer {
      Tracer* t;
      ~Closer() { t->close(); }
    } closer{this};
    return fn();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// The benchmark's recorder: counts every trace record by kind and keeps
// each send's (send time, delivery time) pair for the scheduler replay.
class CountingRecorder final : public gcs::obs::Recorder {
 public:
  static constexpr std::size_t kKinds = 6;

  void on_trace(const gcs::obs::TraceEvent& event) override {
    ++counts_[static_cast<std::size_t>(event.kind)];
    if (event.kind == gcs::obs::TraceEvent::Kind::kSend) {
      sends_.emplace_back(event.t, event.v2);
    }
  }
  bool wants_trace() const override { return true; }

  const std::array<std::uint64_t, kKinds>& counts() const { return counts_; }
  const std::vector<std::pair<double, double>>& sends() const { return sends_; }

 private:
  std::array<std::uint64_t, kKinds> counts_{};
  std::vector<std::pair<double, double>> sends_;
};

// Names the first recorder count that disagrees with RunStats, or "".
std::string records_mismatch(const CountingRecorder& rec,
                             const gcs::core::RunStats& s) {
  using Kind = gcs::obs::TraceEvent::Kind;
  const std::pair<Kind, std::uint64_t> expected[] = {
      {Kind::kSend, s.messages_sent},
      {Kind::kDeliver, s.messages_delivered},
      {Kind::kDrop, s.messages_dropped},
      {Kind::kJump, s.jumps},
      {Kind::kTopology, s.topology_events_applied},
      {Kind::kConformance, s.conformance_checks},
  };
  for (const auto& [kind, want] : expected) {
    const std::uint64_t got = rec.counts()[static_cast<std::size_t>(kind)];
    if (got != want) {
      return std::string(gcs::obs::kind_name(kind)) + " records " +
             std::to_string(got) + " != RunStats " + std::to_string(want);
    }
  }
  return "";
}

// Replays captured sends through a bare engine: advance to each send
// instant, schedule its delivery, then drain.  This is the message
// traffic's queue workload without the protocol around it.
void replay(const std::vector<std::pair<double, double>>& sends,
            gcs::sim::EnginePolicy policy) {
  gcs::sim::Engine engine(policy);
  double last = 0.0;
  for (const auto& [sent, delivered] : sends) {
    engine.run_until(sent);
    engine.at(delivered, [] {});
    last = std::max(last, delivered);
  }
  engine.run_until(last);
  if (engine.clamped_count() != 0 || engine.pending() != 0) {
    throw std::logic_error("replay: sends were not in time order");
  }
}

// The graph the harness would build for this config: the cell's scenario,
// or the static topology it names.
gcs::net::Scenario scenario_of(const gcs::harness::ExperimentConfig& config) {
  if (config.scenario) return *config.scenario;
  const std::size_t n = config.params.n;
  const std::string& t = config.topology;
  if (t == "ring") return gcs::net::make_static_scenario(gcs::net::make_ring(n));
  if (t == "path") return gcs::net::make_static_scenario(gcs::net::make_path(n));
  if (t == "star") return gcs::net::make_static_scenario(gcs::net::make_star(n));
  if (t == "complete") {
    return gcs::net::make_static_scenario(gcs::net::make_complete(n));
  }
  throw std::invalid_argument("unknown topology '" + t + "'");
}

// Horizon-cut run_experiment: builds the whole stack and should run
// nothing.  Appends a failure naming the cell if any event ran.
void setup_only(gcs::harness::ExperimentConfig config, const std::string& label,
                std::vector<std::string>& failures) {
  config.horizon = kSetupHorizon;
  const gcs::harness::ExperimentResult r = gcs::harness::run_experiment(config);
  if (r.events_executed != 0) {
    failures.push_back(label + ": the set-up run executed " +
                       std::to_string(r.events_executed) + " event(s)");
  }
}

// Prints `out` plus the failures; the exit code says whether any failed.
int finish(json::Value out, const std::vector<std::string>& failures) {
  out["failures"] = json::Value(json::Array(failures.begin(), failures.end()));
  std::cout << json::dump(out) << "\n";
  return failures.empty() ? 0 : 1;
}

int run_setup(const gcs::cli::Campaign& campaign) {
  std::vector<std::string> failures;
  const double calib_before = calibrate();
  double total = 0.0;
  for (const gcs::cli::Cell& cell : campaign.cells) {
    const Clock::time_point start = Clock::now();
    setup_only(gcs::cli::instantiate(cell), cell.label, failures);
    total += seconds_since(start);
  }
  json::Value out;
  out["cells"] = campaign.cells.size();
  out["setup_s"] = total;
  out["calib_s"] = (calib_before + calibrate()) / 2.0;
  return finish(std::move(out), failures);
}

int run_trace(const gcs::cli::Campaign& campaign, Tracer& tracer,
              const std::string& spans_path) {
  std::uint64_t sends = 0;
  std::vector<std::string> failures;
  for (const gcs::cli::Cell& cell : campaign.cells) {
    const std::string& id = cell.label;
    tracer.open("cell", id);
    const gcs::harness::ExperimentConfig config =
        tracer.time("cli.instantiate", id, [&] { return gcs::cli::instantiate(cell); });
    const gcs::net::DynamicGraph graph = tracer.time(
        "net.to_dynamic_graph", id, [&] { return scenario_of(config).to_dynamic_graph(); });
    const gcs::net::ConnectivityAudit audit =
        tracer.time("net.audit_interval_connectivity", id, [&] {
          return gcs::net::audit_interval_connectivity(
              graph, config.params.T + config.params.D, config.horizon);
        });
    (void)audit;
    tracer.time("core.build", id, [&] {
      setup_only(config, id, failures);
      return 0;
    });
    CountingRecorder recorder;
    const gcs::harness::ExperimentResult result = tracer.time(
        "harness.run_experiment", id,
        [&] { return gcs::harness::run_experiment(config, &recorder); });
    tracer.time("harness.serialize", id, [&] {
      const json::Value spec =
          cell.scenario.is_static() ? json::Value() : cell.scenario.to_json();
      const json::Value doc = gcs::harness::cell_document(
          campaign.name, id, gcs::harness::config_to_json(cell.config),
          cell.scenario.is_static() ? nullptr : &spec, result, 0.0, 0.0);
      return json::dump(doc, 2).size();
    });
    if (std::string m = records_mismatch(recorder, result.run_stats); !m.empty()) {
      failures.push_back(id + ": " + m);
    }
    sends += recorder.sends().size();
    tracer.time("sim.replay.calendar", id, [&] {
      replay(recorder.sends(), gcs::sim::EnginePolicy::kCalendar);
      return 0;
    });
    tracer.time("sim.replay.heap", id, [&] {
      replay(recorder.sends(), gcs::sim::EnginePolicy::kHeap);
      return 0;
    });
    tracer.close();
  }
  tracer.close();  // the "campaign" root

  // Totals and self times per span name.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  json::Value totals = json::Object{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    json::Value& t = totals[spans[i].name];
    const double duration = spans[i].end - spans[i].start;
    t["count"] = (t.find("count") ? t.at("count").as_number() : 0.0) + 1.0;
    t["total_s"] = (t.find("total_s") ? t.at("total_s").as_number() : 0.0) + duration;
    t["self_s"] = (t.find("self_s") ? t.at("self_s").as_number() : 0.0) +
                  duration - child_time[i];
  }

  json::Array span_docs;
  span_docs.reserve(spans.size());
  for (const Span& s : spans) {
    json::Value d;
    d["name"] = s.name;
    d["cell"] = s.cell;
    d["start"] = s.start;
    d["end"] = s.end;
    d["parent"] = s.parent;
    span_docs.push_back(std::move(d));
  }
  std::ofstream out(spans_path, std::ios::binary | std::ios::trunc);
  out << json::dump(json::Value(std::move(span_docs))) << "\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write " + spans_path);

  json::Value summary;
  summary["cells"] = campaign.cells.size();
  summary["sends"] = sends;
  summary["spans"] = std::move(totals);
  return finish(std::move(summary), failures);
}

int run_spawn(char** program) {
  std::cout.flush();
  const double calib_before = calibrate();
  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    execvp(program[0], program);
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    throw std::runtime_error("wait4 failed");
  }
  const double wall = seconds_since(start);
  json::Value out;
  out["exit"] = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  out["wall_s"] = wall;
  out["cpu_s"] = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  out["peak_rss_kb"] = static_cast<std::int64_t>(usage.ru_maxrss);
  out["calib_s"] = (calib_before + calibrate()) / 2.0;
  std::cout << json::dump(out) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: gcs_bench_probe setup|trace --campaign FILE "
                 "[--spans OUT] [--key=value ...] | spawn PROGRAM [ARG ...]\n";
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "spawn") {
    if (argc < 3) {
      std::cerr << "gcs_bench_probe: spawn wants a program\n";
      return 2;
    }
    try {
      return run_spawn(argv + 2);
    } catch (const std::exception& e) {
      std::cerr << "gcs_bench_probe: " << e.what() << "\n";
      return 2;
    }
  }
  std::string campaign_file;
  std::string spans_path;
  std::map<std::string, std::string> overrides;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--campaign" || arg == "--spans") && i + 1 < argc) {
      (arg == "--campaign" ? campaign_file : spans_path) = argv[++i];
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::cerr << "gcs_bench_probe: unexpected argument '" << arg << "'\n";
      return 2;
    }
    overrides[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  if ((mode != "setup" && mode != "trace") || campaign_file.empty() ||
      (mode == "trace") == spans_path.empty()) {
    std::cerr << "gcs_bench_probe: want 'setup --campaign FILE' or "
                 "'trace --campaign FILE --spans OUT'\n";
    return 2;
  }

  try {
    Tracer tracer;
    tracer.open("campaign");
    const gcs::cli::Campaign campaign = tracer.time("cli.build_campaign", "", [&] {
      std::ifstream in(campaign_file, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open " + campaign_file);
      std::ostringstream buf;
      buf << in.rdbuf();
      const json::Value doc = json::parse(buf.str());
      return gcs::cli::build_campaign(&doc, overrides);
    });
    if (mode == "setup") return run_setup(campaign);
    return run_trace(campaign, tracer, spans_path);
  } catch (const std::exception& e) {
    std::cerr << "gcs_bench_probe: " << e.what() << "\n";
    return 2;
  }
}
