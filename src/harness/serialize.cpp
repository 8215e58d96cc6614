#include "harness/serialize.hpp"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace gcs::harness {

namespace util = gcs::util;

namespace {

// Strict field readers: a result document must contain exactly what the
// writer of this schema version produced.
double req_num(const util::json::Value& doc, const char* key) {
  return doc.at(key).as_number();
}

std::uint64_t req_u64(const util::json::Value& doc, const char* key) {
  return doc.at(key).as_u64();
}

}  // namespace

util::json::Value to_json(const core::RunStats& stats) {
  util::json::Value v;
  v["messages_sent"] = stats.messages_sent;
  v["messages_delivered"] = stats.messages_delivered;
  v["messages_dropped"] = stats.messages_dropped;
  v["delivery_events"] = stats.delivery_events;
  v["jumps"] = stats.jumps;
  v["total_jump"] = stats.total_jump;
  v["topology_events_applied"] = stats.topology_events_applied;
  v["conformance_checks"] = stats.conformance_checks;
  v["conformance_envelope_failures"] = stats.conformance_envelope_failures;
  v["conformance_monotonicity_failures"] =
      stats.conformance_monotonicity_failures;
  v["first_clamped_time"] = stats.first_clamped_time;
  v["first_clamped_seq"] = stats.first_clamped_seq;
  v["connectivity_windows_checked"] = stats.connectivity_windows_checked;
  v["connectivity_windows_disconnected"] =
      stats.connectivity_windows_disconnected;
  v["arena_bytes"] = stats.arena_bytes;
  v["peak_rss_kb"] = stats.peak_rss_kb;
  v["traffic_packets"] = stats.traffic_packets;
  v["traffic_dropped"] = stats.traffic_dropped;
  v["ecn_marks"] = stats.ecn_marks;
  v["peak_queue_bytes"] = stats.peak_queue_bytes;
  v["sync_delay_sum"] = stats.sync_delay_sum;
  v["sync_delay_max"] = stats.sync_delay_max;
  return v;
}

core::RunStats run_stats_from_json(const util::json::Value& doc) {
  core::RunStats stats;
  stats.messages_sent = req_u64(doc, "messages_sent");
  stats.messages_delivered = req_u64(doc, "messages_delivered");
  stats.messages_dropped = req_u64(doc, "messages_dropped");
  stats.delivery_events = req_u64(doc, "delivery_events");
  stats.jumps = req_u64(doc, "jumps");
  stats.total_jump = req_num(doc, "total_jump");
  stats.topology_events_applied = req_u64(doc, "topology_events_applied");
  stats.conformance_checks = req_u64(doc, "conformance_checks");
  stats.conformance_envelope_failures =
      req_u64(doc, "conformance_envelope_failures");
  stats.conformance_monotonicity_failures =
      req_u64(doc, "conformance_monotonicity_failures");
  stats.first_clamped_time = req_num(doc, "first_clamped_time");
  stats.first_clamped_seq = req_u64(doc, "first_clamped_seq");
  stats.connectivity_windows_checked =
      req_u64(doc, "connectivity_windows_checked");
  stats.connectivity_windows_disconnected =
      req_u64(doc, "connectivity_windows_disconnected");
  stats.arena_bytes = req_u64(doc, "arena_bytes");
  stats.peak_rss_kb = req_u64(doc, "peak_rss_kb");
  stats.traffic_packets = req_u64(doc, "traffic_packets");
  stats.traffic_dropped = req_u64(doc, "traffic_dropped");
  stats.ecn_marks = req_u64(doc, "ecn_marks");
  stats.peak_queue_bytes = req_u64(doc, "peak_queue_bytes");
  stats.sync_delay_sum = req_num(doc, "sync_delay_sum");
  stats.sync_delay_max = req_num(doc, "sync_delay_max");
  return stats;
}

util::json::Value to_json(const sim::EngineStats& stats) {
  util::json::Value v;
  v["max_pending"] = stats.max_pending;
  v["heap_ops"] = stats.heap_ops;
  v["calendar_resizes"] = stats.calendar_resizes;
  v["calendar_bucket_scans"] = stats.calendar_bucket_scans;
  v["shard_windows"] = stats.shard_windows;
  v["shard_staged_events"] = stats.shard_staged_events;
  return v;
}

sim::EngineStats engine_stats_from_json(const util::json::Value& doc) {
  sim::EngineStats stats;
  stats.max_pending = req_u64(doc, "max_pending");
  stats.heap_ops = req_u64(doc, "heap_ops");
  stats.calendar_resizes = req_u64(doc, "calendar_resizes");
  stats.calendar_bucket_scans = req_u64(doc, "calendar_bucket_scans");
  stats.shard_windows = req_u64(doc, "shard_windows");
  stats.shard_staged_events = req_u64(doc, "shard_staged_events");
  return stats;
}

util::json::Value to_json(const obs::SeriesSummary& series) {
  util::json::Value v;
  v["points"] = series.points;
  v["mean_global_skew"] = series.mean_global_skew;
  v["max_envelope_ratio"] = series.max_envelope_ratio;
  v["peak_live_edges"] = series.peak_live_edges;
  v["peak_in_flight"] = series.peak_in_flight;
  v["peak_engine_pending"] = series.peak_engine_pending;
  v["peak_queue_bytes"] = series.peak_queue_bytes;
  return v;
}

obs::SeriesSummary series_summary_from_json(const util::json::Value& doc) {
  obs::SeriesSummary series;
  series.points = req_u64(doc, "points");
  series.mean_global_skew = req_num(doc, "mean_global_skew");
  series.max_envelope_ratio = req_num(doc, "max_envelope_ratio");
  series.peak_live_edges = req_u64(doc, "peak_live_edges");
  series.peak_in_flight = req_u64(doc, "peak_in_flight");
  series.peak_engine_pending = req_u64(doc, "peak_engine_pending");
  series.peak_queue_bytes = req_num(doc, "peak_queue_bytes");
  return series;
}

util::json::Value to_json(const ExperimentResult& result) {
  util::json::Value v;
  v["schema_version"] = kResultSchemaVersion;
  v["name"] = result.name;
  v["max_global_skew"] = result.max_global_skew;
  v["max_local_skew"] = result.max_local_skew;
  v["global_skew_bound"] = result.global_skew_bound;
  v["local_skew_floor"] = result.local_skew_floor;
  v["global_violations"] = result.global_violations;
  v["envelope_violations"] = result.envelope_violations;
  v["samples"] = result.samples;
  v["events_executed"] = result.events_executed;
  v["clamped_events"] = result.clamped_events;
  v["run_stats"] = to_json(result.run_stats);
  v["engine_stats"] = to_json(result.engine_stats);
  v["series"] = to_json(result.series);
  return v;
}

ExperimentResult result_from_json(const util::json::Value& doc) {
  const std::uint64_t version = req_u64(doc, "schema_version");
  if (version != static_cast<std::uint64_t>(kResultSchemaVersion)) {
    throw util::json::Error(
        "result schema drift: document has version " + std::to_string(version) +
        ", this reader expects " + std::to_string(kResultSchemaVersion));
  }
  ExperimentResult result;
  result.name = doc.at("name").as_string();
  result.max_global_skew = req_num(doc, "max_global_skew");
  result.max_local_skew = req_num(doc, "max_local_skew");
  result.global_skew_bound = req_num(doc, "global_skew_bound");
  result.local_skew_floor = req_num(doc, "local_skew_floor");
  result.global_violations = req_u64(doc, "global_violations");
  result.envelope_violations = req_u64(doc, "envelope_violations");
  result.samples = req_u64(doc, "samples");
  result.events_executed = req_u64(doc, "events_executed");
  result.clamped_events = req_u64(doc, "clamped_events");
  result.run_stats = run_stats_from_json(doc.at("run_stats"));
  result.engine_stats = engine_stats_from_json(doc.at("engine_stats"));
  result.series = series_summary_from_json(doc.at("series"));
  return result;
}

util::json::Value config_to_json(const ExperimentConfig& config) {
  util::json::Value v;
  v["name"] = config.name;
  v["n"] = config.params.n;
  v["rho"] = config.params.rho;
  v["T"] = config.params.T;
  v["D"] = config.params.D;
  v["delta_h"] = config.params.delta_h;
  v["B0"] = config.params.B0;
  v["topology"] = config.topology;
  v["drift"] = config.drift;
  v["delay"] = config.delay;
  v["shards"] = config.shards;
  v["traffic"] = config.traffic;
  v["variant"] = config.variant;
  v["horizon"] = config.horizon;
  v["sample_dt"] = config.sample_dt;
  v["seed"] = config.seed;
  return v;
}

namespace {

// Axes a cell can no longer select, with the values their legacy echoes
// may carry.  Each names what every cell now runs (the columns kernel,
// the calendar queue, batched delivery) or a path that produced the
// same trajectories, so it reads as a no-op.
struct RetiredAxis {
  const char* key;
  std::vector<std::string> values;
};

const RetiredAxis kRetiredAxes[] = {
    {"store", {"columns"}},
    {"engine", {"calendar", "heap"}},
    {"delivery", {"batched", "per-receiver"}},
};

// True iff `key` names a retired axis; throws naming the axis when
// `value` is not one of its legacy values.
bool retired_echo(const std::string& key, const util::json::Value& value) {
  for (const RetiredAxis& axis : kRetiredAxes) {
    if (key != axis.key) continue;
    const std::vector<std::string>& ok = axis.values;
    if (!value.is_string() ||
        std::find(ok.begin(), ok.end(), value.as_string()) == ok.end()) {
      throw util::json::Error("config: the " + key +
                              " axis is retired, and no cell ever echoed " +
                              util::json::dump(value) + " for it");
    }
    return true;
  }
  return false;
}

}  // namespace

void drop_retired_axes(util::json::Value& config) {
  util::json::Object& fields = config.as_object();
  for (auto it = fields.begin(); it != fields.end();) {
    it = retired_echo(it->first, it->second) ? fields.erase(it) : std::next(it);
  }
}

ExperimentConfig config_from_json(const util::json::Value& doc) {
  static const std::set<std::string> kKnown = {
      "name",     "n",       "rho",     "T",      "D",
      "delta_h",  "B0",      "topology", "drift", "delay",
      "shards",   "traffic", "variant", "horizon", "sample_dt",
      "seed"};
  for (const auto& [key, value] : doc.as_object()) {
    if (kKnown.count(key) == 0 && !retired_echo(key, value)) {
      throw util::json::Error("config: unknown key '" + key + "'");
    }
  }
  ExperimentConfig config;
  if (const auto* v = doc.find("name")) config.name = v->as_string();
  if (const auto* v = doc.find("n")) {
    config.params.n = static_cast<std::size_t>(v->as_u64());
  }
  if (const auto* v = doc.find("rho")) config.params.rho = v->as_number();
  if (const auto* v = doc.find("T")) config.params.T = v->as_number();
  if (const auto* v = doc.find("D")) config.params.D = v->as_number();
  if (const auto* v = doc.find("delta_h")) {
    config.params.delta_h = v->as_number();
  }
  if (const auto* v = doc.find("B0")) config.params.B0 = v->as_number();
  if (const auto* v = doc.find("topology")) config.topology = v->as_string();
  if (const auto* v = doc.find("drift")) config.drift = v->as_string();
  if (const auto* v = doc.find("delay")) config.delay = v->as_string();
  if (const auto* v = doc.find("shards")) config.shards = v->as_u64();
  if (const auto* v = doc.find("traffic")) config.traffic = v->as_string();
  if (const auto* v = doc.find("variant")) config.variant = v->as_string();
  if (const auto* v = doc.find("horizon")) config.horizon = v->as_number();
  if (const auto* v = doc.find("sample_dt")) config.sample_dt = v->as_number();
  if (const auto* v = doc.find("seed")) config.seed = v->as_u64();
  return config;
}

util::json::Value cell_document(const std::string& campaign,
                                const std::string& cell_label,
                                const util::json::Value& config,
                                const util::json::Value* scenario,
                                const ExperimentResult& result, double wall_ms,
                                double events_per_sec) {
  util::json::Value doc;
  doc["schema_version"] = kResultSchemaVersion;
  doc["campaign"] = campaign;
  doc["cell"] = cell_label;
  // The scenario spec sits NEXT TO the config echo, not inside it: the
  // strict config reader rejects unknown keys, and re-running a cell is
  // config_from_json(doc["config"]) + ScenarioSpec::from_json(doc["scenario"]).
  doc["config"] = config;
  if (scenario != nullptr) doc["scenario"] = *scenario;
  doc["result"] = to_json(result);
  doc["wall_ms"] = wall_ms;
  doc["events_per_sec"] = events_per_sec;
  return doc;
}

std::map<std::string, util::json::Value> load_cell_documents(
    const std::string& tree_dir) {
  namespace fs = std::filesystem;
  const fs::path cells_dir = fs::path(tree_dir) / "cells";
  if (!fs::is_directory(cells_dir)) {
    throw std::runtime_error("not a results tree (no cells/ directory): " +
                             tree_dir);
  }
  // Directory iteration order is platform-defined; sort so duplicate-label
  // errors and any caller that iterates files are deterministic.
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(cells_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    throw std::runtime_error("results tree has no cells/*.json files: " +
                             tree_dir);
  }

  std::map<std::string, util::json::Value> cells;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + file.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    util::json::Value doc;
    try {
      doc = util::json::parse(buf.str());
    } catch (const std::exception& e) {
      throw std::runtime_error(file.string() + ": " + e.what());
    }
    const util::json::Value* label = doc.find("cell");
    if (label == nullptr || !label->is_string()) {
      throw std::runtime_error(file.string() +
                               ": cell document has no string \"cell\" label");
    }
    if (!cells.emplace(label->as_string(), std::move(doc)).second) {
      throw std::runtime_error("duplicate cell label '" + label->as_string() +
                               "' in " + tree_dir);
    }
  }
  return cells;
}

}  // namespace gcs::harness
