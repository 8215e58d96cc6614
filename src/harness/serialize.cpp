#include "harness/serialize.hpp"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

namespace gcs::harness {

namespace util = gcs::util;

namespace {

using util::DiffClass;
using util::field;
constexpr DiffClass kExact = DiffClass::kExact;
constexpr DiffClass kFloat = DiffClass::kFloat;
constexpr DiffClass kTiming = DiffClass::kTiming;

using S = core::RunStats;
const util::Field<S> kRunStatsFields[] = {
    field<&S::messages_sent>("messages_sent", kExact),
    field<&S::messages_delivered>("messages_delivered", kExact),
    field<&S::messages_dropped>("messages_dropped", kExact),
    field<&S::delivery_events>("delivery_events", kExact),
    field<&S::jumps>("jumps", kExact),
    field<&S::total_jump>("total_jump", kFloat),
    field<&S::topology_events_applied>("topology_events_applied", kExact),
    field<&S::conformance_checks>("conformance_checks", kExact),
    field<&S::conformance_envelope_failures>("conformance_envelope_failures",
                                             kExact),
    field<&S::conformance_monotonicity_failures>(
        "conformance_monotonicity_failures", kExact),
    field<&S::first_clamped_time>("first_clamped_time", kFloat),
    field<&S::first_clamped_seq>("first_clamped_seq", kExact),
    field<&S::connectivity_windows_checked>("connectivity_windows_checked",
                                            kExact),
    field<&S::connectivity_windows_disconnected>(
        "connectivity_windows_disconnected", kExact),
    // The memory pair describes the machine and the arena's growth
    // history, not the trajectory.
    field<&S::arena_bytes>("arena_bytes", kTiming),
    field<&S::peak_rss_kb>("peak_rss_kb", kTiming),
    field<&S::traffic_packets>("traffic_packets", kExact),
    field<&S::traffic_dropped>("traffic_dropped", kExact),
    field<&S::ecn_marks>("ecn_marks", kExact),
    field<&S::peak_queue_bytes>("peak_queue_bytes", kExact),
    field<&S::sync_delay_sum>("sync_delay_sum", kFloat),
    field<&S::sync_delay_max>("sync_delay_max", kFloat),
};

using E = sim::EngineStats;
const util::Field<E> kEngineStatsFields[] = {
    field<&E::max_pending>("max_pending", kExact),
    field<&E::heap_ops>("heap_ops", kExact),
    field<&E::calendar_resizes>("calendar_resizes", kExact),
    field<&E::calendar_bucket_scans>("calendar_bucket_scans", kExact),
    field<&E::shard_windows>("shard_windows", kExact),
    field<&E::shard_staged_events>("shard_staged_events", kExact),
};

using Q = obs::SeriesSummary;
const util::Field<Q> kSeriesFields[] = {
    field<&Q::points>("points", kExact),
    field<&Q::mean_global_skew>("mean_global_skew", kFloat),
    field<&Q::max_envelope_ratio>("max_envelope_ratio", kFloat),
    field<&Q::peak_live_edges>("peak_live_edges", kExact),
    field<&Q::peak_in_flight>("peak_in_flight", kExact),
    field<&Q::peak_engine_pending>("peak_engine_pending", kExact),
    // A double, but a byte count: compared exactly like its run_stats twin.
    field<&Q::peak_queue_bytes>("peak_queue_bytes", kExact),
};

// The result's scalars; the three subobjects have their own tables.
using R = ExperimentResult;
const util::Field<R> kResultFields[] = {
    field<&R::name>("name", kExact),
    field<&R::max_global_skew>("max_global_skew", kFloat),
    field<&R::max_local_skew>("max_local_skew", kFloat),
    field<&R::global_skew_bound>("global_skew_bound", kFloat),
    field<&R::local_skew_floor>("local_skew_floor", kFloat),
    field<&R::global_violations>("global_violations", kExact),
    field<&R::envelope_violations>("envelope_violations", kExact),
    field<&R::samples>("samples", kExact),
    field<&R::events_executed>("events_executed", kExact),
    field<&R::clamped_events>("clamped_events", kExact),
};

// In canonical axis order: workload-defining axes first (they dominate
// label readability), then model constants, then execution layout and
// the seed.  Campaign labels, file names and the envelope group key
// follow it (config_axis_keys), so reordering it is a (cosmetic) schema
// change; the echo itself is a sorted object and does not move.
using C = ExperimentConfig;
using P = core::SyncParams;
const util::Field<C> kConfigFields[] = {
    field<&C::name>("name", kExact),
    field<&C::params, &P::n>("n", kExact),
    field<&C::topology>("topology", kExact),
    field<&C::drift>("drift", kExact),
    field<&C::delay>("delay", kExact),
    field<&C::traffic>("traffic", kExact),
    field<&C::variant>("variant", kExact),
    field<&C::params, &P::rho>("rho", kFloat),
    field<&C::params, &P::T>("T", kFloat),
    field<&C::params, &P::D>("D", kFloat),
    field<&C::params, &P::delta_h>("delta_h", kFloat),
    field<&C::params, &P::B0>("B0", kFloat),
    field<&C::horizon>("horizon", kFloat),
    field<&C::sample_dt>("sample_dt", kFloat),
    field<&C::shards>("shards", kExact),
    field<&C::seed>("seed", kExact),
};

// The cell document's wall-clock pair, pinned to 0 by --fixed-timing.
struct CellTiming {
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
};
const util::Field<CellTiming> kCellTimingFields[] = {
    field<&CellTiming::wall_ms>("wall_ms", kTiming),
    field<&CellTiming::events_per_sec>("events_per_sec", kTiming),
};

}  // namespace

util::json::Value to_json(const ExperimentResult& result) {
  util::json::Value v = util::write_record(kResultFields, result);
  v["schema_version"] = kResultSchemaVersion;
  v["run_stats"] = util::write_record(kRunStatsFields, result.run_stats);
  v["engine_stats"] =
      util::write_record(kEngineStatsFields, result.engine_stats);
  v["series"] = util::write_record(kSeriesFields, result.series);
  return v;
}

ExperimentResult result_from_json(const util::json::Value& doc) {
  const std::uint64_t version = doc.at("schema_version").as_u64();
  if (version != static_cast<std::uint64_t>(kResultSchemaVersion)) {
    throw util::json::Error(
        "result schema drift: document has version " + std::to_string(version) +
        ", this reader expects " + std::to_string(kResultSchemaVersion));
  }
  ExperimentResult result = util::read_record(kResultFields, doc, "result");
  result.run_stats =
      util::read_record(kRunStatsFields, doc.at("run_stats"), "run_stats");
  result.engine_stats = util::read_record(
      kEngineStatsFields, doc.at("engine_stats"), "engine_stats");
  result.series = util::read_record(kSeriesFields, doc.at("series"), "series");
  return result;
}

util::json::Value config_to_json(const ExperimentConfig& config) {
  return util::write_record(kConfigFields, config);
}

std::vector<std::string> config_axis_keys() {
  std::vector<std::string> keys;
  for (const util::Field<C>& row : kConfigFields) {
    if (std::string(row.key) != "name") keys.emplace_back(row.key);
  }
  return keys;
}

std::vector<util::FieldClass> document_field_classes() {
  std::vector<util::FieldClass> out;
  util::declare_classes(kRunStatsFields, out);
  util::declare_classes(kEngineStatsFields, out);
  util::declare_classes(kSeriesFields, out);
  util::declare_classes(kResultFields, out);
  util::declare_classes(kConfigFields, out);
  util::declare_classes(kCellTimingFields, out);
  return out;
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
  ExperimentConfig config;
  for (const auto& [key, value] : doc.as_object()) {
    if (const auto* row = util::find_field(kConfigFields, key)) {
      util::read_field(*row, value, config, "config key");
    } else if (!retired_echo(key, value)) {
      throw util::json::Error("config: unknown key '" + key + "'");
    }
  }
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
  return util::write_record(kCellTimingFields,
                            CellTiming{wall_ms, events_per_sec},
                            std::move(doc));
}

std::string workload_label(const util::json::Value& doc,
                           const ExperimentConfig& config) {
  if (const util::json::Value* spec = doc.find("scenario");
      spec != nullptr && spec->is_object()) {
    return spec->at("kind").as_string();
  }
  return "static:" + config.topology;
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
    util::json::Value doc = util::json::parse_file(file.string());
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
