// gcs::harness -- stable JSON serialization of experiment configs and
// results.
//
// This is the wire format between the simulator and everything downstream
// of it: per-cell result files, the campaign JSONL/CSV, CI's --check gate,
// and any future diffing tool.  The schema is versioned and strict:
//
//   * every result document carries "schema_version"; readers reject any
//     other version instead of guessing (bump kResultSchemaVersion whenever
//     a field is added, removed, or changes meaning);
//   * result_from_json requires every field it knows about, so a document
//     written by a drifted writer fails loudly at read time rather than
//     silently zero-filling counters that CI gates on;
//   * to_json(result_from_json(doc)) reproduces doc byte-for-byte under
//     json::dump (round-trip identity; enforced by test_serialize.cpp and
//     re-checked on every gcs_run --check).
//
// Each record is one util::Field table in serialize.cpp (key, member,
// diff class); the writers, readers and document_field_classes() are all
// derived from it.
#ifndef GCS_HARNESS_SERIALIZE_HPP
#define GCS_HARNESS_SERIALIZE_HPP

#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "util/fields.hpp"
#include "util/json.hpp"

namespace gcs::harness {

// Bump on ANY change to the result document layout.  History:
//   1 -- initial schema (PR 3): result fields + run_stats subobject
//        including the first-clamped (time, seq) audit pair.
//   2 -- run_stats gains the (T+D)-interval-connectivity audit pair
//        connectivity_windows_checked / connectivity_windows_disconnected.
//   3 -- result gains the "engine_stats" (sim::EngineStats: max pending,
//        heap ops, calendar resizes/bucket scans) and "series"
//        (obs::SeriesSummary: per-sample_dt observation digest)
//        subobjects.
//   4 -- config echo gains "shards" (in-cell shard count for the
//        conservative-parallel engine); engine_stats gains
//        shard_windows / shard_staged_events.
//   5 -- config echo gains "store" (node-state layout: columns/adapter);
//        run_stats gains the memory-visibility pair arena_bytes (node
//        store flat-state footprint) / peak_rss_kb (process high-water
//        RSS, runner-filled, 0 under --fixed-timing).  gcs_diff ignores
//        both counters like wall_ms -- they describe the machine, not
//        the trajectory.
//   6 -- link-layer traffic pipeline: config echo gains "traffic" (the
//        model spec, "off" by default); run_stats gains traffic_packets /
//        traffic_dropped / ecn_marks / peak_queue_bytes plus the
//        sync-latency pair sync_delay_sum / sync_delay_max; the series
//        summary gains peak_queue_bytes (sample-time backlog gauge).
//   7 -- the ablation/envelope layer: config echo gains "variant" (the
//        protocol under test: dcsa / weighted[:w] / noblock / nojump,
//        "dcsa" by default); the same version stamps the envelope-fit
//        document emitted by harness/envelope.hpp (gcs_report
//        --envelope-json), whose per-cell envelope_ratio / bound_gap
//        fields are part of this schema.  Later v7 writers drop the
//        "store" echo (the axis is retired); readers still accept a
//        legacy "store": "columns" and reject any other value.
inline constexpr int kResultSchemaVersion = 7;

// The result document: all ExperimentResult fields, the "run_stats",
// "engine_stats" and "series" subobjects, and "schema_version".
util::json::Value to_json(const ExperimentResult& result);
// Throws util::json::Error naming the key on a missing/mistyped field,
// and on any schema_version other than kResultSchemaVersion.
ExperimentResult result_from_json(const util::json::Value& doc);

// The declarative slice of an ExperimentConfig (everything except the
// programmatic `scenario` field), for echoing into result
// files so a cell is re-runnable from its output alone.  The CLI layer
// adds its own "scenario" key next to this when a generator spec is used.
util::json::Value config_to_json(const ExperimentConfig& config);
// The config echo's keys that a campaign may sweep (all but the cell
// name), in canonical axis order: workload-defining axes first, then
// model constants, then execution layout and the seed.
std::vector<std::string> config_axis_keys();
// Reads the same shape back; missing keys keep the ExperimentConfig
// defaults, unknown keys throw (they are typos, not forward compat), and
// a value of the wrong kind throws naming its key.
// Retired-axis echoes read as no-ops (drop_retired_axes).
ExperimentConfig config_from_json(const util::json::Value& doc);
// Config echoes written before an axis was retired still carry it: the
// store, engine and delivery keys, with the legacy values listed in
// serialize.cpp's retired-axis table.  Erases those keys from the config
// object; throws util::json::Error naming the axis on any other value of
// a retired key (store "adapter", engine "wheel").
void drop_retired_axes(util::json::Value& config);

// The full per-cell campaign document (one cells/<file>.json, one line of
// campaign.jsonl): the config echo, the optional scenario spec (null ->
// omitted; the CLI layer passes its ScenarioSpec serialization), the
// result, and wall-clock timing, all under "schema_version".  Writer and
// tree loader live here so the document layout is versioned in one place
// with the result schema it embeds.
util::json::Value cell_document(const std::string& campaign,
                                const std::string& cell_label,
                                const util::json::Value& config,
                                const util::json::Value* scenario,
                                const ExperimentResult& result, double wall_ms,
                                double events_per_sec);

// A cell document's workload: its scenario generator's kind, or
// "static:<topology>" for a cell on a static topology.  `config` is the
// document's decoded config echo.  Throws util::json::Error when the
// scenario spec has no string "kind".
std::string workload_label(const util::json::Value& doc,
                           const ExperimentConfig& config);

// The (key, diff class) of every row of the result, config echo and
// cell-document tables, for gcs_diff's classification.
std::vector<util::FieldClass> document_field_classes();

// Loads every cells/*.json under `tree_dir` (a gcs_run results tree),
// keyed by each document's "cell" label.  Validation is shape-only -- a
// parseable JSON object with a string "cell" -- so a diffing caller can
// itself report schema-version or field drift instead of dying on the
// first drifted file.  Throws std::runtime_error on a missing/empty
// cells/ directory, an unparseable file, or a duplicate cell label.
std::map<std::string, util::json::Value> load_cell_documents(
    const std::string& tree_dir);

}  // namespace gcs::harness

#endif  // GCS_HARNESS_SERIALIZE_HPP
