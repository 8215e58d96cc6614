#include "cli/diff.hpp"

#include <cmath>
#include <cstddef>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/serialize.hpp"
#include "util/json.hpp"

namespace gcs::cli {

namespace json = gcs::util::json;

namespace {

// Fields compared within the tolerance rather than exactly.  Everything
// else numeric is a counter, a seed, or a size and must match exactly.
// Classification is by leaf key name so the same rule applies wherever
// the field appears (result, run_stats, config echo, scenario spec).
bool is_float_field(const std::string& key) {
  static const std::set<std::string> kFloatKeys = {
      // result
      "max_global_skew", "max_local_skew", "global_skew_bound",
      "local_skew_floor",
      // result.series (schema v3); the peak_* fields are counters
      "mean_global_skew", "max_envelope_ratio",
      // run_stats
      "total_jump", "first_clamped_time",
      // run_stats sync-latency pair (schema v6); the queue/drop/mark
      // fields next to them are counters
      "sync_delay_sum", "sync_delay_max",
      // envelope-fit document (schema v7): the fitted model and the
      // per-cell skews/ratios are all derived float physics; "points"
      // and "n" next to them are counters
      "observed", "analytic", "fitted", "envelope_ratio", "bound_gap",
      "intercept", "slope", "shift", "rss",
      // timing
      "wall_ms", "events_per_sec",
      // config echo
      "rho", "T", "D", "delta_h", "B0", "horizon", "sample_dt",
      // scenario spec knobs
      "lifetime", "period", "overlap", "radius", "speed_min", "speed_max",
      "update_dt", "mean_speed", "alpha", "speed_sigma", "dir_sigma",
      "group_radius", "switch_prob", "connect_window"};
  return kFloatKeys.count(key) > 0;
}

// Machine-describing fields, skipped unless --timing asks for them:
// wall-clock timing plus the schema-v5 memory pair (arena_bytes depends
// on the arena's growth history, not the physics; peak_rss_kb is a
// per-process high-water mark that varies run to run).
bool is_timing_field(const std::string& key) {
  return key == "wall_ms" || key == "events_per_sec" ||
         key == "arena_bytes" || key == "peak_rss_kb";
}

const char* kind_name(json::Value::Kind kind) {
  switch (kind) {
    case json::Value::Kind::kNull: return "null";
    case json::Value::Kind::kBool: return "bool";
    case json::Value::Kind::kNumber: return "number";
    case json::Value::Kind::kString: return "string";
    case json::Value::Kind::kArray: return "array";
    case json::Value::Kind::kObject: return "object";
  }
  return "?";
}

std::string brief(const json::Value& v) {
  std::string text = json::dump(v);
  if (text.size() > 48) text = text.substr(0, 45) + "...";
  return text;
}

// One tree comparison in flight: counts everything, prints up to
// max_report difference lines.
struct Differ {
  const DiffOptions& options;
  std::ostream& log;
  DiffStats stats;
  std::size_t reported = 0;
  std::size_t suppressed = 0;

  void report(const std::string& line) {
    if (options.quiet || reported >= options.max_report) {
      ++suppressed;
      return;
    }
    log << line << "\n";
    ++reported;
  }

  // Records one differing field at `path` of the cell being compared.
  void field_diff(const std::string& cell, const std::string& path,
                  const std::string& detail) {
    ++stats.field_diffs;
    report("cell " + cell + ": " + path + ": " + detail);
  }

  // Structural recursion over matched cell documents.  `key` is the leaf
  // name used for float/timing classification ("" at the root).
  void diff_value(const std::string& cell, const std::string& path,
                  const std::string& key, const json::Value& a,
                  const json::Value& b) {
    if (a.kind() != b.kind()) {
      field_diff(cell, path,
                 std::string(kind_name(a.kind())) + " vs " +
                     kind_name(b.kind()));
      return;
    }
    switch (a.kind()) {
      case json::Value::Kind::kObject: {
        std::set<std::string> keys;
        for (const auto& kv : a.as_object()) keys.insert(kv.first);
        for (const auto& kv : b.as_object()) keys.insert(kv.first);
        for (const std::string& k : keys) {
          if (!options.compare_timing && is_timing_field(k)) continue;
          const std::string child =
              path.empty() ? k : path + "." + k;
          const json::Value* av = a.find(k);
          const json::Value* bv = b.find(k);
          if (av == nullptr) {
            ++stats.field_diffs;
            report("cell " + cell + ": " + child + ": only in B (" +
                   brief(*bv) + ")");
          } else if (bv == nullptr) {
            ++stats.field_diffs;
            report("cell " + cell + ": " + child + ": only in A (" +
                   brief(*av) + ")");
          } else {
            diff_value(cell, child, k, *av, *bv);
          }
        }
        return;
      }
      case json::Value::Kind::kArray: {
        const json::Array& aa = a.as_array();
        const json::Array& ba = b.as_array();
        if (aa.size() != ba.size()) {
          field_diff(cell, path,
                     std::to_string(aa.size()) + " vs " +
                         std::to_string(ba.size()) + " element(s)");
          return;
        }
        for (std::size_t i = 0; i < aa.size(); ++i) {
          diff_value(cell, path + "[" + std::to_string(i) + "]", key, aa[i],
                     ba[i]);
        }
        return;
      }
      case json::Value::Kind::kNumber: {
        const double x = a.as_number();
        const double y = b.as_number();
        if (x == y) return;
        const double delta = std::abs(x - y);
        if (is_float_field(key) && delta <= options.tolerance) return;
        std::string detail =
            json::dump_number(x) + " != " + json::dump_number(y);
        if (is_float_field(key)) {
          detail += " (|delta| " + json::dump_number(delta) + " > tol " +
                    json::dump_number(options.tolerance) + ")";
        }
        field_diff(cell, path, detail);
        return;
      }
      default:
        if (a != b) field_diff(cell, path, brief(a) + " != " + brief(b));
        return;
    }
  }

  void diff_cell(const std::string& cell, const json::Value& a,
                 const json::Value& b) {
    const std::size_t before = stats.field_diffs;

    // Schema drift is one loud finding, not per-field noise; versions
    // that differ make field-level comparison meaningless anyway.
    const json::Value* va = a.find("schema_version");
    const json::Value* vb = b.find("schema_version");
    if (va == nullptr || vb == nullptr || *va != *vb) {
      ++stats.schema_mismatches;
      ++stats.cells_differing;
      report("cell " + cell + ": schema_version " +
             (va ? brief(*va) : "absent") + " vs " +
             (vb ? brief(*vb) : "absent"));
      return;
    }

    // "campaign", "cell", and the "name" echoes in config and result (all
    // of which embed the campaign name as "<campaign>/<label>") are
    // identity, not trajectory: a baseline tree routinely carries another
    // campaign name, and cells are already matched by label.  Strip them
    // before the walk.
    json::Value a_cmp = a;
    json::Value b_cmp = b;
    for (json::Value* doc : {&a_cmp, &b_cmp}) {
      json::Object& fields = doc->as_object();
      fields.erase("schema_version");
      fields.erase("campaign");
      fields.erase("cell");
      for (const char* sub : {"config", "result"}) {
        if (const auto it = fields.find(sub);
            it != fields.end() && it->second.is_object()) {
          it->second.as_object().erase("name");
        }
      }
      // The shard count is execution layout, not physics: every shard
      // count >= 1 produces the same trajectory bytes (the determinism
      // matrix proves it), so trees run at different settings should
      // diff clean.  The engine_stats shard counters are already
      // K-invariant.  Trees written before the store, engine and
      // delivery axes were retired echo them; those legacy echoes are
      // dropped so they diff clean against current trees, and any other
      // value ("adapter", "wheel") fails loudly naming the retired axis.
      // The traffic spec echo is stripped for the same reason trees are
      // expected to diff clean across it only when the physics agree:
      // "off" and an infinite-bandwidth "idle" produce identical
      // trajectories (the link-equivalence matrix proves it), and any
      // real contention shows up in the exactly-compared queue/drop/mark
      // counters and the skew fields, not in the spec string.
      if (const auto it = fields.find("config");
          it != fields.end() && it->second.is_object()) {
        harness::drop_retired_axes(it->second);
        it->second.as_object().erase("shards");
        it->second.as_object().erase("traffic");
      }
    }
    diff_value(cell, "", "", a_cmp, b_cmp);
    if (stats.field_diffs > before) ++stats.cells_differing;
  }
};

}  // namespace

int diff_files(const std::string& file_a, const std::string& file_b,
               const DiffOptions& options, std::ostream& log,
               DiffStats* stats_out) {
  const auto load = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      return json::parse(buf.str());
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ": " + e.what());
    }
  };
  const json::Value a = load(file_a);
  const json::Value b = load(file_b);

  Differ differ{options, log, {}, 0, 0};
  DiffStats& stats = differ.stats;
  ++stats.cells_compared;
  // diff_cell's normalizations all apply here too: schema drift is one
  // loud finding, and "campaign" is identity (a regenerated artifact
  // routinely carries another campaign name), not trajectory.
  differ.diff_cell("<document>", a, b);

  if (differ.suppressed > 0 && !options.quiet) {
    log << "... " << differ.suppressed << " more difference line(s) suppressed"
        << " (--max-diffs)\n";
  }
  log << "compared 1 document(s): " << stats.cells_differing << " differ ("
      << stats.field_diffs << " field diff(s), " << stats.schema_mismatches
      << " schema mismatch(es))";
  if (stats.clean()) {
    log << " -- documents match"
        << (options.compare_timing ? "" : " (timing ignored)");
  }
  log << "\n";

  if (stats_out != nullptr) *stats_out = stats;
  return options.strict && !stats.clean() ? 1 : 0;
}

int diff_trees(const std::string& dir_a, const std::string& dir_b,
               const DiffOptions& options, std::ostream& log,
               DiffStats* stats_out) {
  const std::map<std::string, json::Value> a =
      harness::load_cell_documents(dir_a);
  const std::map<std::string, json::Value> b =
      harness::load_cell_documents(dir_b);

  Differ differ{options, log, {}, 0, 0};
  DiffStats& stats = differ.stats;

  for (const auto& [label, doc] : a) {
    const auto it = b.find(label);
    if (it == b.end()) {
      ++stats.missing_cells;
      differ.report("cell " + label + ": only in " + dir_a);
      continue;
    }
    ++stats.cells_compared;
    differ.diff_cell(label, doc, it->second);
  }
  for (const auto& [label, doc] : b) {
    (void)doc;
    if (a.find(label) == a.end()) {
      ++stats.extra_cells;
      differ.report("cell " + label + ": only in " + dir_b);
    }
  }

  if (differ.suppressed > 0 && !options.quiet) {
    log << "... " << differ.suppressed << " more difference line(s) suppressed"
        << " (--max-diffs)\n";
  }
  log << "compared " << stats.cells_compared << " cell(s): "
      << stats.cells_differing << " differ (" << stats.field_diffs
      << " field diff(s), " << stats.schema_mismatches
      << " schema mismatch(es)), " << stats.missing_cells << " only in A, "
      << stats.extra_cells << " only in B";
  if (stats.clean()) {
    log << " -- trees match"
        << (options.compare_timing ? "" : " (timing ignored)");
  }
  log << "\n";

  if (stats_out != nullptr) *stats_out = stats;
  return options.strict && !stats.clean() ? 1 : 0;
}

}  // namespace gcs::cli
