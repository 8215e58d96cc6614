#include "cli/diff.hpp"

#include <cmath>
#include <cstddef>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

#include "cli/campaign.hpp"
#include "harness/envelope.hpp"
#include "harness/serialize.hpp"
#include "util/json.hpp"

namespace gcs::cli {

namespace json = gcs::util::json;
namespace util = gcs::util;

namespace {

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

  void print_suppressed() {
    if (suppressed > 0 && !options.quiet) {
      log << "... " << suppressed << " more difference line(s) suppressed"
          << " (--max-diffs)\n";
    }
  }

  // Ends the summary line with the match verdict; returns the exit code.
  int verdict(const char* what, DiffStats* stats_out) {
    if (stats.clean()) {
      log << " -- " << what << " match"
          << (options.compare_timing ? "" : " (timing ignored)");
    }
    log << "\n";
    if (stats_out != nullptr) *stats_out = stats;
    return options.strict && !stats.clean() ? 1 : 0;
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
                 std::string(json::kind_name(a.kind())) + " vs " +
                     json::kind_name(b.kind()));
      return;
    }
    switch (a.kind()) {
      case json::Value::Kind::kObject: {
        std::set<std::string> keys;
        for (const auto& kv : a.as_object()) keys.insert(kv.first);
        for (const auto& kv : b.as_object()) keys.insert(kv.first);
        for (const std::string& k : keys) {
          if (!options.compare_timing &&
              field_class(k) == util::DiffClass::kTiming) {
            continue;
          }
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
        const bool tolerant = field_class(key) != util::DiffClass::kExact;
        if (tolerant && delta <= options.tolerance) return;
        std::string detail =
            json::dump_number(x) + " != " + json::dump_number(y);
        if (tolerant) {
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

std::vector<util::FieldClass> declared_field_classes() {
  std::vector<util::FieldClass> out = harness::document_field_classes();
  for (std::vector<util::FieldClass> more :
       {harness::envelope_field_classes(), ScenarioSpec::field_classes()}) {
    out.insert(out.end(), more.begin(), more.end());
  }
  return out;
}

util::DiffClass field_class(const std::string& key) {
  static const std::map<std::string, util::DiffClass> kClasses = [] {
    std::map<std::string, util::DiffClass> classes;
    for (const auto& [key, diff] : declared_field_classes()) {
      classes.emplace(key, diff);
    }
    return classes;
  }();
  const auto it = kClasses.find(key);
  return it == kClasses.end() ? util::DiffClass::kExact : it->second;
}

int diff_files(const std::string& file_a, const std::string& file_b,
               const DiffOptions& options, std::ostream& log,
               DiffStats* stats_out) {
  const json::Value a = json::parse_file(file_a);
  const json::Value b = json::parse_file(file_b);

  Differ differ{options, log, {}, 0, 0};
  DiffStats& stats = differ.stats;
  ++stats.cells_compared;
  // diff_cell's normalizations all apply here too: schema drift is one
  // loud finding, and "campaign" is identity (a regenerated artifact
  // routinely carries another campaign name), not trajectory.
  differ.diff_cell("<document>", a, b);

  differ.print_suppressed();
  log << "compared 1 document(s): " << stats.cells_differing << " differ ("
      << stats.field_diffs << " field diff(s), " << stats.schema_mismatches
      << " schema mismatch(es))";
  return differ.verdict("documents", stats_out);
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

  differ.print_suppressed();
  log << "compared " << stats.cells_compared << " cell(s): "
      << stats.cells_differing << " differ (" << stats.field_diffs
      << " field diff(s), " << stats.schema_mismatches
      << " schema mismatch(es)), " << stats.missing_cells << " only in A, "
      << stats.extra_cells << " only in B";
  return differ.verdict("trees", stats_out);
}

}  // namespace gcs::cli
