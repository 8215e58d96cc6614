#include "harness/envelope.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/serialize.hpp"

namespace gcs::harness {

namespace json = gcs::util::json;

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("envelope: " + what);
}

[[noreturn]] void fail_cell(const std::string& cell, const std::string& what) {
  fail("cell '" + cell + "': " + what);
}

// The basis functions.  g is what the slope multiplies; the constant
// model has no slope term at all.
double basis_g(const std::string& basis, std::uint64_t n) {
  if (basis == "constant") return 0.0;
  if (basis == "log") return std::log(static_cast<double>(n));
  if (basis == "linear") return static_cast<double>(n);
  fail("unknown basis '" + basis + "'");
}

// The group key: every trajectory-shaping config axis except n, in the
// canonical axis order (config_axis_keys).  topology is in `workload`;
// shards is execution layout (the determinism matrices prove
// trajectories do not depend on it) and the seed folds into the per-n
// max, so neither may split a group -- that is what makes the fit
// byte-stable across {--jobs} x {shards} reruns of one campaign.
std::string group_key(const std::string& workload,
                      const ExperimentConfig& config) {
  const json::Value echo = config_to_json(config);
  std::string key = "workload=" + workload;
  for (const std::string& axis : config_axis_keys()) {
    if (axis == "n" || axis == "topology" || axis == "shards" ||
        axis == "seed") {
      continue;
    }
    const json::Value& v = echo.at(axis);
    key += " " + axis + "=" + (v.is_string() ? v.as_string() : json::dump(v));
  }
  return key;
}

struct Candidate {
  const char* basis;
  double intercept = 0.0;
  double slope = 0.0;
  double rss = 0.0;
};

// Least squares of y over {1, g} on the group's (n, max observed) points,
// slope clamped at 0.  With one point, a duplicated abscissa, or a
// negative slope, the sloped model degrades to the constant fit and the
// tie-break keeps "constant" as the reported basis.
Candidate fit_candidate(const char* basis,
                        const std::map<std::uint64_t, double>& points) {
  Candidate c;
  c.basis = basis;
  const double m = static_cast<double>(points.size());
  double gbar = 0.0;
  double ybar = 0.0;
  for (const auto& [n, y] : points) {
    gbar += basis_g(basis, n);
    ybar += y;
  }
  gbar /= m;
  ybar /= m;
  double sxx = 0.0;
  double sxy = 0.0;
  for (const auto& [n, y] : points) {
    const double dg = basis_g(basis, n) - gbar;
    sxx += dg * dg;
    sxy += dg * (y - ybar);
  }
  if (sxx > 0.0 && sxy > 0.0) {
    c.slope = sxy / sxx;
    c.intercept = ybar - c.slope * gbar;
  } else {
    // Constant model, and the fallback for degenerate or decreasing data.
    c.slope = 0.0;
    c.intercept = ybar;
  }
  for (const auto& [n, y] : points) {
    const double r = y - (c.intercept + c.slope * basis_g(basis, n));
    c.rss += r * r;
  }
  return c;
}

EnvelopeGroup fit_group(const std::string& key,
                        const std::map<std::uint64_t, double>& points) {
  // Candidate order IS the tie-break: the first strictly-smaller RSS
  // wins, so equal-RSS candidates resolve constant < log < linear and
  // the reported basis is a deterministic function of the inputs.
  Candidate best = fit_candidate("constant", points);
  for (const char* basis : {"log", "linear"}) {
    const Candidate c = fit_candidate(basis, points);
    if (c.rss < best.rss) best = c;
  }
  EnvelopeGroup group;
  group.group = key;
  group.basis = best.basis;
  group.intercept = best.intercept;
  group.slope = best.slope;
  group.rss = best.rss;
  group.points = static_cast<std::uint64_t>(points.size());
  // Domination shift: lift the least-squares fit to the largest positive
  // residual so fitted >= observed at every point.  A least-squares fit
  // with an intercept has mean residual 0, so the max is >= 0; the
  // clamp only guards floating-point noise.
  double shift = 0.0;
  for (const auto& [n, y] : points) {
    shift = std::max(shift,
                     y - (group.intercept + group.slope * basis_g(group.basis, n)));
  }
  group.shift = shift;
  return group;
}

}  // namespace

double EnvelopeGroup::evaluate(std::uint64_t n) const {
  return intercept + slope * basis_g(basis, n) + shift;
}

EnvelopeFit fit_envelope(const std::map<std::string, json::Value>& docs) {
  if (docs.empty()) fail("no cells to fit");

  EnvelopeFit fit;
  // Decode every cell strictly; the skip-and-continue discipline of the
  // report would let a drifted cell silently vanish from the artifact.
  std::map<std::string, std::map<std::uint64_t, double>> observed_by_group;
  for (const auto& [label, doc] : docs) {
    EnvelopePoint point;
    point.cell = label;
    try {
      if (fit.campaign.empty()) {
        if (const json::Value* c = doc.find("campaign");
            c != nullptr && c->is_string()) {
          fit.campaign = c->as_string();
        }
      }
      const ExperimentConfig config = config_from_json(doc.at("config"));
      const ExperimentResult result = result_from_json(doc.at("result"));
      std::string workload = "static:" + config.topology;
      if (const json::Value* spec = doc.find("scenario");
          spec != nullptr && spec->is_object()) {
        workload = spec->at("kind").as_string();
      }
      point.group = group_key(workload, config);
      point.n = static_cast<std::uint64_t>(config.params.n);
      point.observed = result.max_global_skew;
      point.analytic = result.global_skew_bound;
    } catch (const std::exception& e) {
      fail_cell(label, e.what());
    }
    if (point.n < 2) fail_cell(label, "config n < 2");
    if (!std::isfinite(point.observed) || point.observed < 0.0) {
      fail_cell(label, "non-finite or negative observed max skew (" +
                           std::to_string(point.observed) + ")");
    }
    if (!std::isfinite(point.analytic) || point.analytic <= 0.0) {
      fail_cell(label, "non-finite or non-positive analytic bound (" +
                           std::to_string(point.analytic) + ")");
    }
    auto& column = observed_by_group[point.group][point.n];
    column = std::max(column, point.observed);
    fit.cells.push_back(std::move(point));
  }

  std::map<std::string, EnvelopeGroup> groups;
  for (const auto& [key, points] : observed_by_group) {
    groups.emplace(key, fit_group(key, points));
  }

  for (EnvelopePoint& point : fit.cells) {
    const EnvelopeGroup& group = groups.at(point.group);
    point.fitted = group.evaluate(point.n);
    if (point.fitted > 0.0) {
      point.envelope_ratio = point.observed / point.fitted;
      point.bound_gap = point.analytic / point.fitted;
    } else {
      // All-zero observed column: fitted == observed == 0 everywhere.
      // Both ratios are 0 by convention so the document stays finite.
      point.envelope_ratio = 0.0;
      point.bound_gap = 0.0;
    }
  }
  for (auto& [key, group] : groups) {
    (void)key;
    fit.groups.push_back(std::move(group));
  }
  return fit;
}

EnvelopeFit fit_envelope_tree(const std::string& tree_dir) {
  return fit_envelope(load_cell_documents(tree_dir));
}

namespace {

using util::DiffClass;
using util::field;

using G = EnvelopeGroup;
const util::Field<G> kGroupFields[] = {
    field<&G::group>("group", DiffClass::kExact),
    field<&G::basis>("basis", DiffClass::kExact),
    field<&G::intercept>("intercept", DiffClass::kFloat),
    field<&G::slope>("slope", DiffClass::kFloat),
    field<&G::shift>("shift", DiffClass::kFloat),
    field<&G::rss>("rss", DiffClass::kFloat),
    field<&G::points>("points", DiffClass::kExact),
};

using Pt = EnvelopePoint;
const util::Field<Pt> kPointFields[] = {
    field<&Pt::cell>("cell", DiffClass::kExact),
    field<&Pt::group>("group", DiffClass::kExact),
    field<&Pt::n>("n", DiffClass::kExact),
    field<&Pt::observed>("observed", DiffClass::kFloat),
    field<&Pt::analytic>("analytic", DiffClass::kFloat),
    field<&Pt::fitted>("fitted", DiffClass::kFloat),
    field<&Pt::envelope_ratio>("envelope_ratio", DiffClass::kFloat),
    field<&Pt::bound_gap>("bound_gap", DiffClass::kFloat),
};

}  // namespace

json::Value to_json(const EnvelopeFit& fit) {
  json::Value doc;
  doc["schema_version"] = kResultSchemaVersion;
  doc["kind"] = std::string("envelope");
  doc["campaign"] = fit.campaign;
  json::Array groups;
  for (const EnvelopeGroup& group : fit.groups) {
    groups.push_back(util::write_record(kGroupFields, group));
  }
  doc["groups"] = json::Value(std::move(groups));
  json::Array cells;
  for (const EnvelopePoint& point : fit.cells) {
    cells.push_back(util::write_record(kPointFields, point));
  }
  doc["cells"] = json::Value(std::move(cells));
  return doc;
}

EnvelopeFit envelope_from_json(const json::Value& doc) {
  const std::uint64_t version = doc.at("schema_version").as_u64();
  if (version != static_cast<std::uint64_t>(kResultSchemaVersion)) {
    throw json::Error("envelope schema drift: document has version " +
                      std::to_string(version) + ", this reader expects " +
                      std::to_string(kResultSchemaVersion));
  }
  if (doc.at("kind").as_string() != "envelope") {
    throw json::Error("not an envelope document (kind '" +
                      doc.at("kind").as_string() + "')");
  }
  EnvelopeFit fit;
  fit.campaign = doc.at("campaign").as_string();
  for (const json::Value& g : doc.at("groups").as_array()) {
    fit.groups.push_back(util::read_record(kGroupFields, g, "envelope group"));
  }
  for (const json::Value& c : doc.at("cells").as_array()) {
    fit.cells.push_back(util::read_record(kPointFields, c, "envelope cell"));
  }
  return fit;
}

std::vector<util::FieldClass> envelope_field_classes() {
  std::vector<util::FieldClass> out;
  util::declare_classes(kGroupFields, out);
  util::declare_classes(kPointFields, out);
  return out;
}

}  // namespace gcs::harness
