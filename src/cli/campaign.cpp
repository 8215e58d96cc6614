#include "cli/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "harness/serialize.hpp"
#include "net/trace.hpp"
#include "util/rng.hpp"

namespace gcs::cli {

namespace util = gcs::util;
namespace json = gcs::util::json;

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("campaign: " + msg);
}

// Scenario kinds, as bits of each knob's kind mask.
enum : unsigned {
  kChurn = 1,
  kStar = 2,
  kMobility = 4,
  kGaussMarkov = 8,
  kGroup = 16,
  kTrace = 32,
  kMobile = kMobility | kGaussMarkov | kGroup,
};

// The kind's bit, or 0 for an unknown kind (including the static "").
unsigned kind_bit(const std::string& kind) {
  const char* const kNames[] = {"churn", "switching-star", "mobility",
                                "gauss-markov", "group", "trace"};
  for (unsigned i = 0; i < 6; ++i) {
    if (kind == kNames[i]) return 1u << i;
  }
  return 0;
}

// Every knob and the kinds that accept it; strict, so a knob on the
// wrong kind is a loud typo.
struct Knob {
  util::Field<ScenarioSpec> field;
  unsigned kinds;
};

using util::field;
using Spec = ScenarioSpec;
constexpr util::DiffClass kExact = util::DiffClass::kExact;
constexpr util::DiffClass kFloat = util::DiffClass::kFloat;
const Knob kKnobs[] = {
    {field<&Spec::volatile_edges>("volatile_edges", kExact), kChurn},
    {field<&Spec::lifetime>("lifetime", kFloat), kChurn},
    {field<&Spec::period>("period", kFloat), kStar},
    {field<&Spec::overlap>("overlap", kFloat), kStar},
    {field<&Spec::radius>("radius", kFloat), kMobile},
    {field<&Spec::speed_min>("speed_min", kFloat), kMobility | kGroup},
    {field<&Spec::speed_max>("speed_max", kFloat), kMobility | kGroup},
    {field<&Spec::update_dt>("update_dt", kFloat), kMobile},
    {field<&Spec::backbone>("backbone", kExact), kMobile},
    {field<&Spec::mean_speed>("mean_speed", kFloat), kGaussMarkov},
    {field<&Spec::alpha>("alpha", kFloat), kGaussMarkov},
    {field<&Spec::speed_sigma>("speed_sigma", kFloat), kGaussMarkov},
    {field<&Spec::dir_sigma>("dir_sigma", kFloat), kGaussMarkov},
    {field<&Spec::groups>("groups", kExact), kGroup},
    {field<&Spec::group_radius>("group_radius", kFloat), kGroup},
    {field<&Spec::switch_prob>("switch_prob", kFloat), kGroup},
    {field<&Spec::path>("path", kExact), kTrace},
    {field<&Spec::connect_window>("connect_window", kFloat), kMobile | kTrace},
};

// True iff `key` names a knob that binds a string member (its row
// writes a JSON string).
bool binds_string(const std::string& key) {
  return std::any_of(std::begin(kKnobs), std::end(kKnobs),
                     [&](const Knob& k) {
                       return key == k.field.key &&
                              k.field.get(ScenarioSpec{}).is_string();
                     });
}

// splitmix64: decorrelates the scenario generator's random stream from the
// delay/drift streams that consume the raw cell seed.
std::uint64_t mix_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

json::Value ScenarioSpec::to_json() const {
  json::Value v;
  v["kind"] = kind;
  const unsigned bit = kind_bit(kind);
  for (const Knob& knob : kKnobs) {
    if ((knob.kinds & bit) != 0) v[knob.field.key] = knob.field.get(*this);
  }
  return v;
}

ScenarioSpec ScenarioSpec::from_json(const json::Value& doc) {
  ScenarioSpec spec;
  spec.kind = doc.at("kind").as_string();
  const unsigned bit = kind_bit(spec.kind);
  if (bit == 0) fail("unknown scenario kind '" + spec.kind + "'");
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "kind") continue;
    const auto knob = std::find_if(
        std::begin(kKnobs), std::end(kKnobs), [&](const Knob& k) {
          return key == k.field.key && (k.kinds & bit) != 0;
        });
    if (knob == std::end(kKnobs)) {
      fail("scenario kind '" + spec.kind + "' has no knob '" + key + "'");
    }
    try {
      util::read_field(knob->field, value, spec, "scenario knob");
    } catch (const json::Error& e) {
      fail(e.what());
    }
  }
  if (spec.kind == "trace" && spec.path.empty()) {
    fail("trace scenario needs path=<file.csv|file.json>");
  }
  // The churn generator needs a positive lifetime; refusing it here
  // names the knob before any cell runs.
  if (spec.kind == "churn" && !(spec.lifetime > 0.0)) {
    fail("scenario knob 'lifetime' must be > 0, got '" +
         json::dump_number(spec.lifetime) + "'");
  }
  return spec;
}

std::vector<util::FieldClass> ScenarioSpec::field_classes() {
  std::vector<util::FieldClass> out;
  for (const Knob& knob : kKnobs) {
    out.emplace_back(knob.field.key, knob.field.diff);
  }
  return out;
}

ScenarioSpec ScenarioSpec::from_flag(const std::string& spec) {
  // "kind:knob=value:knob=value" -> the JSON form, then the strict reader.
  json::Value doc;
  std::size_t pos = spec.find(':');
  doc["kind"] = spec.substr(0, pos);
  while (pos != std::string::npos) {
    const std::size_t start = pos + 1;
    pos = spec.find(':', start);
    const std::string part = spec.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start);
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("bad scenario flag segment '" + part + "' (want knob=value)");
    }
    const std::string key = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    if (value.empty()) {
      fail("bad scenario flag segment '" + part + "' (empty value)");
    }
    if (value == "true" || value == "false") {
      doc[key] = (value == "true");
    } else if (binds_string(key)) {
      // A string knob takes the text as is; a non-numeric value for any
      // other knob keeps the targeted error below.
      doc[key] = value;
    } else {
      char* end = nullptr;
      const double num = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size()) {
        fail("bad scenario knob value '" + value + "' for knob '" + key +
             "'");
      }
      // strtod reads "nan", "inf" and overflows such as 1e400 whole; the
      // JSON form cannot hold them, so refuse them here by name.
      if (!std::isfinite(num)) {
        fail("scenario knob '" + key + "' must be finite, got '" + value +
             "'");
      }
      doc[key] = num;
    }
  }
  return from_json(doc);
}

net::Scenario ScenarioSpec::build(std::size_t n, double horizon,
                                  std::uint64_t seed) const {
  util::Rng rng(mix_seed(seed));
  net::Scenario scenario;
  if (kind == "churn") {
    scenario = net::make_churn_scenario(n, volatile_edges, lifetime, horizon,
                                        rng);
  } else if (kind == "switching-star") {
    scenario = net::make_switching_star_scenario(n, period, overlap, horizon);
  } else if (kind == "mobility") {
    scenario = net::make_mobility_scenario(n, radius, speed_min, speed_max,
                                           update_dt, horizon, backbone, rng);
  } else if (kind == "gauss-markov") {
    scenario = net::make_gauss_markov_scenario(n, radius, mean_speed, alpha,
                                               speed_sigma, dir_sigma,
                                               update_dt, horizon, backbone,
                                               rng);
  } else if (kind == "group") {
    scenario = net::make_group_scenario(n, groups, radius, group_radius,
                                        speed_min, speed_max, update_dt,
                                        switch_prob, horizon, backbone, rng);
  } else if (kind == "trace") {
    scenario = net::make_trace_scenario(net::load_contact_trace(path), horizon);
  } else {
    fail("a static spec has no generator (kind is empty)");
  }
  if (connect_window > 0.0) {
    net::enforce_interval_connectivity(scenario, connect_window, horizon);
  }
  return scenario;
}

harness::ExperimentConfig instantiate(const Cell& cell) {
  harness::ExperimentConfig config = cell.config;
  if (!cell.scenario.is_static()) {
    config.scenario = cell.scenario.build(config.params.n, config.horizon,
                                          config.seed);
  }
  return config;
}

std::string sanitize_component(std::string text, const std::string& fallback) {
  for (char& c : text) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_';
    if (!safe) c = '-';
  }
  // An all-dots name would still be a path traversal ("results/..").
  if (text.empty() || text.find_first_not_of('.') == std::string::npos) {
    text = fallback;
  }
  return text;
}

// ---------------------------------------------------------------------------
// Campaign expansion
// ---------------------------------------------------------------------------
namespace {

// Canonical axis order: the config echo's (harness::config_axis_keys),
// with the scenario spec right after the topology it stands in for.
// Labels and file names follow this order.
const std::vector<std::string>& axis_order() {
  static const std::vector<std::string> order = [] {
    std::vector<std::string> keys = harness::config_axis_keys();
    keys.insert(std::find(keys.begin(), keys.end(), "topology") + 1,
                "scenario");
    return keys;
  }();
  return order;
}

bool is_known_axis(const std::string& key) {
  const std::vector<std::string>& order = axis_order();
  return std::find(order.begin(), order.end(), key) != order.end();
}

// One swept (or pinned) dimension of the cross-product.
struct Axis {
  std::string key;
  std::vector<json::Value> values;
};

std::vector<json::Value> expand_seeds_object(const json::Value& v) {
  for (const auto& [key, value] : v.as_object()) {
    (void)value;
    if (key != "base" && key != "count") {
      fail("seeds object supports only {base, count}, got '" + key + "'");
    }
  }
  const std::uint64_t base = v.at("base").as_u64();
  const std::uint64_t count = v.at("count").as_u64();
  if (count == 0) fail("seeds count must be >= 1");
  // Pre-guard: the 10000-cell cross-product cap only runs after axes are
  // materialized, so an absurd count must fail here, before the allocation.
  if (count > 10000) fail("seeds count exceeds the 10000-cell cap");
  std::vector<json::Value> seeds;
  seeds.reserve(count);
  for (std::uint64_t s = base; s < base + count; ++s) seeds.emplace_back(s);
  return seeds;
}

// Parses one override token: JSON-number syntax -> number, else string.
json::Value parse_scalar(const std::string& token) {
  if (token == "true") return json::Value(true);
  if (token == "false") return json::Value(false);
  char* end = nullptr;
  const double num = std::strtod(token.c_str(), &end);
  if (!token.empty() && end == token.c_str() + token.size()) {
    return json::Value(num);
  }
  return json::Value(token);
}

// Override value grammar: comma-separated tokens, each a scalar or an
// inclusive integer range "a..b".
std::vector<json::Value> parse_override_values(const std::string& key,
                                               const std::string& raw) {
  std::vector<json::Value> values;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const std::size_t comma = raw.find(',', start);
    const std::string token = raw.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    const std::size_t dots = token.find("..");
    if (dots != std::string::npos) {
      // A ".." makes the token a range, and ranges are strictly integer
      // ("1..5"): anything else ("0.01..0.05") must fail loudly here, not
      // truncate through strtoull into a silently different sweep.
      const std::string lo_str = token.substr(0, dots);
      const std::string hi_str = token.substr(dots + 2);
      auto all_digits = [](const std::string& s) {
        if (s.empty()) return false;
        for (const char c : s) {
          if (c < '0' || c > '9') return false;
        }
        return true;
      };
      if (!all_digits(lo_str) || !all_digits(hi_str)) {
        fail("bad range '" + token + "' for --" + key +
             " (ranges are integer, like 1..5)");
      }
      const std::uint64_t lo = std::strtoull(lo_str.c_str(), nullptr, 10);
      const std::uint64_t hi = std::strtoull(hi_str.c_str(), nullptr, 10);
      if (hi < lo || hi - lo >= 10000) {
        fail("bad range '" + token + "' for --" + key);
      }
      for (std::uint64_t v = lo; v <= hi; ++v) values.emplace_back(v);
    } else if (!token.empty()) {
      json::Value value = parse_scalar(token);
      // strtod reads "nan", "inf" and overflows such as 1e400 whole, and
      // no config field can hold them.
      if (value.is_number() && !std::isfinite(value.as_number())) {
        fail("--" + key + " must be finite, got '" + token + "'");
      }
      values.push_back(std::move(value));
    } else {
      fail("empty value in --" + key + "=" + raw);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

std::string label_part(const std::string& key, const json::Value& v) {
  std::string part;
  if (key == "scenario") {
    part = v.at("kind").as_string();
  } else if (v.is_string()) {
    part = v.as_string();
  } else if (key == "n") {
    part = "n" + json::dump_number(v.as_number());
  } else if (key == "seed") {
    part = "s" + json::dump_number(v.as_number());
  } else {
    part = key + json::dump_number(v.as_number());
  }
  return sanitize_component(std::move(part));
}

}  // namespace

Campaign build_campaign(const json::Value* doc,
                        const std::map<std::string, std::string>& overrides) {
  Campaign campaign;
  campaign.name = doc ? "campaign" : "adhoc";

  // 1. Collect defaults (scalar pins) and sweep lists from the document.
  std::map<std::string, json::Value> defaults;
  std::map<std::string, std::vector<json::Value>> sweep;
  if (doc) {
    for (const auto& [key, value] : doc->as_object()) {
      if (key == "name") {
        campaign.name = value.as_string();
      } else if (key == "defaults") {
        for (const auto& [dkey, dvalue] : value.as_object()) {
          if (!is_known_axis(dkey)) fail("unknown defaults key '" + dkey + "'");
          defaults[dkey] = dvalue;
        }
      } else if (key == "sweep") {
        for (const auto& [skey, svalue] : value.as_object()) {
          const std::string axis = skey == "seeds" ? "seed" : skey;
          if (!is_known_axis(axis)) fail("unknown sweep key '" + skey + "'");
          if (svalue.is_object() && axis == "seed") {
            sweep[axis] = expand_seeds_object(svalue);
          } else {
            const json::Array& arr = svalue.as_array();
            if (arr.empty()) fail("sweep axis '" + skey + "' is empty");
            sweep[axis] = arr;
          }
        }
      } else {
        fail("unknown top-level key '" + key + "' (want name/defaults/sweep)");
      }
    }
  }

  // 2. Overlay --key=value overrides: lists/ranges re-sweep the axis, a
  //    scalar pins it (even if the file swept it).
  for (const auto& [rawkey, rawvalue] : overrides) {
    if (rawkey == "name") {
      campaign.name = rawvalue;
      continue;
    }
    const std::string key = rawkey == "seeds" ? "seed" : rawkey;
    if (!is_known_axis(key)) fail("unknown option --" + rawkey);
    if (key == "scenario") {
      defaults[key] = ScenarioSpec::from_flag(rawvalue).to_json();
      sweep.erase(key);
      continue;
    }
    std::vector<json::Value> values = parse_override_values(key, rawvalue);
    if (values.size() == 1) {
      defaults[key] = values.front();
      sweep.erase(key);
    } else {
      sweep[key] = std::move(values);
      defaults.erase(key);
    }
  }

  campaign.name = sanitize_component(std::move(campaign.name));

  // 3. The workload axis is either static topologies or scenario specs,
  //    never a mix: naming both is ambiguous, so it is an error.
  const bool has_topology = defaults.count("topology") || sweep.count("topology");
  const bool has_scenario = defaults.count("scenario") || sweep.count("scenario");
  if (has_topology && has_scenario) {
    fail("give either 'topology' or 'scenario', not both");
  }

  // 4. Assemble the axes present anywhere, in canonical order; absent keys
  //    keep their ExperimentConfig defaults and contribute nothing.
  std::vector<Axis> axes;
  std::size_t total = 1;
  for (const std::string& key : axis_order()) {
    Axis axis;
    axis.key = key;
    if (auto it = sweep.find(key); it != sweep.end()) {
      axis.values = it->second;
    } else if (auto dt = defaults.find(key); dt != defaults.end()) {
      axis.values = {dt->second};
    } else {
      continue;
    }
    total *= axis.values.size();
    if (total > 10000) fail("sweep expands to more than 10000 cells");
    campaign.axes.push_back(AxisInfo{axis.key, axis.values.size()});
    axes.push_back(std::move(axis));
  }

  // 5. Odometer over the cross-product.
  std::size_t width = 1;
  for (std::size_t t = total; t >= 10; t /= 10) ++width;
  width = std::max<std::size_t>(width, 3);
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t cell_no = 0; cell_no < total; ++cell_no) {
    json::Value cfg_doc;
    cfg_doc = json::Object{};
    Cell cell;
    std::string suffix;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const json::Value& v = axes[a].values[idx[a]];
      if (axes[a].key == "scenario") {
        cell.scenario = ScenarioSpec::from_json(v);
      } else {
        cfg_doc[axes[a].key] = v;
      }
      if (axes[a].values.size() > 1) {
        suffix += "-" + label_part(axes[a].key, v);
      }
    }
    cell.config = harness::config_from_json(cfg_doc);
    std::string number = std::to_string(cell_no);
    number.insert(0, width - std::min(width, number.size()), '0');
    cell.label = number + suffix;
    cell.config.name = campaign.name + "/" + cell.label;
    campaign.cells.push_back(std::move(cell));

    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
    }
  }
  return campaign;
}

}  // namespace gcs::cli
