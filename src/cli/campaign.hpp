// gcs::cli -- declarative experiment campaigns.
//
// A campaign turns "what to measure" into a list of fully resolved
// harness::ExperimentConfig cells.  The input is either a JSON document
//
//   {
//     "name": "churn-sweep",
//     "defaults": { "rho": 0.05, "T": 1.0, "D": 2.5, "horizon": 60 },
//     "sweep": {
//       "n": [8, 16, 32],
//       "scenario": [ {"kind": "churn", "lifetime": 5},
//                     {"kind": "churn", "lifetime": 20} ],
//       "drift": ["spread", "two-camp"],
//       "seeds": {"base": 1, "count": 3}
//     }
//   }
//
// or --key=value command-line overrides (comma lists and "a..b" integer
// ranges become sweep axes), or both -- an override pins or re-sweeps one
// axis of a file campaign.  The cells are the cross-product of every axis,
// expanded in a fixed canonical order so cell labels and file names are
// stable across runs and machines.
//
// Validation is strict throughout: unknown keys, conflicting workload axes
// (both `topology` and `scenario`), or type mismatches throw
// std::invalid_argument / util::json::Error instead of running a sweep
// that silently ignores a typo -- CI gates on these exit codes.
#ifndef GCS_CLI_CAMPAIGN_HPP
#define GCS_CLI_CAMPAIGN_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "net/scenario.hpp"
#include "util/fields.hpp"
#include "util/json.hpp"

namespace gcs::cli {

// A dynamic-workload generator spec: the declarative face of
// net::make_*_scenario and the trace loader.  Unlike a baked
// net::Scenario, a spec is re-instantiated per cell, so one spec sweeps
// cleanly across n, horizon, and seed.  An empty kind means "static
// topology from config.topology".
struct ScenarioSpec {
  // "" | "churn" | "switching-star" | "mobility" | "gauss-markov" |
  // "group" | "trace"
  std::string kind;
  // churn
  std::size_t volatile_edges = 6;
  double lifetime = 10.0;
  // switching-star
  double period = 10.0;
  double overlap = 1.0;
  // mobility-style kinds (mobility, gauss-markov, group)
  double radius = 0.35;
  double speed_min = 0.01;
  double speed_max = 0.05;
  double update_dt = 1.0;
  bool backbone = true;
  // gauss-markov
  double mean_speed = 0.03;
  double alpha = 0.75;
  double speed_sigma = 0.01;
  double dir_sigma = 0.5;
  // group
  std::size_t groups = 3;
  double group_radius = 0.12;
  double switch_prob = 0.02;
  // trace: path to a .csv/.json contact trace (net/trace.hpp formats),
  // resolved against the process working directory.  The trace's node
  // count must match the cell's n (run_experiment checks).
  std::string path;
  // When > 0, the built scenario is post-processed with
  // net::enforce_interval_connectivity(scenario, connect_window, horizon):
  // rotating connector edges guarantee every full connect_window-length
  // window a connected snapshot union with no static backbone.  Available
  // on mobility, gauss-markov, group, and trace.
  double connect_window = 0.0;

  bool is_static() const { return kind.empty(); }

  // Only the knobs of the selected kind are serialized.
  util::json::Value to_json() const;
  static ScenarioSpec from_json(const util::json::Value& doc);
  // The (key, diff class) of every knob, for gcs_diff.
  static std::vector<util::FieldClass> field_classes();
  // Compact flag syntax in the axis-spec grammar (util/spec.hpp):
  // "churn:lifetime=5:volatile_edges=4".
  static ScenarioSpec from_flag(const std::string& spec);

  // Instantiates the generator.  The scenario's randomness is derived
  // deterministically from the cell seed (splitmix-style), so the same
  // cell always sees the same adversary.
  net::Scenario build(std::size_t n, double horizon, std::uint64_t seed) const;
};

struct Cell {
  harness::ExperimentConfig config;  // scenario field left unset
  ScenarioSpec scenario;
  std::string label;  // unique within the campaign, filesystem-safe
};

// One resolved dimension of the cross-product: the axis key and how many
// values it contributes (1 for a pinned default).  gcs_run --list prints
// these so an oversized sweep is visible before anything runs.
struct AxisInfo {
  std::string key;
  std::size_t cardinality = 1;
};

struct Campaign {
  std::string name = "campaign";
  std::vector<Cell> cells;
  // The axes present in the document/overrides, in canonical order;
  // cells.size() is the product of the cardinalities.
  std::vector<AxisInfo> axes;
};

// Expands a campaign document plus --key=value overrides into cells.
// `doc` may be null (flags-only mode).  An override whose value contains a
// comma list or an "a..b" integer range replaces that axis; a scalar
// override pins the axis to one value even if the file sweeps it.
Campaign build_campaign(const util::json::Value* doc,
                        const std::map<std::string, std::string>& overrides);

// Instantiates one cell into a runnable config (resolves the scenario spec
// against the cell's n / horizon / seed).
harness::ExperimentConfig instantiate(const Cell& cell);

// Filesystem-safe token: [A-Za-z0-9._-] pass through, everything else
// becomes '-'; empty or all-dots input (a path-traversal hazard) falls
// back to `fallback`.  Campaign names and label parts built by
// build_campaign already pass through this; the runner applies it again
// to cell labels before using them as file names, because run_campaign
// also accepts hand-built Campaigns with arbitrary labels.
std::string sanitize_component(std::string text,
                               const std::string& fallback = "campaign");

}  // namespace gcs::cli

#endif  // GCS_CLI_CAMPAIGN_HPP
