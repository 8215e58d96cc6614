// gcs_run -- the CLI experiment runner.
//
//   gcs_run --campaign campaigns/smoke.json --check
//   gcs_run --n=8,16 --topology=ring --drift=two-camp --seeds=1..5
//   gcs_run --campaign campaigns/churn.json --horizon=120 --list
//
// Campaign files and --key=value flags feed the same expansion (see
// src/cli/campaign.hpp); flags overlay the file.  Exit codes: 0 success,
// 1 check failures (bound violations, clamps, schema drift), 2 bad usage
// or malformed campaign.
#include <iostream>
#include <map>
#include <string>

#include "cli/campaign.hpp"
#include "cli/runner.hpp"
#include "util/json.hpp"
#include "util/spec.hpp"

namespace {

constexpr const char kUsage[] = R"(gcs_run -- declarative experiment campaigns for the GCS simulator

usage: gcs_run [--campaign FILE] [--key=value ...] [options]

options:
  --campaign FILE   campaign JSON ({name, defaults, sweep}); flags overlay it
  --out DIR         results directory (default: results/<campaign-name>)
  --jobs N          run cells on N worker threads (cells are independent;
                    every output file is byte-identical to --jobs 1)
  --check           audit every cell (bound violations, engine clamps,
                    result-schema round-trip) and exit 1 on any failure
  --fixed-timing    write wall_ms/events_per_sec as 0 in all artifacts so
                    two runs of one campaign are byte-comparable
  --series          write cells/<label>.series.csv per cell: one row per
                    sample_dt tick (skews, B-envelope ratio, live edges,
                    in-flight messages, engine pending)
  --trace[=N]       write cells/<label>.trace.jsonl per cell: structured
                    simulator events (send/deliver/drop/jump/topology/
                    conformance), bounded to N kept records (default 4096)
                    by deterministic decimation; meta line first
  --list            print the expanded cells, per-axis cardinalities, and
                    the total cell count, and run nothing
  --quiet           suppress per-cell progress lines
  --help            this text

sweepable keys (comma lists and whole-number ranges a..b become axes;
every number is a finite JSON decimal, as in a campaign file):
  n, seed (alias: seeds), rho, T, D, delta_h (> 0), B0, horizon, sample_dt
  topology: path|ring|star|complete      drift: spread|walk|two-camp
  shards: 0 = classic single-queue engine; >= 1 = the sharded engine,
    which needs a delay with a positive floor (e.g. constant:0.5)
  delay, traffic, variant and scenario are kind[:arg]... axis specs:
    delay     uniform[:lo[:hi]] | constant[:x], within [0, T]
    variant   dcsa | weighted[:w] | noblock | nojump
    traffic   off | idle|cbr|bulk[:knob=value...]
    scenario  churn|switching-star|mobility|gauss-markov|group|trace
              [:knob=value...]
  docs/specs.md states the grammar once; docs/traffic.md, docs/scenarios.md
  and docs/envelope.md document each kind and knob

examples:
  gcs_run --campaign campaigns/smoke.json --check
  gcs_run --campaign campaigns/churn.json --jobs 4 --check
  gcs_run --campaign campaigns/churn.json --check --series --trace=2048
  gcs_run --n=8,16,32 --topology=ring,complete --seeds=1..5
  gcs_run --campaign campaigns/churn.json --check --shards=4 --delay=constant:0.5
  gcs_run --n=10 --scenario=gauss-markov:alpha=0.85:backbone=false:connect_window=3 --check
  gcs_run --campaign campaigns/contention.json --check --series
  gcs_run --n=12 --traffic=off,cbr:bw=4000:rate=40 --delay=constant:0.5 --check
  gcs_run --campaign campaigns/churn.json --horizon=120 --out /tmp/churn
)";

}  // namespace

int main(int argc, char** argv) {
  std::string campaign_file;
  gcs::cli::RunnerOptions options;
  std::map<std::string, std::string> overrides;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--check") {
      options.check = true;
      continue;
    }
    if (arg == "--list") {
      options.list_only = true;
      continue;
    }
    if (arg == "--quiet") {
      options.quiet = true;
      continue;
    }
    if (arg == "--fixed-timing") {
      options.fixed_timing = true;
      continue;
    }
    if (arg == "--series") {
      options.series = true;
      continue;
    }
    if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      options.trace = true;
      if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
        const std::string value = arg.substr(eq + 1);
        const auto limit = gcs::util::spec::whole(value);
        if (!limit || *limit < 1) {
          std::cerr << "gcs_run: --trace wants a positive integer, got '"
                    << value << "'\n";
          return 2;
        }
        options.trace_limit = *limit;
      }
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "gcs_run: unexpected argument '" << arg << "'\n" << kUsage;
      return 2;
    }
    // --key=value, or --key value for the runner's own valued options.
    std::string key = arg.substr(2);
    std::string value;
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if ((key == "campaign" || key == "out" || key == "jobs") &&
               i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "gcs_run: option --" << key << " needs a value\n";
      return 2;
    }
    if (key == "campaign") {
      campaign_file = value;
    } else if (key == "out") {
      options.out_dir = value;
    } else if (key == "jobs") {
      const auto jobs = gcs::util::spec::whole(value);
      if (!jobs || *jobs < 1 || *jobs > 1024) {
        std::cerr << "gcs_run: --jobs wants an integer in [1, 1024], got '"
                  << value << "'\n";
        return 2;
      }
      options.jobs = static_cast<int>(*jobs);
    } else {
      overrides[key] = value;
    }
  }

  try {
    gcs::util::json::Value doc;
    bool have_doc = false;
    if (!campaign_file.empty()) {
      doc = gcs::util::json::parse_file(campaign_file);
      have_doc = true;
    } else if (overrides.empty()) {
      std::cerr << "gcs_run: nothing to run (no --campaign, no flags)\n\n"
                << kUsage;
      return 2;
    }

    const gcs::cli::Campaign campaign =
        gcs::cli::build_campaign(have_doc ? &doc : nullptr, overrides);
    if (campaign.cells.empty()) {
      std::cerr << "gcs_run: campaign expanded to zero cells\n";
      return 2;
    }
    return gcs::cli::run_campaign(campaign, options, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "gcs_run: " << e.what() << "\n";
    return 2;
  }
}
