// gcs_report -- analytics over a gcs_run results tree.
//
//   gcs_report results/churn
//   gcs_report results/ablation --frontier
//   gcs_report results/contention --contention
//   gcs_report results/mobility_matrix --top 10 -o report.txt
//
// Reads every cells/*.json document and prints how close each cell sailed
// to the analytic skew bound: per-cell observed/bound ratios, the top-k
// tightest cells, per-axis aggregation across the sweep, a ratio
// histogram, (with --frontier) the skew-vs-message-cost frontier for
// delta_h / B0 ablations, and (with --contention) the observed-skew-vs-
// offered-load table grouped by traffic spec.  Output is deterministic:
// the same tree always
// produces the same bytes, so CI can self-check the report by running it
// twice.  Exit codes: 0 success, 1 cells skipped for schema drift, 2 bad
// usage or unusable tree.
#include <fstream>
#include <iostream>
#include <string>

#include "cli/report.hpp"
#include "harness/envelope.hpp"
#include "util/json.hpp"
#include "util/spec.hpp"

namespace {

constexpr const char kUsage[] = R"(gcs_report -- analytics over a gcs_run results tree

usage: gcs_report TREE_DIR [options]

options:
  --top K      rows in the "tightest cells" section (default 5)
  --frontier   add the skew-vs-message-cost frontier section (sorts cells
               by messages sent; pairs with campaigns/ablation.json)
  --contention add the observed-skew-vs-offered-load section (groups cells
               by traffic spec; pairs with campaigns/contention.json)
  --envelope   add the empirical skew-envelope section (least-squares fit
               of observed worst-case skew over n per generator group;
               pairs with campaigns/ablation_frontier.json)
  --envelope-json FILE
               write the envelope-fit document (schema-v7 groups + per-cell
               envelope_ratio / bound_gap) to FILE -- the artifact gcs_diff
               gates against ENVELOPE_baseline.json
  -o, --out FILE  write the report to FILE instead of stdout
  --help       this text

A valued option is also read as --option=VALUE.

exit codes: 0 success, 1 cells skipped (schema drift; the skips are
listed in the report), 2 bad usage, unusable tree, or a cell the
envelope fitter rejects (named on stderr).
)";

// Reads a valued option given as `NAME VALUE` or `NAME=VALUE`: true when
// `arg` is NAME, with the value (empty when none is given) in *value.
bool valued(const std::string& arg, const std::string& name, int argc,
            char** argv, int& i, std::string* value) {
  if (arg == name) {
    *value = i + 1 < argc ? argv[++i] : "";
    return true;
  }
  if (arg.compare(0, name.size() + 1, name + "=") != 0) return false;
  *value = arg.substr(name.size() + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tree_dir;
  std::string out_file;
  std::string envelope_json;
  gcs::cli::ReportOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--frontier") {
      options.frontier = true;
      continue;
    }
    if (arg == "--contention") {
      options.contention = true;
      continue;
    }
    if (arg == "--envelope") {
      options.envelope = true;
      continue;
    }
    std::string value;
    if (valued(arg, "--envelope-json", argc, argv, i, &value)) {
      if (value.empty()) {
        std::cerr << "gcs_report: --envelope-json needs a file name\n";
        return 2;
      }
      envelope_json = value;
      continue;
    }
    if (valued(arg, "--top", argc, argv, i, &value)) {
      const auto k = gcs::util::spec::whole(value);
      if (!k || *k < 1) {
        std::cerr << "gcs_report: --top wants a positive integer, got '"
                  << value << "'\n";
        return 2;
      }
      options.top_k = static_cast<std::size_t>(*k);
      continue;
    }
    if (valued(arg, "-o", argc, argv, i, &value) ||
        valued(arg, "--out", argc, argv, i, &value)) {
      if (value.empty()) {
        std::cerr << "gcs_report: " << arg << " needs a file name\n";
        return 2;
      }
      out_file = value;
      continue;
    }
    if (arg.rfind("-", 0) == 0) {
      std::cerr << "gcs_report: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
    if (!tree_dir.empty()) {
      std::cerr << "gcs_report: more than one tree directory given\n";
      return 2;
    }
    tree_dir = arg;
  }

  if (tree_dir.empty()) {
    std::cerr << "gcs_report: no tree directory given\n\n" << kUsage;
    return 2;
  }

  try {
    if (!envelope_json.empty()) {
      const gcs::harness::EnvelopeFit fit =
          gcs::harness::fit_envelope_tree(tree_dir);
      std::ofstream out(envelope_json, std::ios::binary);
      if (!out) {
        std::cerr << "gcs_report: cannot open '" << envelope_json
                  << "' for writing\n";
        return 2;
      }
      out << gcs::util::json::dump(gcs::harness::to_json(fit), 2) << "\n";
      if (!out) {
        std::cerr << "gcs_report: write to '" << envelope_json
                  << "' failed\n";
        return 2;
      }
    }
    if (out_file.empty()) {
      return gcs::cli::write_report(tree_dir, options, std::cout);
    }
    std::ofstream out(out_file, std::ios::binary);
    if (!out) {
      std::cerr << "gcs_report: cannot open '" << out_file
                << "' for writing\n";
      return 2;
    }
    return gcs::cli::write_report(tree_dir, options, out);
  } catch (const std::exception& e) {
    std::cerr << "gcs_report: " << e.what() << "\n";
    return 2;
  }
}
