#include "cli/report.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/envelope.hpp"
#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "obs/recorder.hpp"
#include "util/json.hpp"

namespace gcs::cli {

namespace json = gcs::util::json;

namespace {

// One decoded cell.
struct Row {
  std::string label;
  std::string workload;  // scenario kind, or "static:<topology>"
  harness::ExperimentConfig config;
  harness::ExperimentResult result;
  double ratio = 0.0;  // max_global_skew / global_skew_bound
};

std::string num(double v) { return json::dump_number(v); }

// The sweep axes the per-axis section aggregates over.  Values are
// rendered as strings; std::map keeps both axis and value order
// deterministic (lexicographic, which is all the byte-stability
// self-check needs).
std::vector<std::pair<std::string, std::string>> axis_values(const Row& row) {
  const harness::ExperimentConfig& c = row.config;
  return {
      {"delay", c.delay},
      {"drift", c.drift},
      {"n", num(static_cast<double>(c.params.n))},
      {"seed", num(static_cast<double>(c.seed))},
      {"traffic", c.traffic},
      {"workload", row.workload},
  };
}

}  // namespace

int write_report(const std::string& tree_dir, const ReportOptions& options,
                 std::ostream& out) {
  const std::map<std::string, json::Value> docs =
      harness::load_cell_documents(tree_dir);

  // The envelope fit is all-or-nothing: run it before rendering anything,
  // so a tree the fitter rejects (schema drift, non-finite skew) fails
  // loudly -- the throw propagates and gcs_report exits 2 with the
  // culprit cell named -- instead of printing a report missing the one
  // section that was asked for.
  harness::EnvelopeFit envelope_fit;
  if (options.envelope) envelope_fit = harness::fit_envelope(docs);

  std::vector<Row> rows;
  std::vector<std::string> skipped;
  for (const auto& [label, doc] : docs) {
    try {
      Row row;
      row.label = label;
      row.config = harness::config_from_json(doc.at("config"));
      row.result = harness::result_from_json(doc.at("result"));
      if (const json::Value* spec = doc.find("scenario");
          spec != nullptr && spec->is_object()) {
        row.workload = spec->at("kind").as_string();
      } else {
        row.workload = "static:" + row.config.topology;
      }
      const double bound = row.result.global_skew_bound;
      row.ratio = bound > 0.0 ? row.result.max_global_skew / bound : 0.0;
      rows.push_back(std::move(row));
    } catch (const std::exception& e) {
      skipped.push_back(label + ": " + e.what());
    }
  }

  out << "gcs_report: " << tree_dir << "\n";
  out << "cells: " << rows.size() << " decoded, " << skipped.size()
      << " skipped\n";
  for (const std::string& s : skipped) out << "  SKIPPED " << s << "\n";

  std::uint64_t total_violations = 0;
  for (const Row& row : rows) {
    total_violations +=
        row.result.global_violations + row.result.envelope_violations;
  }
  out << "violations: " << total_violations << "\n";

  // Per-cell table (docs is a sorted map, so rows are in label order).
  out << "\nper-cell observed/bound\n";
  out << "  ratio  env_ratio  observed  bound  messages  cell\n";
  for (const Row& row : rows) {
    const harness::ExperimentResult& r = row.result;
    out << "  " << num(row.ratio) << "  "
        << num(r.series.max_envelope_ratio) << "  " << num(r.max_global_skew)
        << "  " << num(r.global_skew_bound) << "  "
        << r.run_stats.messages_sent << "  " << row.label << "\n";
  }

  // Tightest cells: highest observed/bound ratio first, label as the
  // deterministic tie-break.
  std::vector<const Row*> tightest;
  tightest.reserve(rows.size());
  for (const Row& row : rows) tightest.push_back(&row);
  std::sort(tightest.begin(), tightest.end(), [](const Row* a, const Row* b) {
    if (a->ratio != b->ratio) return a->ratio > b->ratio;
    return a->label < b->label;
  });
  const std::size_t k = std::min(options.top_k, tightest.size());
  out << "\ntop " << k << " tightest cells (observed/bound)\n";
  for (std::size_t i = 0; i < k; ++i) {
    out << "  " << (i + 1) << ". " << num(tightest[i]->ratio) << "  "
        << tightest[i]->label << "\n";
  }

  // Per-axis aggregation: mean/max ratio per value of each sweep axis.
  std::map<std::string, std::map<std::string, obs::StreamStat>> axes;
  for (const Row& row : rows) {
    for (const auto& [axis, value] : axis_values(row)) {
      axes[axis][value].add(row.ratio);
    }
  }
  out << "\nper-axis observed/bound ratio\n";
  for (const auto& [axis, values] : axes) {
    for (const auto& [value, stat] : values) {
      out << "  " << axis << "=" << value << ": cells " << stat.count()
          << ", mean " << num(stat.mean()) << ", max " << num(stat.max())
          << "\n";
    }
  }

  // Distribution of the ratios over [0, 1); a cell past 1 violated the
  // analytic bound and lands in the overflow bin.
  obs::FixedHistogram hist(0.0, 1.0, 10);
  for (const Row& row : rows) hist.add(row.ratio);
  out << "\nratio histogram [0, 1) x10\n";
  for (std::size_t i = 0; i < hist.counts().size(); ++i) {
    out << "  [" << num(hist.bin_lo(i)) << ", " << num(hist.bin_lo(i + 1))
        << "): " << hist.counts()[i] << "\n";
  }
  out << "  overflow (bound violated): " << hist.overflow() << "\n";

  if (options.frontier) {
    // Skew-vs-message-cost frontier: what each (delta_h, B0) setting buys.
    // Sorted by message cost so the accuracy-for-traffic trade reads top
    // to bottom; equal-cost rows order by ratio (tightest first) and
    // equal-(cost, ratio) rows pin to label order, so the frontier bytes
    // are a deterministic function of the tree (test_report.cpp holds
    // two fully tied cells to this).
    std::vector<const Row*> frontier;
    frontier.reserve(rows.size());
    for (const Row& row : rows) frontier.push_back(&row);
    std::sort(frontier.begin(), frontier.end(),
              [](const Row* a, const Row* b) {
                const std::uint64_t am = a->result.run_stats.messages_sent;
                const std::uint64_t bm = b->result.run_stats.messages_sent;
                if (am != bm) return am < bm;
                if (a->ratio != b->ratio) return a->ratio > b->ratio;
                return a->label < b->label;
              });
    out << "\nskew-vs-message-cost frontier\n";
    out << "  messages  delta_h  B0  observed  ratio  cell\n";
    for (const Row* row : frontier) {
      out << "  " << row->result.run_stats.messages_sent << "  "
          << num(row->config.params.delta_h) << "  "
          << num(row->config.params.effective_b0()) << "  "
          << num(row->result.max_global_skew) << "  " << num(row->ratio)
          << "  " << row->label << "\n";
    }
  }

  if (options.contention) {
    // Observed skew vs offered load: one group per traffic spec, so a
    // sweep pairing a zero-load twin with loaded variants reads as a
    // dose-response table.  Mean sync delay is the per-sync-message
    // latency (run_stats.sync_delay_sum / messages_sent) averaged over
    // the group's messages; std::map keeps group order deterministic.
    struct Group {
      obs::StreamStat ratio;
      double sync_delay_sum = 0.0;
      std::uint64_t messages = 0;
      std::uint64_t packets = 0;
      std::uint64_t dropped = 0;
      std::uint64_t marks = 0;
      std::uint64_t peak_queue = 0;
    };
    std::map<std::string, Group> groups;
    for (const Row& row : rows) {
      const core::RunStats& stats = row.result.run_stats;
      Group& g = groups[row.config.traffic];
      g.ratio.add(row.ratio);
      g.sync_delay_sum += stats.sync_delay_sum;
      g.messages += stats.messages_sent;
      g.packets += stats.traffic_packets;
      g.dropped += stats.traffic_dropped;
      g.marks += stats.ecn_marks;
      g.peak_queue = std::max(g.peak_queue, stats.peak_queue_bytes);
    }
    out << "\ncontention: observed skew vs offered load\n";
    out << "  cells  mean_ratio  max_ratio  mean_sync_delay  packets  "
           "dropped  marks  peak_queue_bytes  traffic\n";
    for (const auto& [traffic, g] : groups) {
      const double mean_delay =
          g.messages > 0 ? g.sync_delay_sum / static_cast<double>(g.messages)
                         : 0.0;
      out << "  " << g.ratio.count() << "  " << num(g.ratio.mean()) << "  "
          << num(g.ratio.max()) << "  " << num(mean_delay) << "  " << g.packets
          << "  " << g.dropped << "  " << g.marks << "  " << g.peak_queue
          << "  " << traffic << "\n";
    }
  }

  if (options.envelope) {
    // The empirical envelope: the per-group fitted models, every cell
    // against its fit, and the cells where the paper's bound leaves the
    // most air.  All rows come pre-sorted from the fitter (groups by
    // key, cells by label), so the bytes are stable.
    out << "\nempirical skew envelope (least-squares over {const, log n, n}, "
           "shifted to dominate)\n";
    out << "  groups: " << envelope_fit.groups.size() << "\n";
    out << "  basis  intercept  slope  shift  rss  points  group\n";
    for (const harness::EnvelopeGroup& g : envelope_fit.groups) {
      out << "  " << g.basis << "  " << num(g.intercept) << "  "
          << num(g.slope) << "  " << num(g.shift) << "  " << num(g.rss)
          << "  " << g.points << "  " << g.group << "\n";
    }
    out << "\n  per-cell fit (envelope_ratio = observed/fitted, bound_gap = "
           "analytic/fitted)\n";
    out << "  n  observed  fitted  envelope_ratio  bound_gap  cell\n";
    for (const harness::EnvelopePoint& p : envelope_fit.cells) {
      out << "  " << p.n << "  " << num(p.observed) << "  " << num(p.fitted)
          << "  " << num(p.envelope_ratio) << "  " << num(p.bound_gap) << "  "
          << p.cell << "\n";
    }
    // Widest gaps first: where the analytic envelope is loosest relative
    // to measured reality; label pins the order of tied gaps.
    std::vector<const harness::EnvelopePoint*> widest;
    widest.reserve(envelope_fit.cells.size());
    for (const harness::EnvelopePoint& p : envelope_fit.cells) {
      widest.push_back(&p);
    }
    std::sort(widest.begin(), widest.end(),
              [](const harness::EnvelopePoint* a,
                 const harness::EnvelopePoint* b) {
                if (a->bound_gap != b->bound_gap) {
                  return a->bound_gap > b->bound_gap;
                }
                return a->cell < b->cell;
              });
    const std::size_t kw = std::min(options.top_k, widest.size());
    out << "\n  top " << kw << " widest bound gaps (analytic/fitted)\n";
    for (std::size_t i = 0; i < kw; ++i) {
      out << "  " << (i + 1) << ". " << num(widest[i]->bound_gap) << "  "
          << widest[i]->cell << "\n";
    }
  }

  return skipped.empty() ? 0 : 1;
}

}  // namespace gcs::cli
