#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>

#include "util/json.hpp"

namespace gcs::obs {

namespace json = gcs::util::json;

const char* kind_name(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kSend: return "send";
    case TraceEvent::Kind::kDeliver: return "deliver";
    case TraceEvent::Kind::kDrop: return "drop";
    case TraceEvent::Kind::kJump: return "jump";
    case TraceEvent::Kind::kTopology: return "topology";
    case TraceEvent::Kind::kConformance: return "conformance";
  }
  return "?";
}

void TelemetryRecorder::on_trace(const TraceEvent& event) {
  // stride_ is always a power of two (it starts at 1 and only doubles),
  // so the divisibility test is a mask -- this is the per-message hot
  // path and a real % costs ~10x the whole rest of the early-out.
  const std::uint64_t seq = seen_++;
  if ((seq & (stride_ - 1)) != 0) return;
  if (trace_.size() >= capacity_) {
    // Double the stride and thin the retained set to match: what is kept
    // is exactly the multiples of stride_ among the events seen so far,
    // so the invariant survives and the buffer halves.
    stride_ *= 2;
    trace_.erase(std::remove_if(trace_.begin(), trace_.end(),
                                [this](const Kept& k) {
                                  return (k.seq & (stride_ - 1)) != 0;
                                }),
                 trace_.end());
    if ((seq & (stride_ - 1)) != 0) return;
  }
  trace_.push_back(Kept{seq, event});
}

namespace {

std::string text(double v) { return json::dump_number(v); }
std::string text(std::uint64_t v) { return std::to_string(v); }
template <auto M>
std::string sample_cell(const SeriesSample& s) {
  return text(s.*M);
}

// The series CSV's columns in order: the header is the names and a row
// the values, so the two cannot drift apart.
struct SeriesColumn {
  const char* name;
  std::string (*value)(const SeriesSample&);
};
using S = SeriesSample;
const SeriesColumn kSeriesColumns[] = {
    {"t", sample_cell<&S::t>},
    {"global_skew", sample_cell<&S::global_skew>},
    {"max_local_skew", sample_cell<&S::max_local_skew>},
    {"max_envelope_ratio", sample_cell<&S::max_envelope_ratio>},
    {"live_edges", sample_cell<&S::live_edges>},
    {"in_flight", sample_cell<&S::in_flight>},
    {"engine_pending", sample_cell<&S::engine_pending>},
    {"queue_bytes", sample_cell<&S::queue_bytes>},
};

// One series line with its newline: the column names, or `sample`'s
// values.
std::string series_line(const SeriesSample* sample) {
  std::string line;
  for (const SeriesColumn& column : kSeriesColumns) {
    if (!line.empty()) line += ',';
    line += sample != nullptr ? column.value(*sample) : column.name;
  }
  line += '\n';
  return line;
}

}  // namespace

void TelemetryRecorder::on_sample(const SeriesSample& sample) {
  if (series_sink_ != nullptr) *series_sink_ << series_line(&sample);
}

void TelemetryRecorder::stream_series_to(std::ostream& sink) {
  series_sink_ = &sink;
  sink << series_line(nullptr);
}

std::string TelemetryRecorder::trace_jsonl() const {
  json::Value meta;
  meta["kind"] = "meta";
  meta["events_seen"] = seen_;
  meta["events_kept"] = static_cast<std::uint64_t>(trace_.size());
  meta["stride"] = stride_;
  std::string out = json::dump(meta) + "\n";
  for (const Kept& k : trace_) {
    json::Value line;
    line["kind"] = kind_name(k.event.kind);
    line["seq"] = k.seq;
    line["t"] = k.event.t;
    line["a"] = static_cast<std::uint64_t>(k.event.a);
    line["b"] = static_cast<std::uint64_t>(k.event.b);
    line["v1"] = k.event.v1;
    line["v2"] = k.event.v2;
    line["flag"] = k.event.flag;
    out += json::dump(line) + "\n";
  }
  return out;
}

}  // namespace gcs::obs
