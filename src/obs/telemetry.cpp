#include "obs/telemetry.hpp"

#include <algorithm>
#include <ostream>

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

std::string series_row(const SeriesSample& s) {
  std::string out;
  out += json::dump_number(s.t);
  out += ',';
  out += json::dump_number(s.global_skew);
  out += ',';
  out += json::dump_number(s.max_local_skew);
  out += ',';
  out += json::dump_number(s.max_envelope_ratio);
  out += ',';
  out += std::to_string(s.live_edges);
  out += ',';
  out += std::to_string(s.in_flight);
  out += ',';
  out += std::to_string(s.engine_pending);
  out += ',';
  out += json::dump_number(s.queue_bytes);
  out += '\n';
  return out;
}

}  // namespace

void TelemetryRecorder::on_sample(const SeriesSample& sample) {
  if (series_sink_ != nullptr) *series_sink_ << series_row(sample);
}

void TelemetryRecorder::stream_series_to(std::ostream& sink) {
  series_sink_ = &sink;
  sink << "t,global_skew,max_local_skew,max_envelope_ratio,live_edges,"
          "in_flight,engine_pending,queue_bytes\n";
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
