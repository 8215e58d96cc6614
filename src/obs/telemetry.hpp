// gcs::obs -- TelemetryRecorder: the concrete Recorder behind
// `gcs_run --series` / `--trace[=N]`.
//
// Streams every SeriesSample as a row of a CSV time series (one row per
// sample_dt tick) and keeps a bounded event trace, rendered as JSONL (one
// compact JSON object per kept event, preceded by a meta line with the
// kept/seen/stride accounting).
// Numbers go through util::json's shortest-round-trip formatter, so two
// trajectories that are bit-identical produce byte-identical files --
// the property tests/run_jobs_shards_determinism.cmake gates across --jobs
// and --shards.
//
// The trace is bounded by geometric decimation, not reservoir sampling:
// when the buffer would exceed its capacity the keep-stride doubles and
// every other retained event is dropped, so the kept set is always
// "every stride-th event from the start" -- a deterministic function of
// the event sequence alone, dense early (startup transients) and evenly
// thinned late.
#ifndef GCS_OBS_TELEMETRY_HPP
#define GCS_OBS_TELEMETRY_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace gcs::obs {

class TelemetryRecorder : public Recorder {
 public:
  // trace_capacity == 0 disables tracing (wants_trace() false).  Series
  // rows go to the stream_series_to sink, or nowhere.
  explicit TelemetryRecorder(std::uint64_t trace_capacity = 0)
      : capacity_(trace_capacity) {}

  void on_trace(const TraceEvent& event) override;
  void on_sample(const SeriesSample& sample) override;
  bool wants_trace() const override { return capacity_ > 0; }

  // Writes the cells/<label>.series.csv header to `sink` now and one row
  // per on_sample as it arrives, so the recorder's memory stays O(1) in
  // the sample count, which is what keeps gcs_run RSS flat on
  // long-horizon cells.  Call before the run starts; `sink` must outlive
  // the run.
  void stream_series_to(std::ostream& sink);

  std::uint64_t trace_seen() const { return seen_; }
  std::uint64_t trace_kept() const { return trace_.size(); }
  std::uint64_t trace_stride() const { return stride_; }

  // cells/<label>.trace.jsonl: meta line + one line per kept event.
  std::string trace_jsonl() const;

 private:
  struct Kept {
    std::uint64_t seq;
    TraceEvent event;
  };

  std::uint64_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<Kept> trace_;
  std::ostream* series_sink_ = nullptr;
};

}  // namespace gcs::obs

#endif  // GCS_OBS_TELEMETRY_HPP
