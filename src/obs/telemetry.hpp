// gcs::obs -- TelemetryRecorder: the concrete Recorder behind
// `gcs_run --series` / `--trace[=N]`.
//
// Collects every SeriesSample into rows and a bounded event trace, and
// renders both as deterministic bytes: a CSV time series (one row per
// sample_dt tick) and a JSONL trace (one compact JSON object per kept
// event, preceded by a meta line with the kept/seen/stride accounting).
// Numbers go through util::json's shortest-round-trip formatter, so two
// trajectories that are bit-identical produce byte-identical files --
// the property tests/run_telemetry_determinism.cmake gates across --jobs.
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
  // trace_capacity == 0 disables tracing (wants_trace() false); series
  // rows are always collected while the recorder is attached.
  explicit TelemetryRecorder(std::uint64_t trace_capacity = 0)
      : capacity_(trace_capacity) {}

  void on_trace(const TraceEvent& event) override;
  void on_sample(const SeriesSample& sample) override;
  bool wants_trace() const override { return capacity_ > 0; }

  // Streaming mode: write the CSV header to `sink` now and append one
  // row per on_sample as it arrives, instead of buffering rows for
  // series_csv().  Both paths share series_csv_header()/series_row(), so
  // a streamed file is byte-identical to a buffered one (test_runner.cpp
  // compares whole trees); the recorder's memory stays O(1) in the
  // sample count, which is what keeps gcs_run RSS flat on long-horizon
  // cells.  Call before the run starts; `sink` must outlive the run.
  void stream_series_to(std::ostream& sink);

  const std::vector<SeriesSample>& samples() const { return samples_; }
  std::uint64_t trace_seen() const { return seen_; }
  std::uint64_t trace_kept() const { return trace_.size(); }
  std::uint64_t trace_stride() const { return stride_; }

  // cells/<label>.series.csv: header + one row per sample (buffered mode
  // only; in streaming mode the rows are already on the sink).
  std::string series_csv() const;
  // cells/<label>.trace.jsonl: meta line + one line per kept event.
  std::string trace_jsonl() const;

  // The shared formatters: header line and one data row, each with the
  // trailing newline.
  static const char* series_csv_header();
  static std::string series_row(const SeriesSample& sample);

 private:
  struct Kept {
    std::uint64_t seq;
    TraceEvent event;
  };

  std::uint64_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<Kept> trace_;
  std::vector<SeriesSample> samples_;
  std::ostream* series_sink_ = nullptr;
};

}  // namespace gcs::obs

#endif  // GCS_OBS_TELEMETRY_HPP
