// The observability layer's contracts: deterministic aggregators, the
// geometric trace decimation invariant, byte-stable artifact rendering,
// and -- the one everything else leans on -- recorder passivity: a run
// with a recorder attached is bit-identical to the same run without one.
#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace {

namespace obs = gcs::obs;
namespace harness = gcs::harness;
namespace json = gcs::util::json;

TEST(StreamStat, FoldsMinMaxMeanExactly) {
  obs::StreamStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.mean(), 0.0);
  for (const double x : {3.0, -1.0, 2.0, 0.0}) stat.add(x);
  EXPECT_EQ(stat.count(), 4u);
  EXPECT_EQ(stat.min(), -1.0);
  EXPECT_EQ(stat.max(), 3.0);
  EXPECT_EQ(stat.mean(), 1.0);
}

TEST(FixedHistogram, BinsAreFixedWithExplicitUnderAndOverflow) {
  obs::FixedHistogram hist(0.0, 1.0, 4);
  for (const double x : {-0.5, 0.0, 0.1, 0.25, 0.99, 1.0, 7.0}) hist.add(x);
  EXPECT_EQ(hist.underflow(), 1u);
  EXPECT_EQ(hist.overflow(), 2u);  // 1.0 is outside [0, 1)
  ASSERT_EQ(hist.counts().size(), 4u);
  EXPECT_EQ(hist.counts()[0], 2u);  // 0.0, 0.1
  EXPECT_EQ(hist.counts()[1], 1u);  // 0.25
  EXPECT_EQ(hist.counts()[2], 0u);
  EXPECT_EQ(hist.counts()[3], 1u);  // 0.99
  EXPECT_EQ(hist.total(), 7u);
  EXPECT_EQ(hist.bin_lo(2), 0.5);
}

TEST(SeriesAggregator, SummaryMatchesHandFold) {
  obs::SeriesAggregator agg;
  obs::SeriesSample a;
  a.global_skew = 2.0;
  a.max_envelope_ratio = 0.25;
  a.live_edges = 3;
  a.in_flight = 10;
  a.engine_pending = 7;
  obs::SeriesSample b;
  b.global_skew = 4.0;
  b.max_envelope_ratio = 0.125;
  b.live_edges = 5;
  b.in_flight = 2;
  b.engine_pending = 20;
  b.queue_bytes = 1500.0;
  agg.add(a);
  agg.add(b);
  const obs::SeriesSummary s = agg.summary();
  EXPECT_EQ(s.points, 2u);
  EXPECT_EQ(s.mean_global_skew, 3.0);
  EXPECT_EQ(s.max_envelope_ratio, 0.25);
  EXPECT_EQ(s.peak_live_edges, 5u);
  EXPECT_EQ(s.peak_in_flight, 10u);
  EXPECT_EQ(s.peak_engine_pending, 20u);
  EXPECT_EQ(s.peak_queue_bytes, 1500.0);
}

obs::TraceEvent event_at(std::uint64_t i) {
  obs::TraceEvent ev;
  ev.kind = obs::TraceEvent::Kind::kSend;
  ev.t = static_cast<double>(i);
  ev.a = static_cast<std::uint32_t>(i);
  return ev;
}

// The decimation invariant: after N emissions into a capacity-C buffer,
// the kept set is EXACTLY the multiples of the final stride, the stride
// is a power of two, and the buffer never exceeds C.  No RNG anywhere,
// so the same N always keeps the same events.
TEST(TelemetryRecorder, GeometricDecimationKeepsStrideMultiplesOnly) {
  const std::uint64_t capacity = 8;
  obs::TelemetryRecorder recorder(capacity);
  const std::uint64_t total = 1000;
  for (std::uint64_t i = 0; i < total; ++i) recorder.on_trace(event_at(i));

  EXPECT_EQ(recorder.trace_seen(), total);
  EXPECT_LE(recorder.trace_kept(), capacity);
  const std::uint64_t stride = recorder.trace_stride();
  EXPECT_GT(stride, 1u);
  EXPECT_EQ(stride & (stride - 1), 0u) << "stride must be a power of two";

  // Count from first principles: every multiple of the final stride that
  // was emitted must have been kept.
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < total; i += stride) ++expected;
  EXPECT_EQ(recorder.trace_kept(), expected);

  // And the JSONL must list exactly those seqs, in order.
  const std::string jsonl = recorder.trace_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const json::Value meta = json::parse(line);
  EXPECT_EQ(meta.at("kind").as_string(), "meta");
  EXPECT_EQ(meta.at("events_seen").as_u64(), total);
  EXPECT_EQ(meta.at("events_kept").as_u64(), recorder.trace_kept());
  EXPECT_EQ(meta.at("stride").as_u64(), stride);
  std::uint64_t want_seq = 0;
  while (std::getline(lines, line)) {
    const json::Value record = json::parse(line);
    EXPECT_EQ(record.at("seq").as_u64(), want_seq);
    EXPECT_EQ(record.at("kind").as_string(), "send");
    want_seq += stride;
  }
  EXPECT_EQ(want_seq, expected * stride);
}

TEST(TelemetryRecorder, ZeroCapacityDisablesTraceButCountsNothing) {
  obs::TelemetryRecorder recorder(0);
  EXPECT_FALSE(recorder.wants_trace());
  std::ostringstream series;
  recorder.stream_series_to(series);
  obs::SeriesSample sample;
  sample.t = 1.0;
  recorder.on_sample(sample);
  EXPECT_EQ(recorder.trace_seen(), 0u);
  const std::string text = series.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(TelemetryRecorder, SeriesCsvIsHeaderPlusOneRowPerSample) {
  obs::TelemetryRecorder recorder(0);
  std::ostringstream series;
  recorder.stream_series_to(series);
  obs::SeriesSample s;
  s.t = 1.5;
  s.global_skew = 0.25;
  s.max_local_skew = 0.125;
  s.max_envelope_ratio = 0.5;
  s.live_edges = 4;
  s.in_flight = 2;
  s.engine_pending = 9;
  s.queue_bytes = 750.0;
  recorder.on_sample(s);
  EXPECT_EQ(series.str(),
            "t,global_skew,max_local_skew,max_envelope_ratio,live_edges,"
            "in_flight,engine_pending,queue_bytes\n"
            "1.5,0.25,0.125,0.5,4,2,9,750\n");
}

harness::ExperimentConfig small_config() {
  harness::ExperimentConfig cfg;
  cfg.name = "obs-unit";
  cfg.params.n = 8;
  cfg.params.D = 2.5;
  cfg.topology = "ring";
  cfg.drift = "walk";
  cfg.horizon = 30.0;
  cfg.sample_dt = 0.5;
  cfg.seed = 7;
  return cfg;
}

// The determinism contract end to end: attaching a full recorder must
// not change a single result byte, and two recorder runs produce
// byte-identical artifacts.
TEST(TelemetryRecorder, AttachedRecorderNeverPerturbsTheRun) {
  const harness::ExperimentResult bare =
      harness::run_experiment(small_config());

  obs::TelemetryRecorder recorder(64);
  std::ostringstream series;
  recorder.stream_series_to(series);
  const harness::ExperimentResult observed =
      harness::run_experiment(small_config(), &recorder);

  EXPECT_EQ(json::dump(harness::to_json(bare)),
            json::dump(harness::to_json(observed)));
  // Header plus one row per sample.
  const std::string text = series.str();
  EXPECT_EQ(static_cast<std::uint64_t>(
                std::count(text.begin(), text.end(), '\n')),
            observed.samples + 1);
  EXPECT_GT(recorder.trace_seen(), 0u);

  obs::TelemetryRecorder again(64);
  std::ostringstream series_again;
  again.stream_series_to(series_again);
  harness::run_experiment(small_config(), &again);
  EXPECT_EQ(series.str(), series_again.str());
  EXPECT_EQ(recorder.trace_jsonl(), again.trace_jsonl());
}

// The series the recorder streams is the same series the result
// digests: fold the CSV rows back into an aggregator and compare.  Every
// number is written in shortest round-trip form, so the fold is exact.
TEST(TelemetryRecorder, SeriesSamplesMatchResultSummary) {
  obs::TelemetryRecorder recorder(0);
  std::ostringstream series;
  recorder.stream_series_to(series);
  const harness::ExperimentResult result =
      harness::run_experiment(small_config(), &recorder);

  obs::SeriesAggregator agg;
  std::istringstream rows(series.str());
  std::string row;
  ASSERT_TRUE(std::getline(rows, row));  // header
  while (std::getline(rows, row)) {
    std::istringstream cells(row);
    std::string cell;
    std::vector<double> v;
    while (std::getline(cells, cell, ',')) v.push_back(std::stod(cell));
    ASSERT_EQ(v.size(), 8u) << row;
    obs::SeriesSample s;
    s.t = v[0];
    s.global_skew = v[1];
    s.max_local_skew = v[2];
    s.max_envelope_ratio = v[3];
    s.live_edges = static_cast<std::uint64_t>(v[4]);
    s.in_flight = static_cast<std::uint64_t>(v[5]);
    s.engine_pending = static_cast<std::uint64_t>(v[6]);
    s.queue_bytes = v[7];
    agg.add(s);
  }
  const obs::SeriesSummary folded = agg.summary();
  EXPECT_EQ(folded.points, result.series.points);
  EXPECT_EQ(folded.mean_global_skew, result.series.mean_global_skew);
  EXPECT_EQ(folded.max_envelope_ratio, result.series.max_envelope_ratio);
  EXPECT_EQ(folded.peak_live_edges, result.series.peak_live_edges);
  EXPECT_EQ(folded.peak_in_flight, result.series.peak_in_flight);
  EXPECT_EQ(folded.peak_engine_pending, result.series.peak_engine_pending);
  EXPECT_EQ(folded.peak_queue_bytes, result.series.peak_queue_bytes);
}

// A sharded run hands its trace records to the recorder at every
// barrier, not all at the end of the run: by each sample (a barrier-side
// global) the recorder has seen records, all of them no later than the
// sample, in nondecreasing time.
TEST(TelemetryRecorder, ShardedRunStreamsTraceRecordsAtEveryBarrier) {
  struct Probe : obs::Recorder {
    std::uint64_t traces = 0;
    double last_t = 0.0;
    bool in_order = true;
    std::vector<std::uint64_t> traces_at_sample;
    double latest_at_sample = 0.0;
    bool wants_trace() const override { return true; }
    void on_trace(const obs::TraceEvent& ev) override {
      in_order = in_order && ev.t >= last_t;
      last_t = ev.t;
      ++traces;
    }
    void on_sample(const obs::SeriesSample& sample) override {
      traces_at_sample.push_back(traces);
      if (last_t > sample.t) latest_at_sample = last_t;
    }
  };
  for (const std::uint64_t shards : {1u, 2u}) {
    harness::ExperimentConfig cfg = small_config();
    cfg.shards = shards;
    cfg.delay = "constant:0.5";
    Probe probe;
    const harness::ExperimentResult result =
        harness::run_experiment(cfg, &probe);
    ASSERT_EQ(probe.traces_at_sample.size(), result.samples);
    EXPECT_GT(probe.traces_at_sample.front(), 0u) << "shards=" << shards;
    EXPECT_EQ(probe.latest_at_sample, 0.0) << "shards=" << shards;
    EXPECT_TRUE(probe.in_order) << "shards=" << shards;
  }
}

TEST(TraceEvents, KindNamesAreStableStrings) {
  using Kind = obs::TraceEvent::Kind;
  EXPECT_STREQ(obs::kind_name(Kind::kSend), "send");
  EXPECT_STREQ(obs::kind_name(Kind::kDeliver), "deliver");
  EXPECT_STREQ(obs::kind_name(Kind::kDrop), "drop");
  EXPECT_STREQ(obs::kind_name(Kind::kJump), "jump");
  EXPECT_STREQ(obs::kind_name(Kind::kTopology), "topology");
  EXPECT_STREQ(obs::kind_name(Kind::kConformance), "conformance");
}

}  // namespace
