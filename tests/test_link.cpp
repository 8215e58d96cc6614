// The link-layer pipeline: parse_traffic grammar, the per-direction FIFO
// arithmetic, and the two contracts NetworkSimulation builds on top of it:
//
//   * ideal-link degeneration -- traffic "off" and the infinite-bandwidth
//     "idle" pipeline produce BIT-IDENTICAL trajectories and stats (the
//     same identity gcs_link_equivalence proves end to end on trees);
//   * lookahead soundness -- queueing only ever adds delay on top of the
//     propagation draw and the total stays clamped to [floor, bound], so
//     the sharded engine's propagation-floor window survives arbitrary
//     offered load with zero clamped events.
//
// Traffic-on trajectories are themselves deterministic (RNG-free pipeline,
// fixed flow phases): byte-identical across shard counts, which the
// matrix tests here pin at the API level.  EngineReplay, at the end,
// runs churn cells' message streams through the heap oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/network_sim.hpp"
#include "harness/experiment.hpp"
#include "net/delay.hpp"
#include "net/link.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim_fixture.hpp"
#include "util/rng.hpp"

namespace {

using gcs::core::SimOptions;
using gcs::net::LinkDecision;
using gcs::net::LinkDir;
using gcs::net::LinkModel;
using gcs::net::parse_traffic;
using gcs::net::TrafficModel;
using gcs::sim::Engine;
using gcs::sim::EnginePolicy;
using gcs::test::Trace;
using gcs::test::expect_same_trajectory;
using gcs::test::run_scenario;

// ---------------------------------------------------------------------------
// parse_traffic grammar
// ---------------------------------------------------------------------------

TEST(ParseTraffic, OffIsTheIdealLink) {
  const TrafficModel m = parse_traffic("off");
  EXPECT_EQ(m.kind, TrafficModel::Kind::kIdeal);
  EXPECT_FALSE(m.pipeline_active());
  EXPECT_FALSE(m.has_flows());
}

TEST(ParseTraffic, IdleKnobs) {
  const TrafficModel m = parse_traffic("idle:bw=8000:queue=4000:mark=2000:msg=128");
  EXPECT_EQ(m.kind, TrafficModel::Kind::kIdle);
  EXPECT_TRUE(m.pipeline_active());
  EXPECT_FALSE(m.has_flows());
  EXPECT_DOUBLE_EQ(m.bandwidth, 8000.0);
  EXPECT_DOUBLE_EQ(m.queue_bytes, 4000.0);
  EXPECT_DOUBLE_EQ(m.mark_bytes, 2000.0);
  EXPECT_DOUBLE_EQ(m.sync_bytes, 128.0);
}

TEST(ParseTraffic, BareIdleIsInfiniteBandwidth) {
  const TrafficModel m = parse_traffic("idle");
  EXPECT_TRUE(m.pipeline_active());
  EXPECT_DOUBLE_EQ(m.bandwidth, 0.0);  // 0 = no serialization at all
}

TEST(ParseTraffic, CbrKnobsAndFlowHelpers) {
  const TrafficModel m = parse_traffic("cbr:bw=4000:rate=10");
  EXPECT_EQ(m.kind, TrafficModel::Kind::kCbr);
  EXPECT_TRUE(m.has_flows());
  EXPECT_DOUBLE_EQ(m.rate, 10.0);
  EXPECT_DOUBLE_EQ(m.packet_bytes, 1500.0);  // default
  EXPECT_DOUBLE_EQ(m.flow_period(), 0.1);
  EXPECT_DOUBLE_EQ(m.flow_bytes(), 1500.0);
  EXPECT_TRUE(m.flow_droppable());
}

TEST(ParseTraffic, BulkKnobsAndFlowHelpers) {
  const TrafficModel m = parse_traffic("bulk:bw=8000:bytes=6000:interval=4");
  EXPECT_EQ(m.kind, TrafficModel::Kind::kBulk);
  EXPECT_TRUE(m.has_flows());
  EXPECT_DOUBLE_EQ(m.flow_period(), 4.0);
  EXPECT_DOUBLE_EQ(m.flow_bytes(), 6000.0);
  EXPECT_FALSE(m.flow_droppable());  // bulk backpressures, never drops
}

TEST(ParseTraffic, StrictErrors) {
  EXPECT_THROW(parse_traffic(""), std::invalid_argument);
  EXPECT_THROW(parse_traffic("fast"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:warp=9"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:bw"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:bw=fast"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:bw=8000x"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("idle:queue=-1"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("cbr:bw=4000"), std::invalid_argument);  // no rate
  EXPECT_THROW(parse_traffic("cbr:rate=10"), std::invalid_argument);  // no bw
  EXPECT_THROW(parse_traffic("bulk:bw=4000:bytes=100"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("bulk:bw=4000:interval=2"), std::invalid_argument);
  // Numbers the old std::stod reader took whole: NaN ran and passed
  // --check, an infinite bw or msg broke the artifact writer, and hex ran
  // as its value.  Each is refused naming the knob and the text, as is a
  // repeated knob.
  const std::pair<const char*, const char*> refused[] = {
      {"idle:mark=nan", "'mark' must be finite, got 'nan'"},
      {"idle:queue=nan:bw=8000", "'queue' must be finite, got 'nan'"},
      {"cbr:bw=inf:rate=2", "'bw' must be finite, got 'inf'"},
      {"idle:msg=inf:bw=8000", "'msg' must be finite, got 'inf'"},
      {"idle:bw=1e400", "'bw' must be finite, got '1e400'"},
      {"cbr:bw=0x1F40:rate=2", "'bw' must be a number, got '0x1F40'"},
      {"cbr:bw=8000:rate=+2", "'rate' must be a number, got '+2'"},
      {"cbr:bw=8000:rate=.5", "'rate' must be a number, got '.5'"},
      {"idle:bw=8000:bw=4000", "knob 'bw' is given twice"},
      {"idle:rate=2", "kind 'idle' has no knob 'rate'"},
      {"off:bw=8000", "kind 'off' has no knob 'bw'"},
      // A size with a non-finite transmission time over bw overflowed the
      // FIFO state and ended the run in the artifact writer.
      {"idle:msg=1e300:bw=1e-300", "'msg' = 1e+300 over 'bw' = 1e-300 takes "
                                   "a non-finite transmission time"},
      {"cbr:bw=1e-306:rate=2", "'pkt' = 1500 over 'bw' = 1e-306"},
      {"bulk:bw=1e-300:bytes=1e10:interval=1", "'bytes' = 10000000000 over"},
  };
  for (const auto& [spec, message] : refused) {
    try {
      parse_traffic(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(message), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("traffic '") + spec + "'"),
                std::string::npos)
          << what;
    }
  }
}

// A flow period the horizon cannot hold (t + 1/rate == t, or over 2^32
// emissions per direction) hung the run; read_axes refuses it.
TEST(ParseTraffic, RefusesFlowPeriodsTheHorizonCannotHold) {
  gcs::harness::ExperimentConfig cfg;
  cfg.horizon = 5.0;
  for (const auto& [spec, message] : {
           std::pair{"cbr:bw=1e-300:rate=1e300",
                     "'rate' = 1e+300 gives a flow period of 1e-300 s, which "
                     "cannot advance time at the horizon 5"},
           std::pair{"cbr:bw=8000:rate=1e9", "1e-09 s, which implies more "
                                             "than 2^32 emissions"},
           std::pair{"bulk:bw=8000:bytes=1:interval=1e-12", "'interval'"}}) {
    cfg.traffic = spec;
    try {
      gcs::harness::read_axes(cfg);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  cfg.traffic = "cbr:bw=8000:rate=858993459.2";  // exactly 2^32 in 5 s
  EXPECT_NO_THROW(gcs::harness::read_axes(cfg));
}

// ---------------------------------------------------------------------------
// link_offer FIFO arithmetic
// ---------------------------------------------------------------------------

TEST(LinkOffer, IdealAndInfiniteBandwidthAreTheIdentity) {
  LinkDir dir;
  const LinkDecision off =
      gcs::net::link_offer(parse_traffic("off"), dir, 5.0, 64.0, false);
  EXPECT_DOUBLE_EQ(off.wait + off.tx + off.backlog_bytes, 0.0);
  EXPECT_FALSE(off.dropped);
  EXPECT_FALSE(off.marked);
  EXPECT_DOUBLE_EQ(dir.busy_until, 0.0);
  const LinkDecision idle =
      gcs::net::link_offer(parse_traffic("idle"), dir, 5.0, 64.0, false);
  EXPECT_DOUBLE_EQ(idle.wait + idle.tx + idle.backlog_bytes, 0.0);
  EXPECT_DOUBLE_EQ(dir.busy_until, 0.0);
}

TEST(LinkOffer, SerializationAndQueueWait) {
  const TrafficModel m = parse_traffic("idle:bw=1000");
  LinkDir dir;
  LinkDecision d = gcs::net::link_offer(m, dir, 0.0, 500.0, false);
  EXPECT_DOUBLE_EQ(d.wait, 0.0);
  EXPECT_DOUBLE_EQ(d.tx, 0.5);
  EXPECT_DOUBLE_EQ(d.backlog_bytes, 0.0);
  EXPECT_DOUBLE_EQ(dir.busy_until, 0.5);
  // Same instant: the second packet queues behind the first.
  d = gcs::net::link_offer(m, dir, 0.0, 500.0, false);
  EXPECT_DOUBLE_EQ(d.wait, 0.5);
  EXPECT_DOUBLE_EQ(d.backlog_bytes, 500.0);
  EXPECT_DOUBLE_EQ(dir.busy_until, 1.0);
  // After the link drains, no wait and no backlog.
  d = gcs::net::link_offer(m, dir, 2.0, 500.0, false);
  EXPECT_DOUBLE_EQ(d.wait, 0.0);
  EXPECT_DOUBLE_EQ(d.backlog_bytes, 0.0);
  EXPECT_DOUBLE_EQ(dir.busy_until, 2.5);
}

TEST(LinkOffer, BoundedQueueDropsDroppablesOnly) {
  const TrafficModel m = parse_traffic("idle:bw=1000:queue=800");
  LinkDir dir;
  EXPECT_FALSE(gcs::net::link_offer(m, dir, 0.0, 500.0, true).dropped);
  // backlog 500 + 500 > 800: a droppable packet bounces, state untouched.
  const LinkDecision dropped = gcs::net::link_offer(m, dir, 0.0, 500.0, true);
  EXPECT_TRUE(dropped.dropped);
  EXPECT_DOUBLE_EQ(dir.busy_until, 0.5);
  // The same offer marked non-droppable (a sync message) is accepted.
  const LinkDecision kept = gcs::net::link_offer(m, dir, 0.0, 500.0, false);
  EXPECT_FALSE(kept.dropped);
  EXPECT_DOUBLE_EQ(kept.wait, 0.5);
  EXPECT_DOUBLE_EQ(dir.busy_until, 1.0);
}

TEST(LinkOffer, MarksAboveThreshold) {
  const TrafficModel m = parse_traffic("idle:bw=1000:mark=400");
  LinkDir dir;
  EXPECT_FALSE(gcs::net::link_offer(m, dir, 0.0, 500.0, false).marked);
  EXPECT_TRUE(gcs::net::link_offer(m, dir, 0.0, 64.0, false).marked);
}

TEST(FlowPhase, DeterministicFractionInOpenUnitInterval) {
  for (std::uint64_t key = 0; key < 512; ++key) {
    const double phase = gcs::net::flow_phase(key);
    EXPECT_GT(phase, 0.0) << key;
    EXPECT_LT(phase, 1.0) << key;
    EXPECT_DOUBLE_EQ(phase, gcs::net::flow_phase(key)) << key;
  }
  EXPECT_NE(gcs::net::flow_phase(2), gcs::net::flow_phase(3));
}

// ---------------------------------------------------------------------------
// NetworkSimulation contracts
// ---------------------------------------------------------------------------

// Runs a churn scenario (flows must survive edge add/remove/re-add) under
// the given traffic spec.  shards == 0 is the classic engine.
Trace run_traffic(const std::string& traffic, std::size_t shards,
                  double horizon, gcs::obs::Recorder* recorder = nullptr,
                  gcs::net::DelayModel delay =
                      gcs::net::make_uniform_delay(1.0, 0.25, 1.0)) {
  gcs::util::Rng scenario_rng(7);
  SimOptions options;
  options.shards = shards;
  options.recorder = recorder;
  return run_scenario(
      gcs::net::make_churn_scenario(12, 6, 8.0, horizon, scenario_rng),
      LinkModel(std::move(delay), parse_traffic(traffic)), options, horizon);
}

// A cbr model saturated well past the link rate: 10 pkt/s x 1000 B over a
// 4000 B/s link, bounded queue, low mark threshold -- every counter moves.
constexpr const char kSaturatedCbr[] =
    "cbr:bw=4000:rate=10:pkt=1000:queue=3000:mark=500";

TEST(LinkEquivalence, OffMatchesIdleBitExactlyClassic) {
  const Trace off = run_traffic("off", 0, 30.0);
  const Trace idle = run_traffic("idle", 0, 30.0);
  ASSERT_FALSE(off.clocks.empty());
  EXPECT_GT(off.stats.messages_delivered, 0u);
  expect_same_trajectory(off, idle, "classic off vs idle");
  EXPECT_EQ(idle.stats.traffic_packets, 0u);
  EXPECT_EQ(idle.stats.peak_queue_bytes, 0u);
}

TEST(LinkEquivalence, OffMatchesIdleBitExactlySharded) {
  const Trace off = run_traffic("off", 2, 30.0);
  const Trace idle = run_traffic("idle", 2, 30.0);
  ASSERT_FALSE(off.clocks.empty());
  expect_same_trajectory(off, idle, "sharded off vs idle");
}

TEST(LinkEquivalence, SyncDelayRecordedEvenWithTrafficOff) {
  // With the pipeline off the latency pair reduces to the propagation
  // draw: still recorded (that identity is what keeps off == idle byte-
  // exact), and bounded by the delay model's [floor, bound].
  const Trace off = run_traffic("off", 0, 30.0);
  EXPECT_GT(off.stats.sync_delay_sum, 0.0);
  EXPECT_GE(off.stats.sync_delay_max, 0.25);
  EXPECT_LE(off.stats.sync_delay_max, 1.0);
}

TEST(TrafficDeterminism, ShardCountInvariantUnderLoad) {
  const Trace base = run_traffic(kSaturatedCbr, 1, 30.0);
  ASSERT_FALSE(base.clocks.empty());
  EXPECT_GT(base.stats.traffic_packets, 0u);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const Trace got = run_traffic(kSaturatedCbr, shards, 30.0);
    expect_same_trajectory(base, got,
                                     "shards " + std::to_string(shards));
    EXPECT_EQ(got.clamped, 0u) << shards;
  }
}

TEST(TrafficContention, SaturatedLinkMovesEveryCounterAndStaysBounded) {
  for (const std::size_t shards : {std::size_t{0}, std::size_t{4}}) {
    const Trace loaded = run_traffic(kSaturatedCbr, shards, 30.0);
    const std::string what = "shards " + std::to_string(shards);
    EXPECT_GT(loaded.stats.traffic_packets, 0u) << what;
    EXPECT_GT(loaded.stats.traffic_dropped, 0u) << what;
    EXPECT_GT(loaded.stats.ecn_marks, 0u) << what;
    EXPECT_GT(loaded.stats.peak_queue_bytes, 0u) << what;
    // The bounded queue really bounds: backlog never exceeds the cap.
    EXPECT_LE(loaded.stats.peak_queue_bytes, 3000u + 1000u) << what;
    // Lookahead soundness under saturation: the total sync delay stays
    // clamped to the propagation [floor, bound], so the sharded engine
    // never clamps an event -- queueing cannot break the barrier window.
    EXPECT_GE(loaded.stats.sync_delay_max, 0.25) << what;
    EXPECT_LE(loaded.stats.sync_delay_max, 1.0) << what;
    EXPECT_EQ(loaded.clamped, 0u) << what;

    // And the load is visible where the paper cares: mean sync latency
    // under saturation exceeds the unloaded mean.
    const Trace off = run_traffic("off", shards, 30.0);
    const double mean_loaded =
        loaded.stats.sync_delay_sum /
        static_cast<double>(loaded.stats.messages_sent);
    const double mean_off =
        off.stats.sync_delay_sum / static_cast<double>(off.stats.messages_sent);
    EXPECT_GT(mean_loaded, mean_off) << what;
  }
}

TEST(TrafficContention, BulkFlowsBackpressureInsteadOfDropping) {
  const Trace bulk =
      run_traffic("bulk:bw=4000:bytes=6000:interval=5:queue=2000", 0, 30.0);
  EXPECT_GT(bulk.stats.traffic_packets, 0u);
  // Bulk bursts are non-droppable by design: the bounded queue applies
  // only to droppable (cbr) packets.
  EXPECT_EQ(bulk.stats.traffic_dropped, 0u);
  EXPECT_GT(bulk.stats.peak_queue_bytes, 0u);
}

// ---------------------------------------------------------------------------
// The heap oracle on the streams real cells produce.  Every cell runs the
// calendar queue; these replay a churn cell's (send t, delivery t) stream
// into Engine(kHeap) and Engine(kCalendar) -- advance to each send
// instant, schedule its delivery -- and require the deliveries to run in
// the same order.  test_engine.cpp checks the queues on random streams;
// these pin the gap distributions the simulator actually makes.
// ---------------------------------------------------------------------------

using Stream = std::vector<std::pair<double, double>>;

class SendRecorder final : public gcs::obs::Recorder {
 public:
  void on_trace(const gcs::obs::TraceEvent& event) override {
    if (event.kind == gcs::obs::TraceEvent::Kind::kSend) {
      sends.emplace_back(event.t, event.v2);
    }
  }
  bool wants_trace() const override { return true; }
  Stream sends;
};

// The order in which `policy` runs the stream's deliveries, as indices.
std::vector<std::size_t> replay_order(const Stream& sends,
                                      EnginePolicy policy) {
  Engine engine(policy);
  std::vector<std::size_t> order;
  double last = 0.0;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    engine.run_until(sends[i].first);
    engine.at(sends[i].second, [&order, i] { order.push_back(i); });
    last = std::max(last, sends[i].second);
  }
  engine.run_until(last);
  EXPECT_EQ(engine.clamped_count(), 0u);
  return order;
}

// Records the stream, checks how tied its delivery instants are, and
// replays it under both policies.
void expect_same_replay_order(const std::string& traffic,
                              gcs::net::DelayModel delay, bool slotted) {
  SendRecorder recorder;
  const Trace run = run_traffic(traffic, 0, 30.0, &recorder, std::move(delay));
  const Stream& sends = recorder.sends;
  ASSERT_EQ(sends.size(), run.stats.messages_sent);
  ASSERT_GT(sends.size(), 1000u);
  EXPECT_GT(run.stats.messages_dropped, 0u);  // churn cuts edges mid-flight
  std::set<double> instants;
  for (const auto& send : sends) instants.insert(send.second);
  EXPECT_EQ(instants.size() * 2 < sends.size(), slotted) << instants.size();
  const std::vector<std::size_t> heap =
      replay_order(sends, EnginePolicy::kHeap);
  EXPECT_EQ(heap.size(), sends.size());
  EXPECT_EQ(replay_order(sends, EnginePolicy::kCalendar), heap);
}

TEST(EngineReplay, SlottedChurnStreamRunsInTheSameOrder) {
  // Constant delay: a broadcast's fan-out lands on one instant, so the
  // stream is full of exact ties and FIFO tie-breaking decides the order.
  expect_same_replay_order("off", gcs::net::make_constant_delay(1.0, 0.5),
                           /*slotted=*/true);
}

TEST(EngineReplay, ContinuousSaturatedCbrStreamRunsInTheSameOrder) {
  // Uniform delay behind a saturated cbr queue: continuous timestamps
  // with bursts of queueing delay on top of the propagation draw.
  expect_same_replay_order(kSaturatedCbr,
                           gcs::net::make_uniform_delay(1.0, 0.25, 1.0),
                           /*slotted=*/false);
}

}  // namespace
