// The simulator's edge table.  In-flight messages and background flows
// name an edge by (slot, incarnation), so a message or flow on an edge
// that went down must die with it -- also when the same edge comes back
// up, and when a different edge refills the freed slot.  A broadcast
// walks the sender's kernel peer segment, whose order is part of the
// trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "clk/clock.hpp"
#include "core/network_sim.hpp"
#include "net/delay.hpp"
#include "net/dynamic_graph.hpp"
#include "net/link.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"

namespace {

using gcs::core::NetworkSimulation;
using gcs::core::NodeId;
using gcs::net::Edge;
using gcs::obs::TraceEvent;

constexpr std::size_t kNodes = 8;
constexpr double kDelay = 0.9;
constexpr double kHorizon = 6.0;
// Off every broadcast instant (multiples of delta_h / n) and every
// delivery instant (those plus kDelay), so no tie decides the outcome.
constexpr double kDown = 2.03;
constexpr double kUp = 2.04;

// (arrival time, from, to) of one message.
using Message = std::tuple<double, NodeId, NodeId>;

class MessageLog : public gcs::obs::Recorder {
 public:
  bool wants_trace() const override { return true; }
  void on_trace(const TraceEvent& e) override {
    if (e.kind == TraceEvent::Kind::kSend) {
      sends.push_back({e.t, Message{e.v2, e.a, e.b}});
    } else if (e.kind == TraceEvent::Kind::kDrop) {
      drops.emplace_back(e.t, e.a, e.b);
    }
  }
  struct Send {
    double t;
    Message m;
  };
  std::vector<Send> sends;
  std::vector<Message> drops;
};

struct Outcome {
  gcs::core::RunStats stats;
  std::vector<Message> drops;
  std::vector<Message> expected_drops;  // sent on `dead` before kDown,
  std::size_t stale_after_up = 0;       // of which arriving after kUp
};

// A ring of kNodes at constant rate 1 and constant delay kDelay.  The
// ring edge `dead` goes down at kDown and `reborn` comes up at kUp.
Outcome run(const Edge& dead, const Edge& reborn, std::size_t shards,
            const std::string& traffic) {
  gcs::core::SyncParams p;
  p.n = kNodes;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.5;
  p.delta_h = 0.5;
  gcs::net::DynamicGraph graph(kNodes, gcs::net::make_ring(kNodes).edges(),
                               {{kDown, dead, false}, {kUp, reborn, true}});
  MessageLog log;
  gcs::core::SimOptions options;
  options.recorder = &log;
  options.shards = shards;
  NetworkSimulation sim(
      p, std::move(graph),
      gcs::net::LinkModel(gcs::net::make_constant_delay(p.T, kDelay),
                          gcs::net::parse_traffic(traffic)),
      std::vector<gcs::clk::RateSchedule>(kNodes, gcs::clk::RateSchedule(1.0)),
      options);
  sim.run_until(kHorizon);

  Outcome out;
  out.stats = sim.stats();
  out.drops = log.drops;
  for (const MessageLog::Send& s : log.sends) {
    const auto& [arrive, from, to] = s.m;
    if (Edge(from, to) == dead && s.t < kDown && arrive > kDown) {
      out.expected_drops.push_back(s.m);
      if (arrive > kUp) ++out.stale_after_up;
    }
  }
  std::sort(out.drops.begin(), out.drops.end());
  std::sort(out.expected_drops.begin(), out.expected_drops.end());
  return out;
}

void expect_stale_messages_dropped(const Edge& dead, const Edge& reborn) {
  for (const std::size_t shards : {0u, 1u, 4u}) {
    const Outcome o = run(dead, reborn, shards, "off");
    const std::string what = "shards=" + std::to_string(shards);
    // The case under test: a message from the dead incarnation arrives
    // while its slot is live again.
    ASSERT_GT(o.stale_after_up, 0u) << what;
    EXPECT_EQ(o.drops, o.expected_drops) << what;
    EXPECT_EQ(o.stats.messages_dropped, o.expected_drops.size()) << what;
    EXPECT_GT(o.stats.messages_delivered, 0u) << what;
  }
}

TEST(EdgeSlots, MessageInFlightAcrossRemoveAndReAddIsDropped) {
  expect_stale_messages_dropped(Edge(0, 1), Edge(0, 1));
}

TEST(EdgeSlots, MessageInFlightIsDroppedWhenAnotherEdgeTakesTheSlot) {
  // (2, 5) is not a ring edge: it comes up into the slot (0, 1) freed.
  expect_stale_messages_dropped(Edge(0, 1), Edge(2, 5));
}

// Background packets a flow offers: one per period from its phase-shifted
// start while its incarnation lives (the same accumulation flow_emit
// does), for both directions of every incarnation the run creates.
std::uint64_t expected_flow_packets(const gcs::net::TrafficModel& m,
                                    const Edge& dead, const Edge& reborn) {
  struct Life {
    Edge e;
    double up;
    double down;
  };
  std::vector<Life> lives;
  const gcs::net::Topology ring = gcs::net::make_ring(kNodes);
  for (const Edge& e : ring.edges()) {
    lives.push_back({e, 0.0, e == dead ? kDown : kHorizon + 1.0});
  }
  lives.push_back({reborn, kUp, kHorizon + 1.0});
  std::uint64_t packets = 0;
  for (const Life& l : lives) {
    const std::uint64_t key = (std::uint64_t{l.e.u} << 32) | l.e.v;
    for (std::uint64_t i = 0; i < 2; ++i) {
      for (double t = l.up + m.flow_period() * gcs::net::flow_phase(2 * key + i);
           t <= kHorizon && t < l.down; t += m.flow_period()) {
        ++packets;
      }
    }
  }
  return packets;
}

TEST(EdgeSlots, FlowsStopWithTheirIncarnation) {
  const std::string spec = "cbr:bw=8000:rate=4:pkt=100";
  const gcs::net::TrafficModel m = gcs::net::parse_traffic(spec);
  for (const Edge& reborn : {Edge(0, 1), Edge(2, 5)}) {
    const std::uint64_t want = expected_flow_packets(m, Edge(0, 1), reborn);
    for (const std::size_t shards : {0u, 1u, 4u}) {
      const Outcome o = run(Edge(0, 1), reborn, shards, spec);
      EXPECT_EQ(o.stats.traffic_packets, want)
          << "reborn (" << reborn.u << ", " << reborn.v << ") shards=" << shards;
      EXPECT_EQ(o.drops, o.expected_drops) << "shards=" << shards;
    }
  }
}

// A broadcast sends along the sender's peer segment, so its send order --
// and with it the order of the delay draws -- is the order the edges came
// up in, minus the ones that went down.  Node 0 gains edges to 1, 2, 3, 4
// in that order and loses (0, 2): its next broadcast must go to 1, 3, 4
// (a swap-remove in the kernel would send to 1, 4, 3).
TEST(EdgeSlots, BroadcastSendsInEdgeUpOrderAfterARemoval) {
  constexpr std::size_t n = 5;
  // Node 0 broadcasts at 0.1 + 0.5 k (rate 1, phase delta_h / n); every
  // topology delta sits off those instants and off every delivery.
  constexpr double kRemove = 2.03;
  gcs::core::SyncParams p;
  p.n = n;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.5;
  p.delta_h = 0.5;
  for (const std::size_t shards : {0u, 1u, 4u}) {
    gcs::net::DynamicGraph graph(n, {},
                                 {{1.03, Edge(0, 1), true},
                                  {1.23, Edge(0, 2), true},
                                  {1.43, Edge(0, 3), true},
                                  {1.63, Edge(0, 4), true},
                                  {kRemove, Edge(0, 2), false}});
    MessageLog log;
    gcs::core::SimOptions options;
    options.recorder = &log;
    options.shards = shards;
    NetworkSimulation sim(
        p, std::move(graph), gcs::net::make_constant_delay(p.T, 0.5),
        std::vector<gcs::clk::RateSchedule>(n, gcs::clk::RateSchedule(1.0)),
        options);
    sim.run_until(3.0);

    std::vector<NodeId> receivers;
    double at = -1.0;
    for (const MessageLog::Send& s : log.sends) {
      if (std::get<1>(s.m) != 0 || s.t <= kRemove) continue;
      if (at < 0.0) at = s.t;
      if (s.t == at) receivers.push_back(std::get<2>(s.m));
    }
    EXPECT_DOUBLE_EQ(at, 2.1) << "shards=" << shards;
    EXPECT_EQ(receivers, (std::vector<NodeId>{1, 3, 4})) << "shards=" << shards;
  }
}

// The per-delivery envelope audit reads a sender's hardware clock once
// per (sender, instant) and adds the sender's offset per record.  Every
// audited skew must still be exactly |L_u - L_v| as the accessors read
// it at that moment: under walk drift, with a constant delay that
// coalesces each broadcast into one batch, and with churn whose edge-up
// exchanges deliver both ways in one batch (a sender there may have
// jumped earlier in the same batch).
TEST(EdgeSlots, ConformanceAuditReadsTheClocksExactly) {
  class Audit : public gcs::obs::Recorder {
   public:
    bool wants_trace() const override { return true; }
    void on_trace(const TraceEvent& e) override {
      if (e.kind != TraceEvent::Kind::kConformance) return;
      ++checked;
      const double want =
          std::abs(sim->logical_clock(e.a) - sim->logical_clock(e.b));
      if (e.v1 != want) ++mismatched;
    }
    const NetworkSimulation* sim = nullptr;
    std::size_t checked = 0;
    std::size_t mismatched = 0;
  };
  constexpr std::size_t n = 24;
  constexpr double kRun = 30.0;
  gcs::core::SyncParams p;
  p.n = n;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.5;
  p.delta_h = 0.5;
  std::vector<gcs::clk::RateSchedule> clocks;
  for (std::size_t i = 0; i < n; ++i) {
    clocks.push_back(gcs::clk::RateSchedule::random_walk(
        p.rho, 1.0, p.rho / 4.0, 7919 + i, 1.0, kRun + 1.0));
  }
  gcs::util::Rng rng(5);
  const gcs::net::Scenario churn =
      gcs::net::make_churn_scenario(n, 10, 2.0, kRun, rng);
  Audit audit;
  gcs::core::SimOptions options;
  options.recorder = &audit;
  NetworkSimulation sim(p, churn.to_dynamic_graph(),
                        gcs::net::make_constant_delay(p.T, 0.5), clocks,
                        options);
  audit.sim = &sim;
  sim.run_until(kRun);
  EXPECT_EQ(audit.checked, sim.stats().conformance_checks);
  EXPECT_GT(audit.checked, 1000u);
  EXPECT_GT(sim.stats().jumps, 0u);
  EXPECT_EQ(audit.mismatched, 0u);
}

TEST(EdgeSlots, IncarnationOverflowFailsLoudly) {
  EXPECT_EQ(gcs::core::next_incarnation(0, 3), 1u);
  EXPECT_EQ(gcs::core::next_incarnation(41, 3), 42u);
  const std::uint32_t last = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(gcs::core::next_incarnation(last - 1, 3), last);
  try {
    gcs::core::next_incarnation(last, 7);
    FAIL() << "incarnation 2^32 - 1 wrapped instead of failing";
  } catch (const std::overflow_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("edge slot 7"), std::string::npos) << what;
    EXPECT_NE(what.find("incarnations"), std::string::npos) << what;
  }
}

}  // namespace
