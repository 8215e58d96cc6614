#include "core/dcsa_columns.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/network_sim.hpp"
#include "dcsa_node.hpp"
#include "net/delay.hpp"
#include "net/scenario.hpp"

namespace {

using gcs::test::DcsaNode;
using Rule = gcs::core::Variant::Rule;

gcs::core::SyncParams small_params(std::size_t n) {
  gcs::core::SyncParams p;
  p.n = n;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.0;
  p.delta_h = 0.5;
  return p;
}

// Direct-call context for node-level tests: hw_now carries the clock, and
// `now` (diagnostic only) just mirrors it.
gcs::core::NodeContext at(gcs::core::NodeId self, double hw_now) {
  return gcs::core::NodeContext{self, hw_now, hw_now};
}

// Every rule the kernel implements, each under the proper tolerance and
// under a crippled one (no G headroom: B(age) == b0) so that the
// blocking cap -- and with it the weighted floor -- actually binds.
std::vector<gcs::core::Protocol> all_protocols(
    const gcs::core::SyncParams& p) {
  const gcs::core::BFunction crippled(p.effective_b0(), 0.0, p.tau(), p.rho);
  std::vector<gcs::core::Protocol> out;
  for (const gcs::core::Variant v :
       {gcs::core::Variant{Rule::kDcsa, 1.0},
        gcs::core::Variant{Rule::kWeighted, 0.5},
        gcs::core::Variant{Rule::kNoBlock, 1.0},
        gcs::core::Variant{Rule::kNoJump, 1.0}}) {
    out.push_back(gcs::core::Protocol{v, std::nullopt});
    out.push_back(gcs::core::Protocol{v, crippled});
  }
  return out;
}

// Sink that records the jumps reported through after(), for driving the
// kernel directly.
struct JumpSink : gcs::core::DeliverySink {
  std::vector<double> jumps;
  void before(const gcs::core::StoreDelivery&) override {}
  void after(const gcs::core::StoreDelivery&, double jump) override {
    jumps.push_back(jump);
  }
};

std::string describe(const gcs::core::Protocol& protocol) {
  const char* rules[] = {"dcsa", "weighted", "noblock", "nojump"};
  return std::string(rules[static_cast<int>(protocol.variant.rule)]) +
         (protocol.tolerance ? "/crippled" : "/proper");
}

TEST(DcsaNode, JumpsTowardLargerEstimateButNeverBackwards) {
  const auto p = small_params(2);
  DcsaNode node(p);
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);
  EXPECT_DOUBLE_EQ(node.logical_clock(5.0), 5.0);

  node.on_message(at(0, 5.0), 1, 20.0);
  const double jump = node.step(at(0, 5.0));
  EXPECT_GT(jump, 0.0);
  EXPECT_DOUBLE_EQ(node.logical_clock(5.0), 20.0);
  EXPECT_TRUE(node.fast_mode());

  // A smaller (stale) estimate must not pull the clock down.
  node.on_message(at(0, 6.0), 1, 1.0);
  EXPECT_DOUBLE_EQ(node.step(at(0, 6.0)), 0.0);
  EXPECT_DOUBLE_EQ(node.logical_clock(6.0), 21.0);
}

TEST(DcsaNode, CrippledToleranceBlocksJump) {
  auto p = small_params(3);
  // A tolerance with no G headroom: B(age) == b0 everywhere.
  const gcs::core::BFunction crippled(p.effective_b0(), 0.0, p.tau(), p.rho);
  const gcs::core::Protocol protocol{gcs::core::Variant{}, crippled};
  DcsaNode node(p, protocol);
  gcs::core::DcsaColumns cols(p, 3, protocol);
  node.start(at(0, 0.0));
  cols.start(at(0, 0.0));
  for (gcs::core::NodeId peer : {1u, 2u}) {  // far ahead, then the laggard
    node.on_edge_up(at(0, 0.0), peer);
    cols.edge_up(at(0, 0.0), peer);
  }
  const double b0 = p.effective_b0();

  node.on_message(at(0, 1.0), 1, 100.0);         // way ahead
  node.on_message(at(0, 1.0), 2, -(b0 + 50.0));  // way behind
  EXPECT_TRUE(node.is_blocked_by(2, 1.0));
  EXPECT_FALSE(node.is_blocked_by(1, 1.0));
  // The cap (laggard's estimate + b0) sits below the current clock, so no
  // jump happens at all and the node free-runs at its hardware rate.
  EXPECT_DOUBLE_EQ(node.step(at(0, 1.0)), 0.0);
  EXPECT_DOUBLE_EQ(node.logical_clock(1.0), 1.0);

  // The kernel agrees on who blocks whom.  It steps after every record,
  // so it hears the laggard first (else the lone pull would jump it).
  JumpSink sink;
  const gcs::core::StoreDelivery behind{2, 0, -(b0 + 50.0), 1.0, 1.0};
  const gcs::core::StoreDelivery ahead{1, 0, 100.0, 1.0, 1.0};
  cols.on_deliveries(&behind, 1, sink);
  cols.on_deliveries(&ahead, 1, sink);
  EXPECT_TRUE(cols.is_blocked_by(0, 2, 1.0));
  EXPECT_FALSE(cols.is_blocked_by(0, 1, 1.0));
  EXPECT_FALSE(cols.is_blocked_by(0, 7, 1.0));  // not a neighbour
  EXPECT_EQ(cols.logical_clock(0, 1.0), 1.0);
}

TEST(DcsaNode, ProperToleranceDoesNotBlockFreshSkew) {
  auto p = small_params(3);
  DcsaNode node(p);  // proper B: B(0) = b0 + G(n) > G(n)
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);
  node.on_edge_up(at(0, 0.0), 2);
  // The laggard is behind by nearly the whole global bound -- legal for a
  // fresh edge, and by Lemma 6.10 it must not block.
  node.on_message(at(0, 1.0), 1, 10.0);
  node.on_message(at(0, 1.0), 2, -(p.global_skew_bound() - 10.0));
  EXPECT_FALSE(node.is_blocked_by(2, 1.0));
  node.step(at(0, 1.0));
  EXPECT_DOUBLE_EQ(node.logical_clock(1.0), 10.0);
}

TEST(DcsaColumns, WeightedTightensOnlyTheFloor) {
  auto p = small_params(3);
  const gcs::core::Protocol weighted{gcs::core::Variant{Rule::kWeighted, 0.5},
                                     std::nullopt};
  DcsaNode node(p, weighted);
  gcs::core::DcsaColumns cols(p, 3, weighted);
  node.start(at(0, 0.0));
  cols.start(at(0, 0.0));
  for (gcs::core::NodeId peer : {1u, 2u}) {
    node.on_edge_up(at(0, 0.0), peer);
    cols.edge_up(at(0, 0.0), peer);
  }
  const double b0 = p.effective_b0();

  // Matured edges (age far past decay): the cap toward peer 2 is its
  // estimate plus the weighted floor, half the plain b0.
  const double age = cols.tolerance_fn().decay_age() + 100.0;
  const double before = node.logical_clock(age);
  node.on_message(at(0, age), 1, before + 1000.0);  // strong pull upward
  node.on_message(at(0, age), 2, before);  // peer 2 level with us
  const double jump = node.step(at(0, age));
  // Overshoot over peer 2 is capped by the weighted floor w * b0.
  EXPECT_NEAR(node.logical_clock(age) - before, 0.5 * b0, 1e-9);
  EXPECT_TRUE(node.is_blocked_by(2, age));

  // The kernel steps after every record, so it hears the level peer
  // first (no jump yet) and the pull second (capped at w * b0).
  JumpSink sink;
  const gcs::core::StoreDelivery level{2, 0, before, age, age};
  const gcs::core::StoreDelivery pull{1, 0, before + 1000.0, age, age};
  cols.on_deliveries(&level, 1, sink);
  cols.on_deliveries(&pull, 1, sink);
  EXPECT_EQ(cols.logical_clock(0, age), node.logical_clock(age));
  EXPECT_EQ(sink.jumps.at(0) + sink.jumps.at(1), jump);
  EXPECT_TRUE(cols.is_blocked_by(0, 2, age));

  // A young edge keeps the full G headroom: only the floor is weighted,
  // so Lemma 6.10 (a new edge never blocks) survives the extension.
  DcsaNode fresh(p, weighted);
  fresh.start(at(0, 0.0));
  fresh.on_edge_up(at(0, 0.0), 1);
  fresh.on_edge_up(at(0, 0.0), 2);
  fresh.on_message(at(0, 0.5), 1, 10.0);
  fresh.on_message(at(0, 0.5), 2, -(p.global_skew_bound() - 10.0));
  EXPECT_FALSE(fresh.is_blocked_by(2, 0.5));
}

// End-to-end: a two-camp network on a ring must keep the global skew
// under G(n) and live-edge skews under the envelope, with zero
// conformance failures from the simulator's own checker.
TEST(NetworkSimulation, TwoCampRingStaysInsideBounds) {
  const auto p = small_params(8);
  std::vector<gcs::clk::RateSchedule> schedules;
  for (std::size_t i = 0; i < p.n; ++i) {
    schedules.emplace_back(i % 2 == 0 ? 1.0 + p.rho : 1.0 - p.rho);
  }
  gcs::core::NetworkSimulation sim(
      p,
      gcs::net::DynamicGraph(p.n, gcs::net::make_ring(p.n).edges(), {}),
      gcs::net::make_constant_delay(p.T, p.T / 2.0), std::move(schedules));
  sim.run_until(60.0);
  EXPECT_GT(sim.stats().messages_delivered, 0u);
  EXPECT_GT(sim.stats().jumps, 0u);
  EXPECT_EQ(sim.stats().conformance_envelope_failures, 0u);
  EXPECT_EQ(sim.stats().conformance_monotonicity_failures, 0u);
  double lo = sim.logical_clock(0), hi = lo;
  for (gcs::core::NodeId i = 1; i < p.n; ++i) {
    lo = std::min(lo, sim.logical_clock(i));
    hi = std::max(hi, sim.logical_clock(i));
  }
  EXPECT_LE(hi - lo, p.global_skew_bound());
  EXPECT_GT(hi, 50.0);  // clocks actually advanced through the horizon
}

// The kernel must reproduce the oracle's arithmetic bit for bit under
// every protocol: same deliveries, same jumps, same logical clocks, same
// fast flag -- including across edge churn that exercises slot reuse.
TEST(DcsaColumns, MirrorsDcsaNodeBitForBit) {
  const auto p = small_params(4);
  for (const gcs::core::Protocol& protocol : all_protocols(p)) {
    SCOPED_TRACE(describe(protocol));
    DcsaNode node(p, protocol);
    gcs::core::DcsaColumns cols(p, 4, protocol);

    const gcs::core::NodeContext zero = at(0, 0.0);
    node.start(zero);
    for (gcs::core::NodeId u = 0; u < 4; ++u) cols.start(at(u, 0.0));
    for (gcs::core::NodeId peer : {1u, 2u, 3u}) {
      node.on_edge_up(zero, peer);
      cols.edge_up(zero, peer);
    }

    JumpSink sink;
    const double values[] = {7.5, -3.25, 12.0, 11.875, 0.5, 40.0};
    double hw = 0.5;
    for (std::size_t k = 0; k < 6; ++k, hw += 0.625) {
      const gcs::core::NodeId from = 1 + (k % 3);
      const gcs::core::StoreDelivery d{from, 0, values[k], hw, hw};
      node.on_message(at(0, hw), from, values[k]);
      const double want = node.step(at(0, hw));
      cols.on_deliveries(&d, 1, sink);
      ASSERT_EQ(sink.jumps.size(), k + 1);
      EXPECT_EQ(sink.jumps[k], want) << "record " << k;
      EXPECT_EQ(cols.logical_clock(0, hw), node.logical_clock(hw));
      EXPECT_EQ(cols.fast_mode(0), node.fast_mode());
      for (gcs::core::NodeId peer : {1u, 2u, 3u}) {
        EXPECT_EQ(cols.is_blocked_by(0, peer, hw), node.is_blocked_by(peer, hw))
            << "record " << k << " peer " << peer;
      }

      if (k == 2) {  // churn an edge mid-stream: both must forget peer 2
        node.on_edge_down(at(0, hw), 2);
        cols.edge_down(at(0, hw), 2);
        node.on_edge_up(at(0, hw), 2);
        cols.edge_up(at(0, hw), 2);
      }
    }
  }
}

// Slot-arena mechanics: segments grow past the initial capacity by
// relocation, edge_down erases in order, and the books (live_slots,
// arena_bytes) stay consistent.
TEST(DcsaColumns, SlotArenaGrowsAndShrinks) {
  const auto p = small_params(64);
  gcs::core::DcsaColumns cols(p, 64);
  for (gcs::core::NodeId u = 0; u < 64; ++u) cols.start(at(u, 0.0));

  // Degree 12 on node 0 forces two relocations (cap 4 -> 8 -> 16).
  for (gcs::core::NodeId peer = 1; peer <= 12; ++peer) {
    cols.edge_up(at(0, 0.0), peer);
  }
  EXPECT_EQ(cols.live_slots(), 12u);
  EXPECT_GT(cols.arena_bytes(), 0u);

  for (gcs::core::NodeId peer = 1; peer <= 12; ++peer) {
    cols.edge_down(at(0, 1.0), peer);
  }
  EXPECT_EQ(cols.live_slots(), 0u);

  // Re-adding after a full teardown reuses the segment cleanly.
  cols.edge_up(at(0, 2.0), 5);
  EXPECT_EQ(cols.live_slots(), 1u);
  const gcs::core::StoreDelivery d{5, 0, 100.0, 2.0, 2.0};
  JumpSink sink;
  cols.on_deliveries(&d, 1, sink);
  EXPECT_GT(sink.jumps.at(0), 0.0);
  EXPECT_EQ(cols.logical_clock(0, 2.0), 100.0);
}

// Adversarial grow/shrink churn on one segment: estimates set before a
// cap-doubling relocation must ride along to the new region bit-exact,
// removals at the head/middle/tail of the segment must not corrupt
// survivors, and reclaimed slots must come back clean -- all mirrored
// delivery-for-delivery against the oracle, under every protocol.
TEST(DcsaColumns, AdversarialChurnKeepsRelocatedSegmentsBitExact) {
  const auto p = small_params(64);
  for (const gcs::core::Protocol& protocol : all_protocols(p)) {
    SCOPED_TRACE(describe(protocol));
    DcsaNode node(p, protocol);
    gcs::core::DcsaColumns cols(p, 64, protocol);
    node.start(at(0, 0.0));
    for (gcs::core::NodeId u = 0; u < 64; ++u) cols.start(at(u, 0.0));

    JumpSink sink;
    double hw = 0.25;
    auto deliver = [&](gcs::core::NodeId from, double value) {
      const gcs::core::StoreDelivery d{from, 0, value, hw, hw};
      node.on_message(at(0, hw), from, value);
      const double want = node.step(at(0, hw));
      sink.jumps.clear();
      cols.on_deliveries(&d, 1, sink);
      ASSERT_EQ(sink.jumps.size(), 1u);
      EXPECT_EQ(sink.jumps[0], want) << "from " << from << " at hw " << hw;
      EXPECT_EQ(cols.logical_clock(0, hw), node.logical_clock(hw));
      EXPECT_EQ(cols.fast_mode(0), node.fast_mode());
      hw += 0.375;
    };
    auto up = [&](gcs::core::NodeId peer) {
      node.on_edge_up(at(0, hw), peer);
      cols.edge_up(at(0, hw), peer);
    };
    auto down = [&](gcs::core::NodeId peer) {
      node.on_edge_down(at(0, hw), peer);
      cols.edge_down(at(0, hw), peer);
    };

    // Grow through three relocations (cap 4 -> 8 -> 16 -> 32), delivering
    // after every edge so each relocation carries live estimates.
    for (gcs::core::NodeId peer = 1; peer <= 20; ++peer) {
      up(peer);
      deliver(peer, 3.0 * peer + 0.125);
    }
    EXPECT_EQ(cols.live_slots(), 20u);

    // Remove the segment's first, middle, and last slot, then hear
    // from every survivor (a stale or mis-copied slot diverges instantly).
    down(1);
    down(10);
    down(20);
    EXPECT_EQ(cols.live_slots(), 17u);
    for (gcs::core::NodeId peer = 2; peer <= 19; ++peer) {
      if (peer == 10) continue;
      deliver(peer, 100.0 + peer);
    }
    // A message from a removed peer updates nothing (but still steps).
    deliver(1, 1e6);

    // Reclaim the freed slots and push through one more relocation.
    for (gcs::core::NodeId peer : {1u, 10u, 20u}) {
      up(peer);
      deliver(peer, 200.0 + peer);
    }
    for (gcs::core::NodeId peer = 21; peer <= 40; ++peer) {
      up(peer);
      deliver(peer, 50.0 + peer);
    }
    EXPECT_EQ(cols.live_slots(), 40u);
  }
}

// The hole-threshold compaction must actually fire under churn -- a
// "half the arena" threshold would be unreachable (doubling growth
// leaves c-4 holes against 2c-4 allocated slots per segment, strictly
// under one half forever) -- and a fired compaction must preserve every
// segment: estimates recorded before the rebuild still drive jumps
// bit-identical to the oracle after it, under every protocol.
TEST(DcsaColumns, HoleCompactionFiresAndPreservesSegments) {
  const std::size_t n = 600;
  const auto p = small_params(n);
  for (const gcs::core::Protocol& protocol : all_protocols(p)) {
    SCOPED_TRACE(describe(protocol));
    gcs::core::DcsaColumns cols(p, n, protocol);
    std::vector<DcsaNode> nodes(n, DcsaNode(p, protocol));
    for (gcs::core::NodeId u = 0; u < n; ++u) {
      nodes[u].start(at(u, 0.0));
      cols.start(at(u, 0.0));
    }

    // Degree 9 everywhere: two relocations per node (cap 4 -> 8 -> 16),
    // 12 holes a node, so holes cross the 4096 absolute floor and a
    // quarter of the arena a bit past node 340.  arena_bytes() shrinking
    // across an edge_up is the compaction firing.
    JumpSink sink;
    std::size_t compactions = 0;
    std::size_t prev_bytes = cols.arena_bytes();
    for (gcs::core::NodeId u = 0; u < n; ++u) {
      for (gcs::core::NodeId k = 1; k <= 9; ++k) {
        const gcs::core::NodeId peer = (u + k) % n;
        nodes[u].on_edge_up(at(u, 0.0), peer);
        cols.edge_up(at(u, 0.0), peer);
        if (cols.arena_bytes() < prev_bytes) ++compactions;
        prev_bytes = cols.arena_bytes();
        if (k == 5) {  // a mid-growth estimate the rebuild must carry
          const gcs::core::StoreDelivery d{peer, u, 0.5 + 0.001 * u, 0.5, 0.5};
          nodes[u].on_message(at(u, 0.5), peer, d.value);
          const double want = nodes[u].step(at(u, 0.5));
          sink.jumps.clear();
          cols.on_deliveries(&d, 1, sink);
          ASSERT_EQ(sink.jumps.at(0), want) << "node " << u;
        }
      }
    }
    EXPECT_GE(compactions, 1u);
    EXPECT_EQ(cols.live_slots(), n * 9u);

    // Segments on both sides of the compaction point still mirror the
    // oracle exactly, pre-rebuild estimates included.
    double hw = 1.0;
    for (gcs::core::NodeId u : {0u, 200u, 341u, 342u, 599u}) {
      const gcs::core::StoreDelivery d{(u + 3) % static_cast<gcs::core::NodeId>(n),
                                       u, 500.0 + u, hw, hw};
      nodes[u].on_message(at(u, hw), d.from, d.value);
      const double want = nodes[u].step(at(u, hw));
      sink.jumps.clear();
      cols.on_deliveries(&d, 1, sink);
      ASSERT_EQ(sink.jumps.at(0), want) << "node " << u;
      EXPECT_EQ(cols.logical_clock(u, hw), nodes[u].logical_clock(hw));
      hw += 0.5;
    }

    // edge_down still finds every relocated-and-rebuilt slot.
    for (gcs::core::NodeId u = 0; u < n; ++u) {
      cols.edge_down(at(u, 2.0), (u + 1) % n);
    }
    EXPECT_EQ(cols.live_slots(), n * 8u);
  }
}

// for_each_peer is the simulator's broadcast order, so the segment must
// list peers in edge-up order (not peer order) with the tag each edge_up
// gave them -- across an ordered erase in the middle, a relocation and a
// compaction.  A swap-remove in edge_down reorders the survivors.
TEST(DcsaColumns, PeerSegmentKeepsEdgeUpOrderAndTags) {
  const std::size_t n = 600;
  const auto p = small_params(n);
  gcs::core::DcsaColumns cols(p, n);
  for (gcs::core::NodeId u = 0; u < n; ++u) cols.start(at(u, 0.0));

  using Entry = std::pair<gcs::core::NodeId, std::uint32_t>;
  std::vector<Entry> want;
  const auto tag_of = [](gcs::core::NodeId peer) { return 1000 + 7 * peer; };
  const auto up = [&](gcs::core::NodeId peer) {
    cols.edge_up(at(0, 0.0), peer, tag_of(peer));
    want.emplace_back(peer, tag_of(peer));
  };
  const auto down = [&](gcs::core::NodeId peer) {
    cols.edge_down(at(0, 1.0), peer);
    want.erase(std::find(want.begin(), want.end(), Entry{peer, tag_of(peer)}));
  };
  const auto expect_segment = [&](const std::string& when) {
    std::vector<Entry> got;
    cols.for_each_peer(0, [&](gcs::core::NodeId peer, std::uint32_t tag) {
      got.emplace_back(peer, tag);
    });
    EXPECT_EQ(got, want) << when;
    for (const auto& [peer, tag] : want) {
      std::uint32_t found = 0;
      EXPECT_TRUE(cols.find_tag(0, peer, &found)) << when << " peer " << peer;
      EXPECT_EQ(found, tag) << when << " peer " << peer;
    }
  };

  for (gcs::core::NodeId peer : {7u, 3u, 9u, 1u}) up(peer);
  down(9);  // the middle of a full initial segment
  expect_segment("after a middle removal");
  std::uint32_t unused = 0;
  EXPECT_FALSE(cols.find_tag(0, 9, &unused));

  // Past the initial capacity of 4: the segment relocates (cap 4 -> 8),
  // then loses a middle entry again.
  for (gcs::core::NodeId peer : {12u, 2u, 11u, 5u}) up(peer);
  down(12);
  expect_segment("after a relocation");

  // Fill every other node to degree 9 (two relocations each) until the
  // hole threshold compacts the arena under node 0's segment.
  std::size_t compactions = 0;
  std::size_t prev_bytes = cols.arena_bytes();
  for (gcs::core::NodeId u = 1; u < n; ++u) {
    for (gcs::core::NodeId k = 1; k <= 9; ++k) {
      cols.edge_up(at(u, 0.0), (u + k) % n, k);
      if (cols.arena_bytes() < prev_bytes) ++compactions;
      prev_bytes = cols.arena_bytes();
    }
  }
  ASSERT_GE(compactions, 1u);
  expect_segment("after a compaction");
  down(1);
  up(9);
  expect_segment("after a compaction, a removal and a re-add");
}

// reserve_segments lays the initial segments out back to back at each
// node's degree, so bringing the initial edges up relocates nothing:
// the ring's arena is exactly 21 B per node plus 33 B per peer slot, no
// holes, and every segment still lists its peers in edge-up order (the
// broadcast order).  Growth past the initial degree is unchanged.
TEST(DcsaColumns, DegreeSizedSegmentsHoldTheRingWithoutHoles) {
  const std::size_t n = 1000;
  const auto p = small_params(n);
  const std::vector<gcs::net::Edge> ring = gcs::net::make_ring(n).edges();
  constexpr std::size_t kPerNode = 21;
  constexpr std::size_t kPerSlot = 33;

  // Through the simulator, which sizes the segments from its graph.
  gcs::core::NetworkSimulation sim(
      p, gcs::net::DynamicGraph(n, ring, {}),
      gcs::net::make_constant_delay(p.T, 0.25),
      std::vector<gcs::clk::RateSchedule>(n, gcs::clk::RateSchedule(1.0)));
  EXPECT_EQ(sim.store().live_slots(), 2 * n);
  EXPECT_EQ(sim.store().arena_bytes(), n * kPerNode + 2 * n * kPerSlot);
  std::vector<std::vector<gcs::core::NodeId>> want(n);
  for (const gcs::net::Edge& e : ring) {
    want[e.u].push_back(e.v);
    want[e.v].push_back(e.u);
  }
  for (gcs::core::NodeId u = 0; u < n; ++u) {
    std::vector<gcs::core::NodeId> got;
    sim.store().for_each_peer(
        u, [&got](gcs::core::NodeId peer, std::uint32_t) { got.push_back(peer); });
    ASSERT_EQ(got, want[u]) << "node " << u;
  }

  // And on the kernel alone, with a degree-0 node and later growth.
  gcs::core::DcsaColumns cols(p, n);
  std::vector<gcs::net::Edge> edges(ring.begin(), ring.end() - 1);  // a path
  edges.pop_back();  // node n - 1 keeps degree 0
  cols.reserve_segments(edges);
  for (gcs::core::NodeId u = 0; u < n; ++u) cols.start(at(u, 0.0));
  for (const gcs::net::Edge& e : edges) {
    cols.edge_up(at(e.u, 0.0), e.v);
    cols.edge_up(at(e.v, 0.0), e.u);
  }
  const std::size_t laid_out = n * kPerNode + 2 * edges.size() * kPerSlot;
  EXPECT_EQ(cols.arena_bytes(), laid_out);
  // Node 5 (degree 2) grows to kInitialCap = 4 slots at the tail; node
  // n - 1 (degree 0) takes 4 fresh ones.
  cols.edge_up(at(5, 1.0), 9);
  cols.edge_up(at(n - 1, 1.0), 9);
  EXPECT_EQ(cols.arena_bytes(), laid_out + 8 * kPerSlot);
  std::vector<gcs::core::NodeId> got;
  cols.for_each_peer(
      5, [&got](gcs::core::NodeId peer, std::uint32_t) { got.push_back(peer); });
  EXPECT_EQ(got, (std::vector<gcs::core::NodeId>{4, 6, 9}));
  // The layout is a set-up step: once a segment exists it would move.
  EXPECT_THROW(cols.reserve_segments(edges), std::logic_error);
}

}  // namespace
