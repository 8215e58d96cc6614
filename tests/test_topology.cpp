#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "net/dynamic_graph.hpp"
#include "net/scenario.hpp"
#include "util/rng.hpp"

namespace {

using gcs::net::Edge;

TEST(Edge, NormalizesEndpoints) {
  EXPECT_EQ(Edge(5, 2), Edge(2, 5));
  EXPECT_EQ(Edge(5, 2).u, 2u);
  EXPECT_EQ(Edge(5, 2).v, 5u);
  EXPECT_LT(Edge(1, 2), Edge(1, 3));
}

TEST(Topology, GeneratorsHaveExpectedShape) {
  EXPECT_EQ(gcs::net::make_path(8).edges().size(), 7u);
  EXPECT_EQ(gcs::net::make_ring(8).edges().size(), 8u);
  EXPECT_EQ(gcs::net::make_star(8).edges().size(), 7u);
  EXPECT_EQ(gcs::net::make_complete(8).edges().size(), 28u);
  EXPECT_TRUE(gcs::net::make_path(8).is_connected());
  EXPECT_TRUE(gcs::net::make_ring(8).is_connected());
  EXPECT_TRUE(gcs::net::make_star(8).is_connected());
}

TEST(Topology, DisconnectedGraphDetected) {
  gcs::net::Topology t(4, {Edge(0, 1), Edge(2, 3)});
  EXPECT_FALSE(t.is_connected());
}

TEST(DynamicGraph, ReplayAppliesEventsInOrder) {
  gcs::net::DynamicGraph g(
      3, {Edge(0, 1)},
      {{5.0, Edge(1, 2), true}, {10.0, Edge(0, 1), false}});
  EXPECT_EQ(g.edges_at(0.0).size(), 1u);
  EXPECT_EQ(g.edges_at(5.0).size(), 2u);
  EXPECT_EQ(g.edges_at(10.0), std::vector<Edge>{Edge(1, 2)});
  EXPECT_TRUE(g.connected_at(5.0));
  EXPECT_FALSE(g.connected_at(10.0));
}

TEST(Scenario, StaticScenarioRoundTrips) {
  const auto s = gcs::net::make_static_scenario(gcs::net::make_ring(6));
  EXPECT_EQ(s.n, 6u);
  EXPECT_EQ(s.initial_edges.size(), 6u);
  EXPECT_TRUE(s.events.empty());
  EXPECT_TRUE(s.to_dynamic_graph().connected_at(123.0));
}

TEST(Scenario, ChurnKeepsBackboneAndChurnsShortcuts) {
  gcs::util::Rng rng(11);
  const auto s = gcs::net::make_churn_scenario(16, 8, 10.0, 100.0, rng);
  EXPECT_EQ(s.n, 16u);
  EXPECT_EQ(s.initial_edges.size(), 16u);  // the ring backbone
  EXPECT_GT(s.events.size(), 8u);          // shortcut slots keep cycling
  const auto g = s.to_dynamic_graph();
  const std::set<Edge> backbone(s.initial_edges.begin(),
                                s.initial_edges.end());
  for (double t = 0.0; t <= 100.0; t += 5.0) {
    const auto live = g.edges_at(t);
    EXPECT_TRUE(gcs::net::is_connected(16, live)) << "t=" << t;
    const std::set<Edge> live_set(live.begin(), live.end());
    for (const Edge& e : backbone) {
      EXPECT_TRUE(live_set.count(e)) << "backbone edge lost at t=" << t;
    }
  }
  // Events never touch the backbone, and times stay inside the horizon.
  for (const auto& ev : s.events) {
    EXPECT_FALSE(backbone.count(ev.edge));
    EXPECT_GE(ev.at, 0.0);
    EXPECT_LT(ev.at, 100.0);
  }
}

TEST(Scenario, SwitchingStarNeverPartitions) {
  const auto s = gcs::net::make_switching_star_scenario(10, 25.0, 5.0, 200.0);
  const auto g = s.to_dynamic_graph();
  EXPECT_GT(s.events.size(), 0u);
  for (double t = 0.0; t <= 200.0; t += 1.0) {
    EXPECT_TRUE(g.connected_at(t)) << "t=" << t;
  }
}

TEST(Scenario, MobilityWithBackboneStaysConnected) {
  gcs::util::Rng rng(13);
  const auto s = gcs::net::make_mobility_scenario(12, 0.3, 0.01, 0.06, 2.0,
                                                  100.0, true, rng);
  const auto g = s.to_dynamic_graph();
  EXPECT_GT(s.events.size(), 0u);  // motion actually changes the graph
  for (double t = 0.0; t <= 100.0; t += 10.0) {
    EXPECT_TRUE(g.connected_at(t)) << "t=" << t;
  }
}

TEST(Scenario, GeneratorsAreDeterministicPerSeed) {
  gcs::util::Rng a(42), b(42);
  const auto sa = gcs::net::make_churn_scenario(16, 8, 10.0, 100.0, a);
  const auto sb = gcs::net::make_churn_scenario(16, 8, 10.0, 100.0, b);
  ASSERT_EQ(sa.events.size(), sb.events.size());
  for (std::size_t i = 0; i < sa.events.size(); ++i) {
    EXPECT_EQ(sa.events[i].at, sb.events[i].at);
    EXPECT_EQ(sa.events[i].edge, sb.events[i].edge);
    EXPECT_EQ(sa.events[i].add, sb.events[i].add);
  }
}

// The flat edge set against a std::set oracle: random inserts and erases
// over a small node range (so edges are re-added, erased twice and
// collide in the table) and a large one (so the table grows), checking
// every answer, the size, and the visited contents.
TEST(EdgeSet, MatchesStdSetUnderRandomSchedules) {
  for (const std::size_t n : {6u, 40u, 5000u}) {
    gcs::util::Rng rng(97 + n);
    gcs::net::EdgeSet set;
    std::set<Edge> oracle;
    const auto draw = [&] {
      const auto a = static_cast<gcs::net::NodeId>(rng.uniform_int(0, n - 1));
      auto b = static_cast<gcs::net::NodeId>(rng.uniform_int(0, n - 2));
      if (b >= a) ++b;
      return Edge(a, b);
    };
    for (int step = 0; step < 20000; ++step) {
      const Edge e = draw();
      // Insert-heavy early, erase-heavy late: the set grows, then drains.
      const bool insert = rng.uniform(0.0, 1.0) < (step < 10000 ? 0.7 : 0.3);
      if (insert) {
        ASSERT_EQ(set.insert(e), oracle.insert(e).second) << "step " << step;
      } else {
        ASSERT_EQ(set.erase(e), oracle.erase(e) > 0) << "step " << step;
      }
      ASSERT_EQ(set.size(), oracle.size());
      const Edge probe = draw();
      ASSERT_EQ(set.contains(probe), oracle.count(probe) > 0) << "step " << step;
      if (step % 997 == 0 || step == 19999) {
        std::vector<Edge> seen;
        set.for_each([&seen](const Edge& x) { seen.push_back(x); });
        std::sort(seen.begin(), seen.end());
        ASSERT_EQ(seen, std::vector<Edge>(oracle.begin(), oracle.end()))
            << "n " << n << " step " << step;
      }
    }
  }
  const gcs::net::EdgeSet built({Edge(0, 1), Edge(1, 0), Edge(2, 3)});
  EXPECT_EQ(built.size(), 2u);
  EXPECT_TRUE(built.contains(Edge(1, 0)));
  EXPECT_FALSE(built.contains(Edge(0, 2)));
}

// SnapshotUnionSweep visits each window's union in place (the live set
// at the window's end plus the edges the window removed).  It must equal
// the union as defined -- the live snapshot entering the window (every
// event before its start, rebuilt with edges_at) plus every edge added
// inside it -- on random schedules whose event times sit on a grid
// that puts many events exactly on window boundaries, with redundant
// adds and removes, re-added edges, and same-instant add/remove pairs.
TEST(SnapshotUnionSweep, MatchesTheSnapshotUnionDefinition) {
  constexpr double kWindow = 1.0;
  constexpr double kHorizon = 12.0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    gcs::util::Rng rng(seed);
    const std::size_t n = 3 + rng.uniform_int(0, 5);
    std::vector<Edge> initial;
    for (gcs::net::NodeId u = 0; u + 1 < n; ++u) {
      if (rng.uniform(0.0, 1.0) < 0.6) initial.emplace_back(u, u + 1);
    }
    std::vector<gcs::net::TopologyEvent> events;
    const std::size_t count = rng.uniform_int(0, 60);
    for (std::size_t i = 0; i < count; ++i) {
      const auto a = static_cast<gcs::net::NodeId>(rng.uniform_int(0, n - 1));
      auto b = static_cast<gcs::net::NodeId>(rng.uniform_int(0, n - 2));
      if (b >= a) ++b;
      // Quarter-window grid: one event in four on a boundary.
      const double at = 0.25 * static_cast<double>(rng.uniform_int(0, 47));
      const bool add = rng.uniform(0.0, 1.0) < 0.5;
      events.push_back({at, Edge(a, b), add});
      if (rng.uniform(0.0, 1.0) < 0.1) {
        events.push_back({at, Edge(a, b), !add});  // same-instant partner
      }
    }
    const gcs::net::DynamicGraph graph(n, initial, events);
    gcs::net::SnapshotUnionSweep sweep(graph.initial_edges(), graph.events(),
                                       kWindow);
    std::uint64_t windows = 0;
    std::uint64_t disconnected = 0;
    while (sweep.next(kHorizon)) {
      const double start = sweep.window_start();
      const double end = sweep.window_end();
      const std::vector<Edge> entering =
          start == 0.0 ? graph.initial_edges()
                       : graph.edges_at(std::nextafter(start, 0.0));
      std::set<Edge> want(entering.begin(), entering.end());
      for (const gcs::net::TopologyEvent& ev : graph.events()) {
        if (ev.add && ev.at >= start && ev.at < end) want.insert(ev.edge);
      }
      std::set<Edge> got;
      sweep.for_each_union_edge([&got](const Edge& e) { got.insert(e); });
      ASSERT_EQ(got, want) << "seed " << seed << " window " << start;
      const bool connected = gcs::net::is_connected(
          n, std::vector<Edge>(want.begin(), want.end()));
      EXPECT_EQ(gcs::net::is_connected(n, [&sweep](const auto& fn) {
                  sweep.for_each_union_edge(fn);
                }),
                connected)
          << "seed " << seed << " window " << start;
      ++windows;
      if (!connected) ++disconnected;
    }
    EXPECT_EQ(windows, 12u);
    const gcs::net::ConnectivityAudit audit =
        gcs::net::audit_interval_connectivity(graph, kWindow, kHorizon);
    EXPECT_EQ(audit.windows_checked, windows) << "seed " << seed;
    EXPECT_EQ(audit.windows_disconnected, disconnected) << "seed " << seed;
  }
}

}  // namespace
