#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <set>

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
  gcs::util::Rng rng(3);
  const auto tree = gcs::net::make_random_tree(16, rng);
  EXPECT_EQ(tree.edges().size(), 15u);
  EXPECT_TRUE(tree.is_connected());
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

}  // namespace
