// The scenario subsystem beyond what the determinism/property sweeps
// cover: every random generator's schedule pinned to a digest, the two
// new mobility generators' shape and reproducibility, the
// (T+D)-interval-connectivity audit, and the backbone-free connectivity
// enforcer (rotating connector edges, base-edge disjointness, horizon
// rule, and the audit-clean guarantee).
#include "net/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>
#include <vector>

#include "net/dynamic_graph.hpp"
#include "util/rng.hpp"

namespace {

namespace net = gcs::net;

std::vector<net::TopologyEvent> sorted_events(net::Scenario s) {
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const net::TopologyEvent& a, const net::TopologyEvent& b) {
                     return a.at < b.at;
                   });
  return s.events;
}

bool same_schedule(const net::Scenario& a, const net::Scenario& b) {
  if (a.initial_edges != b.initial_edges) return false;
  const auto ea = sorted_events(a);
  const auto eb = sorted_events(b);
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].at != eb[i].at || ea[i].edge != eb[i].edge ||
        ea[i].add != eb[i].add) {
      return false;
    }
  }
  return true;
}

// FNV-1a over a schedule in emitted order: n, the initial edges, then
// each event's time bits, endpoints and direction, and last the
// generator's next draw, so a draw added, dropped or reordered anywhere
// moves the digest even where the schedule happens to survive it.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t schedule_digest(const net::Scenario& s, gcs::util::Rng& rng) {
  Fnv f;
  f.add(s.n);
  f.add(s.initial_edges.size());
  for (const net::Edge& e : s.initial_edges) {
    f.add(e.u);
    f.add(e.v);
  }
  f.add(s.events.size());
  for (const net::TopologyEvent& ev : s.events) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &ev.at, sizeof bits);
    f.add(bits);
    f.add(ev.edge.u);
    f.add(ev.edge.v);
    f.add(ev.add ? 1 : 0);
  }
  f.add(rng.uniform_int(0, ~std::uint64_t{0}));
  return f.h;
}

TEST(ScenarioSchedules, PinnedDigests) {
  // Each generator at fixed (n, seed, knobs), both backbone settings for
  // the radius-graph ones and both jitter branches for group.  A change
  // that moves a digest changes every trajectory of that generator.
  using Make = std::function<net::Scenario(gcs::util::Rng&)>;
  struct Case {
    const char* name;
    std::uint64_t seed;
    Make make;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"mobility", 21,
       [](gcs::util::Rng& r) {
         return net::make_mobility_scenario(14, 0.3, 0.02, 0.08, 0.5, 40.0,
                                            true, r);
       },
       0x64f7f9ed784a8746ULL},
      {"mobility-no-backbone", 22,
       [](gcs::util::Rng& r) {
         return net::make_mobility_scenario(14, 0.3, 0.0, 0.1, 0.5, 40.0,
                                            false, r);
       },
       0x77ce8750d96ad2b8ULL},
      {"gauss-markov", 23,
       [](gcs::util::Rng& r) {
         return net::make_gauss_markov_scenario(14, 0.3, 0.05, 0.75, 0.02, 0.4,
                                                0.5, 40.0, true, r);
       },
       0x2c606d98ae93bcedULL},
      {"gauss-markov-no-backbone", 24,
       [](gcs::util::Rng& r) {
         return net::make_gauss_markov_scenario(14, 0.3, 0.2, 0.0, 0.1, 1.0,
                                                0.5, 40.0, false, r);
       },
       0x0cee72e1eabf1433ULL},
      {"group", 25,
       [](gcs::util::Rng& r) {
         return net::make_group_scenario(14, 3, 0.25, 0.08, 0.02, 0.06, 0.5,
                                         0.05, 40.0, true, r);
       },
       0xb2568798b0f872ceULL},
      {"group-no-backbone-no-jitter", 26,
       [](gcs::util::Rng& r) {
         return net::make_group_scenario(14, 4, 0.25, 0.0, 0.0, 0.1, 0.5, 0.2,
                                         40.0, false, r);
       },
       0xfb998b5f54859ffbULL},
      {"churn", 27,
       [](gcs::util::Rng& r) {
         return net::make_churn_scenario(16, 6, 3.0, 40.0, r);
       },
       0x7bbfc21be354ec21ULL},
      {"switching-star", 28,
       [](gcs::util::Rng&) {
         return net::make_switching_star_scenario(7, 2.0, 0.5, 17.0);
       },
       0x49f8bf1b44d6c3fdULL},
  };
  for (const Case& c : cases) {
    gcs::util::Rng rng(c.seed);
    const net::Scenario s = c.make(rng);
    EXPECT_FALSE(s.events.empty()) << c.name;
    const std::uint64_t digest = schedule_digest(s, rng);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, c.digest) << c.name << " digest " << hex;
  }
}

TEST(GaussMarkovScenario, ShapeDeterminismAndHorizon) {
  const double horizon = 30.0;
  gcs::util::Rng rng_a(11);
  const net::Scenario a = net::make_gauss_markov_scenario(
      10, /*radius=*/0.35, /*mean_speed=*/0.04, /*alpha=*/0.8,
      /*speed_sigma=*/0.01, /*dir_sigma=*/0.5, /*update_dt=*/1.0, horizon,
      /*backbone=*/true, rng_a);
  EXPECT_EQ(a.name, "gauss-markov");
  EXPECT_EQ(a.n, 10u);
  EXPECT_GT(a.events.size(), 0u);  // motion actually changes the graph
  for (const net::TopologyEvent& ev : a.events) {
    EXPECT_LT(ev.at, horizon);
  }
  // The ring backbone is in the initial edges and never torn down.
  const std::set<net::Edge> initial(a.initial_edges.begin(),
                                    a.initial_edges.end());
  for (std::size_t i = 0; i < 10; ++i) {
    const net::Edge ring_edge(static_cast<net::NodeId>(i),
                              static_cast<net::NodeId>((i + 1) % 10));
    EXPECT_TRUE(initial.count(ring_edge));
    for (const net::TopologyEvent& ev : a.events) {
      EXPECT_FALSE(ev.edge == ring_edge);
    }
  }
  // Same seed, same adversary, bit for bit.
  gcs::util::Rng rng_b(11);
  const net::Scenario b = net::make_gauss_markov_scenario(
      10, 0.35, 0.04, 0.8, 0.01, 0.5, 1.0, horizon, true, rng_b);
  EXPECT_TRUE(same_schedule(a, b));

  gcs::util::Rng rng(1);
  EXPECT_THROW(net::make_gauss_markov_scenario(1, 0.35, 0.04, 0.8, 0.01, 0.5,
                                               1.0, horizon, true, rng),
               std::invalid_argument);
  EXPECT_THROW(net::make_gauss_markov_scenario(10, 0.35, 0.04, /*alpha=*/1.0,
                                               0.01, 0.5, 1.0, horizon, true,
                                               rng),
               std::invalid_argument);
  EXPECT_THROW(net::make_gauss_markov_scenario(10, 0.35, /*mean_speed=*/0.0,
                                               0.8, 0.01, 0.5, 1.0, horizon,
                                               true, rng),
               std::invalid_argument);
}

TEST(GroupScenario, ShapeDeterminismAndHorizon) {
  const double horizon = 30.0;
  gcs::util::Rng rng_a(13);
  const net::Scenario a = net::make_group_scenario(
      12, /*groups=*/3, /*radius=*/0.3, /*group_radius=*/0.12,
      /*speed_min=*/0.02, /*speed_max=*/0.06, /*update_dt=*/1.0,
      /*switch_prob=*/0.05, horizon, /*backbone=*/true, rng_a);
  EXPECT_EQ(a.name, "group");
  EXPECT_EQ(a.n, 12u);
  EXPECT_GT(a.events.size(), 0u);
  for (const net::TopologyEvent& ev : a.events) {
    EXPECT_LT(ev.at, horizon);
  }
  gcs::util::Rng rng_b(13);
  const net::Scenario b = net::make_group_scenario(
      12, 3, 0.3, 0.12, 0.02, 0.06, 1.0, 0.05, horizon, true, rng_b);
  EXPECT_TRUE(same_schedule(a, b));

  gcs::util::Rng rng(1);
  EXPECT_THROW(net::make_group_scenario(4, /*groups=*/5, 0.3, 0.12, 0.02,
                                        0.06, 1.0, 0.05, horizon, true, rng),
               std::invalid_argument);
  EXPECT_THROW(net::make_group_scenario(4, /*groups=*/0, 0.3, 0.12, 0.02,
                                        0.06, 1.0, 0.05, horizon, true, rng),
               std::invalid_argument);
  EXPECT_THROW(net::make_group_scenario(4, 2, 0.3, 0.12, 0.02, 0.06, 1.0,
                                        /*switch_prob=*/1.5, horizon, true,
                                        rng),
               std::invalid_argument);
}

TEST(IntervalConnectivity, AuditCountsDisconnectedWindows) {
  // n=3, edge (0,1) always up; (1,2) comes up at 2.5 and goes down at
  // exactly 4.0.  With window=2, horizon=6:
  //   [0,2): union {(0,1)}            -> node 2 isolated, disconnected
  //   [2,4): union + (1,2)            -> connected
  //   [4,6): (1,2) live entering the window (its teardown is AT the
  //          boundary, which counts), so still connected.
  const net::DynamicGraph graph(
      3, {net::Edge(0, 1)},
      {net::TopologyEvent{2.5, net::Edge(1, 2), true},
       net::TopologyEvent{4.0, net::Edge(1, 2), false}});
  const net::ConnectivityAudit audit =
      net::audit_interval_connectivity(graph, /*window=*/2.0, /*horizon=*/6.0);
  EXPECT_EQ(audit.windows_checked, 3u);
  EXPECT_EQ(audit.windows_disconnected, 1u);

  // Partial trailing windows are not checked.
  const net::ConnectivityAudit partial =
      net::audit_interval_connectivity(graph, 2.0, /*horizon=*/5.9);
  EXPECT_EQ(partial.windows_checked, 2u);

  EXPECT_THROW(net::audit_interval_connectivity(graph, 0.0, 6.0),
               std::invalid_argument);
}

TEST(IntervalConnectivity, EnforcerMakesBackboneFreeMobilityAuditClean) {
  const double horizon = 40.0;
  const double window = 3.5;  // a typical T + D
  gcs::util::Rng rng(17);
  // Small radius, no backbone: plenty of disconnected windows.
  net::Scenario s = net::make_mobility_scenario(
      12, /*radius=*/0.18, /*speed_min=*/0.01, /*speed_max=*/0.05,
      /*update_dt=*/1.0, horizon, /*backbone=*/false, rng);
  const net::ConnectivityAudit before =
      net::audit_interval_connectivity(s.to_dynamic_graph(), window, horizon);
  ASSERT_GT(before.windows_disconnected, 0u) << "workload not adversarial "
                                                "enough to exercise the "
                                                "enforcer";

  const std::size_t base_event_count = s.events.size();
  const std::size_t patched =
      net::enforce_interval_connectivity(s, window, horizon);
  EXPECT_EQ(patched, before.windows_disconnected);

  // The merged schedule (base + connectors, replayed exactly as the
  // simulator will) must audit clean, with every event inside the horizon.
  const net::ConnectivityAudit after =
      net::audit_interval_connectivity(s.to_dynamic_graph(), window, horizon);
  EXPECT_EQ(after.windows_disconnected, 0u);
  EXPECT_EQ(after.windows_checked, before.windows_checked);
  ASSERT_GT(s.events.size(), base_event_count);
  std::size_t teardowns = 0;
  for (std::size_t i = base_event_count; i < s.events.size(); ++i) {
    EXPECT_LT(s.events[i].at, horizon);
    if (!s.events[i].add) ++teardowns;
  }
  // Rotation: connectors are windowed, not pinned -- (almost) every
  // bring-up has a matching teardown, so no connector stays up forever.
  EXPECT_GT(teardowns, 0u);

  // Enforcing an already-enforced scenario finds nothing to patch.
  EXPECT_EQ(net::enforce_interval_connectivity(s, window, horizon), 0u);
}

TEST(IntervalConnectivity, EnforcerThrowsWhenNoCollisionFreeConnectorExists) {
  // n=2 and the only possible edge gets its base bring-up at exactly the
  // first window's end: a connector teardown there would cancel it, so
  // the enforcer cannot patch window 0 and must throw, not silently
  // weaken the guarantee.
  net::Scenario s;
  s.n = 2;
  s.name = "adversarial";
  s.events = {net::TopologyEvent{2.0, net::Edge(0, 1), true}};
  EXPECT_THROW(net::enforce_interval_connectivity(s, /*window=*/2.0,
                                                  /*horizon=*/6.0),
               std::runtime_error);
  EXPECT_THROW(net::enforce_interval_connectivity(s, -1.0, 6.0),
               std::invalid_argument);

  // Move the bring-up off the boundary and the same schedule is
  // patchable: the connector replays the edge early, the base bring-up
  // becomes a redundant add, and the full schedule audits clean.
  net::Scenario ok = s;
  ok.events[0].at = 2.5;
  EXPECT_GT(net::enforce_interval_connectivity(ok, 2.0, 6.0), 0u);
  EXPECT_EQ(net::audit_interval_connectivity(ok.to_dynamic_graph(), 2.0, 6.0)
                .windows_disconnected,
            0u);
}

TEST(IntervalConnectivity, EnforcedTraceStyleScheduleKeepsEventOrdering) {
  // Connectors land as (up at window start, down at window end) pairs;
  // DynamicGraph's stable sort must keep a window-k teardown ahead of a
  // window-k+1 bring-up at the same instant, so replay at the boundary
  // still sees a connected union in both windows.
  net::Scenario s;
  s.n = 4;
  s.name = "islands";
  s.initial_edges = {net::Edge(0, 1), net::Edge(2, 3)};  // two components
  const std::size_t patched =
      net::enforce_interval_connectivity(s, /*window=*/2.0, /*horizon=*/8.0);
  EXPECT_EQ(patched, 4u);
  const net::DynamicGraph graph = s.to_dynamic_graph();
  EXPECT_EQ(
      net::audit_interval_connectivity(graph, 2.0, 8.0).windows_disconnected,
      0u);
  // The graph is connected at every probe instant, including boundaries.
  for (const double t : {0.0, 1.0, 2.0, 3.9999, 4.0, 6.0, 7.5}) {
    EXPECT_TRUE(graph.connected_at(t)) << "t=" << t;
  }
}

}  // namespace
