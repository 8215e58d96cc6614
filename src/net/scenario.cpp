#include "net/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace gcs::net {

Scenario make_static_scenario(const Topology& topology) {
  Scenario s;
  s.name = "static";
  s.n = topology.n();
  s.initial_edges = topology.edges();
  return s;
}

namespace {

// Draws a random edge on n nodes that is in neither `backbone` (sorted)
// nor `live`.
Edge draw_fresh_edge(std::size_t n, const std::vector<Edge>& backbone,
                     const std::set<Edge>& live, util::Rng& rng) {
  for (int attempt = 0; attempt < 256; ++attempt) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a == b) continue;
    const Edge e(a, b);
    if (std::binary_search(backbone.begin(), backbone.end(), e) ||
        live.count(e)) {
      continue;
    }
    return e;
  }
  throw std::runtime_error("draw_fresh_edge: graph too dense to churn");
}

// Shared machinery of the mobility-style generators (random-waypoint,
// Gauss-Markov, group): a radius graph over planar positions, diffed into
// topology events every update, optionally unioned with a ring backbone.

std::set<Edge> ring_backbone(std::size_t n, bool enabled) {
  std::set<Edge> edges;
  if (enabled) {
    const Topology ring = make_ring(n);
    edges.insert(ring.edges().begin(), ring.edges().end());
  }
  return edges;
}

std::set<Edge> radius_edges(const std::vector<double>& x,
                            const std::vector<double>& y, double radius) {
  std::set<Edge> edges;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (std::hypot(x[i] - x[j], y[i] - y[j]) <= radius) {
        edges.insert(Edge(static_cast<NodeId>(i), static_cast<NodeId>(j)));
      }
    }
  }
  return edges;
}

void diff_radio_edges(const std::set<Edge>& prev, const std::set<Edge>& cur,
                      const std::set<Edge>& backbone, double t,
                      std::vector<TopologyEvent>& events) {
  for (const Edge& e : cur) {
    if (!prev.count(e) && !backbone.count(e)) {
      events.push_back(TopologyEvent{t, e, true});
    }
  }
  for (const Edge& e : prev) {
    if (!cur.count(e) && !backbone.count(e)) {
      events.push_back(TopologyEvent{t, e, false});
    }
  }
}

std::vector<Edge> union_with_backbone(const std::set<Edge>& radio,
                                      const std::set<Edge>& backbone) {
  std::set<Edge> initial = radio;
  initial.insert(backbone.begin(), backbone.end());
  return std::vector<Edge>(initial.begin(), initial.end());
}

}  // namespace

Scenario make_churn_scenario(std::size_t n, std::size_t volatile_edges,
                             double lifetime, double horizon, util::Rng& rng) {
  if (n < 4) throw std::invalid_argument("make_churn_scenario: need n >= 4");
  if (lifetime <= 0.0 || horizon <= 0.0) {
    throw std::invalid_argument("make_churn_scenario: bad times");
  }
  Scenario s;
  s.name = "churn";
  s.n = n;
  const Topology ring = make_ring(n);
  s.initial_edges = ring.edges();
  // stable_sort, not sort: the ring lists its wrap-around edge (0, n-1)
  // last although it sorts second, which steers introsort's
  // median-of-three into near-minimum pivots until it falls back to
  // heapsort (~13 ms at n = 10^5 against ~2 ms for the merge passes).
  std::vector<Edge> backbone = s.initial_edges;
  std::stable_sort(backbone.begin(), backbone.end());

  // Each slot alternates between "about to be born" and "alive until its
  // death time".  Processing the slots chronologically keeps `live`
  // time-consistent, so no two slots ever host the same edge at once.
  struct SlotState {
    double t;  // birth time if !alive, death time if alive
    std::size_t slot;
    bool alive;
    Edge edge;
  };
  const auto later = [](const SlotState& a, const SlotState& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.slot > b.slot;
  };
  std::vector<SlotState> heap;
  for (std::size_t slot = 0; slot < volatile_edges; ++slot) {
    // Stagger slot births across the first lifetime so deaths don't align.
    heap.push_back(SlotState{rng.uniform(0.0, lifetime), slot, false, Edge{}});
  }
  std::make_heap(heap.begin(), heap.end(), later);

  std::set<Edge> live;
  while (!heap.empty() && heap.front().t < horizon) {
    std::pop_heap(heap.begin(), heap.end(), later);
    SlotState st = heap.back();
    heap.pop_back();
    if (st.alive) {
      s.events.push_back(TopologyEvent{st.t, st.edge, false});
      live.erase(st.edge);
      st.alive = false;  // reborn immediately with a fresh edge
    } else {
      st.edge = draw_fresh_edge(n, backbone, live, rng);
      live.insert(st.edge);
      s.events.push_back(TopologyEvent{st.t, st.edge, true});
      st.alive = true;
      st.t += lifetime * rng.uniform(0.75, 1.25);
    }
    heap.push_back(st);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  return s;
}

Scenario make_switching_star_scenario(std::size_t n, double period,
                                      double overlap, double horizon) {
  if (n < 3) {
    throw std::invalid_argument("make_switching_star_scenario: need n >= 3");
  }
  if (overlap <= 0.0 || overlap >= period) {
    throw std::invalid_argument(
        "make_switching_star_scenario: need 0 < overlap < period");
  }
  Scenario s;
  s.name = "switching-star";
  s.n = n;
  s.initial_edges = make_star(n, 0).edges();

  std::set<Edge> live(s.initial_edges.begin(), s.initial_edges.end());
  NodeId old_hub = 0;
  std::size_t k = 1;
  for (double t = period; t < horizon; t += period, ++k) {
    const auto new_hub = static_cast<NodeId>(k % n);
    // Bring up the incoming star first...
    for (NodeId x = 0; x < static_cast<NodeId>(n); ++x) {
      if (x == new_hub) continue;
      const Edge e(new_hub, x);
      if (live.insert(e).second) {
        s.events.push_back(TopologyEvent{t, e, true});
      }
    }
    // ...then tear down the outgoing spokes `overlap` later, keeping the
    // (old_hub, new_hub) spoke, which now belongs to the incoming star.
    // Horizon rule: a teardown that would land at or past the horizon is
    // dropped (not clamped), so the final rotation's spokes simply stay
    // live through the end of the run -- the scenario never schedules an
    // event the simulation cannot reach.
    for (NodeId x = 0; x < static_cast<NodeId>(n); ++x) {
      if (x == old_hub || x == new_hub) continue;
      const Edge e(old_hub, x);
      if (t + overlap >= horizon) continue;
      if (live.erase(e) > 0) {
        s.events.push_back(TopologyEvent{t + overlap, e, false});
      }
    }
    old_hub = new_hub;
  }
  return s;
}

Scenario make_mobility_scenario(std::size_t n, double radius, double speed_min,
                                double speed_max, double update_dt,
                                double horizon, bool backbone, util::Rng& rng) {
  if (n < 2) throw std::invalid_argument("make_mobility_scenario: need n >= 2");
  if (radius <= 0.0 || update_dt <= 0.0 || speed_min < 0.0 ||
      speed_max < speed_min) {
    throw std::invalid_argument("make_mobility_scenario: bad parameters");
  }
  Scenario s;
  s.name = "mobility";
  s.n = n;
  const std::set<Edge> backbone_edges = ring_backbone(n, backbone);

  struct Mote {
    double x, y;        // position
    double wx, wy;      // waypoint
    double speed;
  };
  std::vector<Mote> motes(n);
  for (Mote& m : motes) {
    m.x = rng.uniform(0.0, 1.0);
    m.y = rng.uniform(0.0, 1.0);
    m.wx = rng.uniform(0.0, 1.0);
    m.wy = rng.uniform(0.0, 1.0);
    m.speed = rng.uniform(speed_min, speed_max);
  }

  std::vector<double> xs(n), ys(n);
  const auto positions = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = motes[i].x;
      ys[i] = motes[i].y;
    }
  };

  positions();
  std::set<Edge> prev = radius_edges(xs, ys, radius);
  s.initial_edges = union_with_backbone(prev, backbone_edges);

  for (double t = update_dt; t < horizon; t += update_dt) {
    for (Mote& m : motes) {
      double dx = m.wx - m.x;
      double dy = m.wy - m.y;
      const double dist = std::hypot(dx, dy);
      const double step = m.speed * update_dt;
      if (dist <= step) {
        m.x = m.wx;
        m.y = m.wy;
        m.wx = rng.uniform(0.0, 1.0);
        m.wy = rng.uniform(0.0, 1.0);
        m.speed = rng.uniform(speed_min, speed_max);
      } else {
        m.x += dx / dist * step;
        m.y += dy / dist * step;
      }
    }
    positions();
    const std::set<Edge> cur = radius_edges(xs, ys, radius);
    diff_radio_edges(prev, cur, backbone_edges, t, s.events);
    prev = cur;
  }
  return s;
}

Scenario make_gauss_markov_scenario(std::size_t n, double radius,
                                    double mean_speed, double alpha,
                                    double speed_sigma, double dir_sigma,
                                    double update_dt, double horizon,
                                    bool backbone, util::Rng& rng) {
  if (n < 2) {
    throw std::invalid_argument("make_gauss_markov_scenario: need n >= 2");
  }
  if (radius <= 0.0 || update_dt <= 0.0 || mean_speed <= 0.0 ||
      speed_sigma < 0.0 || dir_sigma < 0.0) {
    throw std::invalid_argument("make_gauss_markov_scenario: bad parameters");
  }
  if (alpha < 0.0 || alpha >= 1.0) {
    throw std::invalid_argument(
        "make_gauss_markov_scenario: need alpha in [0, 1)");
  }
  Scenario s;
  s.name = "gauss-markov";
  s.n = n;
  const std::set<Edge> backbone_edges = ring_backbone(n, backbone);

  constexpr double kTau = 6.283185307179586476925286766559;
  struct Mote {
    double x, y;
    double speed;
    double dir;
    double mean_dir;  // per-node preferred heading, mirrored on reflection
  };
  std::vector<Mote> motes(n);
  for (Mote& m : motes) {
    m.x = rng.uniform(0.0, 1.0);
    m.y = rng.uniform(0.0, 1.0);
    m.speed = mean_speed;
    m.mean_dir = rng.uniform(0.0, kTau);
    m.dir = m.mean_dir;
  }

  std::vector<double> xs(n), ys(n);
  const auto positions = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = motes[i].x;
      ys[i] = motes[i].y;
    }
  };

  positions();
  std::set<Edge> prev = radius_edges(xs, ys, radius);
  s.initial_edges = union_with_backbone(prev, backbone_edges);

  const double noise = std::sqrt(1.0 - alpha * alpha);
  for (double t = update_dt; t < horizon; t += update_dt) {
    for (Mote& m : motes) {
      // AR(1) speed and heading; the noise gain keeps the stationary
      // variance at sigma^2 for every alpha.
      m.speed = alpha * m.speed + (1.0 - alpha) * mean_speed +
                noise * rng.normal(0.0, speed_sigma);
      // Velocity clamping: one large Gaussian draw must not teleport (or
      // reverse) a node.
      m.speed = std::min(std::max(m.speed, 0.0), 2.0 * mean_speed);
      m.dir = alpha * m.dir + (1.0 - alpha) * m.mean_dir +
              noise * rng.normal(0.0, dir_sigma);
      m.x += m.speed * std::cos(m.dir) * update_dt;
      m.y += m.speed * std::sin(m.dir) * update_dt;
      // Reflect off the unit square's walls, mirroring both the current
      // and the preferred heading so the process does not fight the wall.
      while (m.x < 0.0 || m.x > 1.0) {
        m.x = m.x < 0.0 ? -m.x : 2.0 - m.x;
        m.dir = kTau / 2.0 - m.dir;
        m.mean_dir = kTau / 2.0 - m.mean_dir;
      }
      while (m.y < 0.0 || m.y > 1.0) {
        m.y = m.y < 0.0 ? -m.y : 2.0 - m.y;
        m.dir = -m.dir;
        m.mean_dir = -m.mean_dir;
      }
    }
    positions();
    const std::set<Edge> cur = radius_edges(xs, ys, radius);
    diff_radio_edges(prev, cur, backbone_edges, t, s.events);
    prev = cur;
  }
  return s;
}

Scenario make_group_scenario(std::size_t n, std::size_t groups, double radius,
                             double group_radius, double speed_min,
                             double speed_max, double update_dt,
                             double switch_prob, double horizon, bool backbone,
                             util::Rng& rng) {
  if (n < 2) throw std::invalid_argument("make_group_scenario: need n >= 2");
  if (groups == 0 || groups > n) {
    throw std::invalid_argument(
        "make_group_scenario: need 1 <= groups <= n");
  }
  if (radius <= 0.0 || group_radius < 0.0 || update_dt <= 0.0 ||
      speed_min < 0.0 || speed_max < speed_min) {
    throw std::invalid_argument("make_group_scenario: bad parameters");
  }
  if (switch_prob < 0.0 || switch_prob > 1.0) {
    throw std::invalid_argument(
        "make_group_scenario: need switch_prob in [0, 1]");
  }
  Scenario s;
  s.name = "group";
  s.n = n;
  const std::set<Edge> backbone_edges = ring_backbone(n, backbone);

  constexpr double kTau = 6.283185307179586476925286766559;
  // Virtual reference points do plain random-waypoint.
  struct Ref {
    double x, y;
    double wx, wy;
    double speed;
  };
  std::vector<Ref> refs(groups);
  for (Ref& r : refs) {
    r.x = rng.uniform(0.0, 1.0);
    r.y = rng.uniform(0.0, 1.0);
    r.wx = rng.uniform(0.0, 1.0);
    r.wy = rng.uniform(0.0, 1.0);
    r.speed = rng.uniform(speed_min, speed_max);
  }
  // Members carry a jitter offset random-walking inside the group disc.
  struct Member {
    std::size_t group;
    double ox, oy;
  };
  std::vector<Member> members(n);
  for (std::size_t i = 0; i < n; ++i) {
    members[i].group = i % groups;
    // Uniform over the disc (sqrt radial density).
    const double r = group_radius * std::sqrt(rng.uniform(0.0, 1.0));
    const double theta = rng.uniform(0.0, kTau);
    members[i].ox = r * std::cos(theta);
    members[i].oy = r * std::sin(theta);
  }

  std::vector<double> xs(n), ys(n);
  const auto positions = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = refs[members[i].group].x + members[i].ox;
      ys[i] = refs[members[i].group].y + members[i].oy;
    }
  };

  positions();
  std::set<Edge> prev = radius_edges(xs, ys, radius);
  s.initial_edges = union_with_backbone(prev, backbone_edges);

  const double jitter_sigma = group_radius / 4.0;
  for (double t = update_dt; t < horizon; t += update_dt) {
    for (Ref& r : refs) {
      double dx = r.wx - r.x;
      double dy = r.wy - r.y;
      const double dist = std::hypot(dx, dy);
      const double step = r.speed * update_dt;
      if (dist <= step) {
        r.x = r.wx;
        r.y = r.wy;
        r.wx = rng.uniform(0.0, 1.0);
        r.wy = rng.uniform(0.0, 1.0);
        r.speed = rng.uniform(speed_min, speed_max);
      } else {
        r.x += dx / dist * step;
        r.y += dy / dist * step;
      }
    }
    for (Member& m : members) {
      // Migration makes groups merge and split over time instead of being
      // a fixed partition.  Both the decision and the target draw happen
      // unconditionally, so sweeping switch_prob never shifts the RNG
      // stream the jitter and waypoint draws see.
      const bool migrate = rng.uniform(0.0, 1.0) < switch_prob;
      const std::size_t target =
          static_cast<std::size_t>(rng.uniform_int(0, groups - 1));
      if (migrate) m.group = target;
      if (group_radius > 0.0) {
        m.ox += rng.normal(0.0, jitter_sigma);
        m.oy += rng.normal(0.0, jitter_sigma);
        const double d = std::hypot(m.ox, m.oy);
        if (d > group_radius) {
          m.ox *= group_radius / d;
          m.oy *= group_radius / d;
        }
      }
    }
    positions();
    const std::set<Edge> cur = radius_edges(xs, ys, radius);
    diff_radio_edges(prev, cur, backbone_edges, t, s.events);
    prev = cur;
  }
  return s;
}

std::size_t enforce_interval_connectivity(Scenario& scenario, double window,
                                          double horizon) {
  if (window <= 0.0 || horizon <= 0.0) {
    throw std::invalid_argument(
        "enforce_interval_connectivity: bad window/horizon");
  }
  if (scenario.n < 2) {
    throw std::invalid_argument("enforce_interval_connectivity: need n >= 2");
  }
  const std::size_t n = scenario.n;

  // Replay the base schedule in the same order DynamicGraph will, using
  // the same window sweep the audit uses -- the "an enforced scenario
  // always audits clean" guarantee rests on both sides sharing one
  // implementation of the window/union boundary semantics.
  std::vector<TopologyEvent> events = scenario.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const TopologyEvent& a, const TopologyEvent& b) {
                     return a.at < b.at;
                   });
  SnapshotUnionSweep sweep(scenario.initial_edges, std::move(events), window);

  std::vector<TopologyEvent> added;
  std::size_t patched = 0;
  while (sweep.next(horizon)) {
    const std::size_t k = sweep.window_index();
    const double start = sweep.window_start();
    const double end = sweep.window_end();
    // A connector always spans two different components of the union, so
    // it can never duplicate an edge that is live at any point inside its
    // window (such an edge's endpoints share a component).  The one
    // remaining collision is a base bring-up at exactly the teardown
    // instant `end`: appended events sort after base events at equal
    // times, so the teardown would cancel that bring-up.  Such edges are
    // skipped as candidates.
    const std::set<Edge> blocked = sweep.adds_at(end);

    // The union's components, labelled by their smallest member -- the
    // same labels whatever order the sweep visits the union in.
    Components components(n);
    sweep.for_each_union_edge(
        [&components](const Edge& e) { components.add(e); });

    // Components, each as a sorted node list, ordered by smallest member.
    std::vector<std::vector<NodeId>> comps;
    {
      std::vector<std::size_t> comp_of_label(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        const NodeId label = components.label(static_cast<NodeId>(i));
        if (comp_of_label[label] == n) {
          comp_of_label[label] = comps.size();
          comps.emplace_back();
        }
        comps[comp_of_label[label]].push_back(static_cast<NodeId>(i));
      }
    }
    if (comps.size() <= 1) continue;

    // Chain adjacent components with one connector each; endpoints rotate
    // with the window index so no edge is pinned up forever, skipping any
    // candidate that collides with a base edge.
    for (std::size_t c = 0; c + 1 < comps.size(); ++c) {
      const std::vector<NodeId>& a = comps[c];
      const std::vector<NodeId>& b = comps[c + 1];
      bool found = false;
      for (std::size_t i = 0; i < a.size() && !found; ++i) {
        for (std::size_t j = 0; j < b.size() && !found; ++j) {
          const Edge e(a[(k + i) % a.size()], b[(k + j) % b.size()]);
          if (blocked.count(e)) continue;
          added.push_back(TopologyEvent{start, e, true});
          // Horizon rule: a teardown landing at or past the horizon is
          // dropped, so the final window's connectors stay live.
          if (end < horizon) added.push_back(TopologyEvent{end, e, false});
          found = true;
        }
      }
      if (!found) {
        throw std::runtime_error(
            "enforce_interval_connectivity: no collision-free connector edge "
            "exists between two components");
      }
    }
    ++patched;
  }
  scenario.events.insert(scenario.events.end(), added.begin(), added.end());
  return patched;
}

}  // namespace gcs::net
