#include "net/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

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

constexpr double kTau = 6.283185307179586476925286766559;

// The shared code of the radius-graph generators (random-waypoint,
// Gauss-Markov, group).  Each keeps only its validation, its initial
// draws and its motion step; radio_scenario owns the rest.

// A point doing random waypoint in the unit square: it moves toward a
// uniform waypoint at a speed in [speed_min, speed_max] and, on
// arrival, draws the next waypoint and speed.  The mobility motes and the
// group reference points are these.
struct Waypoint {
  double x = 0.0, y = 0.0;    // position
  double wx = 0.0, wy = 0.0;  // waypoint
  double speed = 0.0;

  // Draws x, y, wx, wy and the speed, in that order.
  void draw(double speed_min, double speed_max, util::Rng& rng) {
    x = rng.uniform(0.0, 1.0);
    y = rng.uniform(0.0, 1.0);
    retarget(speed_min, speed_max, rng);
  }

  // Moves `dt` seconds toward the waypoint, stopping on it and drawing
  // the next when it is that close.
  void step(double dt, double speed_min, double speed_max, util::Rng& rng) {
    const double dx = wx - x;
    const double dy = wy - y;
    const double dist = std::hypot(dx, dy);
    const double stride = speed * dt;
    if (dist <= stride) {
      x = wx;
      y = wy;
      retarget(speed_min, speed_max, rng);
    } else {
      x += dx / dist * stride;
      y += dy / dist * stride;
    }
  }

 private:
  void retarget(double speed_min, double speed_max, util::Rng& rng) {
    wx = rng.uniform(0.0, 1.0);
    wy = rng.uniform(0.0, 1.0);
    speed = rng.uniform(speed_min, speed_max);
  }
};

// The radius graph over the positions `place(i)` returns as (x, y): first at
// t = 0, which with the ring backbone (when `backbone` is set) forms the
// initial edges, then after each `step()` at t = k * update_dt < horizon,
// diffed against the previous graph into topology events (ups, then
// downs, each in edge order).  Backbone edges never appear in an event.
template <class Place, class Step>
Scenario radio_scenario(const char* name, std::size_t n, double radius,
                        double update_dt, double horizon, bool backbone,
                        Place place, Step step) {
  Scenario s;
  s.name = name;
  s.n = n;
  std::set<Edge> ring;
  if (backbone) {
    const Topology topology = make_ring(n);
    ring.insert(topology.edges().begin(), topology.edges().end());
  }
  std::vector<double> xs(n), ys(n);
  const auto radio_edges = [&] {
    for (std::size_t i = 0; i < n; ++i) std::tie(xs[i], ys[i]) = place(i);
    std::set<Edge> edges;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (std::hypot(xs[i] - xs[j], ys[i] - ys[j]) <= radius) {
          edges.insert(Edge(static_cast<NodeId>(i), static_cast<NodeId>(j)));
        }
      }
    }
    return edges;
  };

  std::set<Edge> prev = radio_edges();
  std::set<Edge> initial = prev;
  initial.insert(ring.begin(), ring.end());
  s.initial_edges.assign(initial.begin(), initial.end());

  for (double t = update_dt; t < horizon; t += update_dt) {
    step();
    std::set<Edge> cur = radio_edges();
    for (const Edge& e : cur) {
      if (!prev.count(e) && !ring.count(e)) {
        s.events.push_back(TopologyEvent{t, e, true});
      }
    }
    for (const Edge& e : prev) {
      if (!cur.count(e) && !ring.count(e)) {
        s.events.push_back(TopologyEvent{t, e, false});
      }
    }
    prev = std::move(cur);
  }
  return s;
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
  std::vector<Waypoint> motes(n);
  for (Waypoint& m : motes) m.draw(speed_min, speed_max, rng);
  return radio_scenario(
      "mobility", n, radius, update_dt, horizon, backbone,
      [&](std::size_t i) { return std::pair(motes[i].x, motes[i].y); },
      [&] {
        for (Waypoint& m : motes) m.step(update_dt, speed_min, speed_max, rng);
      });
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

  const double noise = std::sqrt(1.0 - alpha * alpha);
  return radio_scenario(
      "gauss-markov", n, radius, update_dt, horizon, backbone,
      [&](std::size_t i) { return std::pair(motes[i].x, motes[i].y); },
      [&] {
        for (Mote& m : motes) {
          // AR(1) speed and heading; the noise gain keeps the stationary
          // variance at sigma^2 for every alpha.
          m.speed = alpha * m.speed + (1.0 - alpha) * mean_speed +
                    noise * rng.normal(0.0, speed_sigma);
          // Velocity clamping: one large Gaussian draw must not teleport
          // (or reverse) a node.
          m.speed = std::min(std::max(m.speed, 0.0), 2.0 * mean_speed);
          m.dir = alpha * m.dir + (1.0 - alpha) * m.mean_dir +
                  noise * rng.normal(0.0, dir_sigma);
          m.x += m.speed * std::cos(m.dir) * update_dt;
          m.y += m.speed * std::sin(m.dir) * update_dt;
          // Reflect off the unit square's walls, mirroring both the
          // current and the preferred heading so the process does not
          // fight the wall.
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
      });
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
  // Virtual reference points do plain random-waypoint.
  std::vector<Waypoint> refs(groups);
  for (Waypoint& r : refs) r.draw(speed_min, speed_max, rng);
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

  const double jitter_sigma = group_radius / 4.0;
  return radio_scenario(
      "group", n, radius, update_dt, horizon, backbone,
      [&](std::size_t i) {
        const Member& m = members[i];
        return std::pair(refs[m.group].x + m.ox, refs[m.group].y + m.oy);
      },
      [&] {
        for (Waypoint& r : refs) r.step(update_dt, speed_min, speed_max, rng);
        for (Member& m : members) {
          // Migration makes groups merge and split over time instead of
          // being a fixed partition.  Both the decision and the target
          // draw happen unconditionally, so sweeping switch_prob never
          // shifts the RNG stream the jitter and waypoint draws see.
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
      });
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
