// gcs::net -- the dynamic-network model (paper Sec. 3).
//
// The adversary may insert and remove edges arbitrarily over time; the
// guarantees of the algorithm layer only need the communication graph to
// stay connected over (T + D)-length windows.  A DynamicGraph is the full
// schedule of one adversary: an initial edge set plus a time-sorted list
// of TopologyEvents.  NetworkSimulation drives the events through the
// event engine; the replay helpers here (edges_at / connected_at) exist
// for tests and offline analysis, and audit_interval_connectivity checks
// the paper's standing assumption over a whole schedule.
//
// Memory: a replay holds the live edge set in an EdgeSet, one 8-byte key
// per slot of an open-addressing table (no node per edge), and a window
// audit visits each window's snapshot union in place -- the live set
// plus the few edges the window removed -- instead of copying it, so the
// audit of a 10^5-node ring costs ~2 MB, not two red-black trees.
#ifndef GCS_NET_DYNAMIC_GRAPH_HPP
#define GCS_NET_DYNAMIC_GRAPH_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace gcs::net {

struct TopologyEvent {
  sim::Time at = 0.0;
  Edge edge;
  bool add = true;  // true: edge appears; false: edge disappears
};

// A set of edges in one open-addressing table: each slot is the edge's
// 8-byte key (u << 32 | v), probed linearly, with at most half the slots
// full, and erase shifts the probe run back instead of leaving
// tombstones.  Iteration order is the table's, not edge order; callers
// that need order sort what they collect (DynamicGraph::edges_at).
class EdgeSet {
 public:
  EdgeSet() = default;
  explicit EdgeSet(const std::vector<Edge>& edges);

  // True iff e was absent (insert) or present (erase).
  bool insert(const Edge& e);
  bool erase(const Edge& e);
  bool contains(const Edge& e) const;
  std::size_t size() const { return size_; }
  // Calls fn(const Edge&) once per edge, in table order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint64_t k : slots_) {
      if (k != kEmpty) {
        fn(Edge(static_cast<NodeId>(k >> 32), static_cast<NodeId>(k)));
      }
    }
  }

 private:
  // No edge has u == v, so this key never names one.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static std::uint64_t key(const Edge& e) {
    return (std::uint64_t{e.u} << 32) | e.v;
  }
  // The slot holding `k`, or the empty slot ending its probe run.
  std::size_t find(std::uint64_t k) const;
  void rehash(std::size_t capacity);

  std::vector<std::uint64_t> slots_;  // power-of-two size, or empty
  std::size_t size_ = 0;
};

// The incremental delta-application primitive every topology consumer
// shares: a forward-only cursor over a stably time-sorted event list
// that maintains the live edge set by applying events as deltas (set
// semantics -- redundant adds/removes are no-ops, matching the
// simulator).  SnapshotUnionSweep, edges_at(), and offline tools all
// advance one of these instead of replaying the schedule from scratch,
// so a query costs the deltas since the last query, not O(events).
// The event list is NOT owned and must outlive the cursor.
class EdgeDeltaCursor {
 public:
  // Called after each applied delta; `effective` is false when the
  // delta was redundant (adding a live edge / removing a dead one).
  using DeltaFn = std::function<void(const TopologyEvent& ev, bool effective)>;

  EdgeDeltaCursor(const std::vector<Edge>& initial_edges,
                  const std::vector<TopologyEvent>* events);

  // Applies every not-yet-applied event with `at` strictly before `t`
  // (window semantics: a boundary event belongs to the later window).
  void advance_before(double t, const DeltaFn& fn = nullptr);
  // Applies every not-yet-applied event with `at <= t` (snapshot
  // semantics: edges_at includes events at exactly t).
  void advance_through(double t, const DeltaFn& fn = nullptr);

  const EdgeSet& live() const { return live_; }
  const std::vector<TopologyEvent>& events() const { return *events_; }
  // Index of the first unapplied event.
  std::size_t index() const { return index_; }

 private:
  void apply_until(double t, bool inclusive, const DeltaFn& fn);

  const std::vector<TopologyEvent>* events_;
  EdgeSet live_;
  std::size_t index_ = 0;
};

class DynamicGraph {
 public:
  // Events are stably sorted by time on construction, preserving the
  // relative order of same-timestamp events.
  DynamicGraph(std::size_t n, std::vector<Edge> initial_edges,
               std::vector<TopologyEvent> events);

  std::size_t n() const { return n_; }
  const std::vector<Edge>& initial_edges() const { return initial_edges_; }
  const std::vector<TopologyEvent>& events() const { return events_; }

  // Replays events with timestamp <= t over the initial edge set (via a
  // throwaway EdgeDeltaCursor) and returns the live edges, sorted.
  // Redundant adds/removes are ignored, matching the simulator.
  // O(events) per call -- tests and offline tools only; hot paths
  // (NetworkSimulation, ShardedEngine) must consume deltas incrementally
  // instead (grep-gated in CTest).
  std::vector<Edge> edges_at(sim::Time t) const;
  bool connected_at(sim::Time t) const;

 private:
  std::size_t n_;
  std::vector<Edge> initial_edges_;
  std::vector<TopologyEvent> events_;
};

// Upper bounds on how far a schedule ever takes a run's per-edge state
// past its initial edges: the most live edges at once, and per node the
// largest rise of its degree above the initial one.  NetworkSimulation
// sizes its buffers to these before the run.  The events are replayed
// with the simulator's set semantics over only the edges they name,
// starting from none live; an edge that is in fact live from the start
// then counts once more than it should after its first event, so the
// bounds can only over-reserve, and no initial edge is looked at.
struct ScheduleHighWater {
  std::size_t live_edges = 0;
  // Indexed by node; empty for a schedule without events.
  std::vector<std::uint32_t> degree_rise;
};
ScheduleHighWater schedule_high_water(const DynamicGraph& graph);

struct ConnectivityAudit {
  std::uint64_t windows_checked = 0;
  std::uint64_t windows_disconnected = 0;
};

// Shared window-replay machinery for the interval-connectivity audit and
// enforcer: sweeps the contiguous windows [k*window, (k+1)*window) of a
// schedule, maintaining the live edge set and visiting each window's
// snapshot union (the live set entering the window plus every edge
// added inside it; events at a boundary instant belong to the later
// window, so an edge torn down exactly at a window's start still counts
// in its union).  The one-shot audit, the enforcer, and
// NetworkSimulation's incremental per-run_until audit all advance one
// of these, so the boundary semantics live in exactly one place.
//
// The union is never materialized.  After next() the cursor stands at
// the window's end, and the union is that live set plus every edge the
// window effectively removed: an edge live at the start or added inside
// the window is either still live at the end or was removed on the way,
// and anything live at the end or removed was live at the start or
// added.  Only the removals are stored, so the sweep holds the live set
// and one window's removals.
class SnapshotUnionSweep {
 public:
  // `events` must already be stably time-sorted (DynamicGraph's order).
  SnapshotUnionSweep(const std::vector<Edge>& initial_edges,
                     std::vector<TopologyEvent> events, double window);

  // The internal delta cursor points into the owned event list, so the
  // sweep is pinned to its construction address.
  SnapshotUnionSweep(const SnapshotUnionSweep&) = delete;
  SnapshotUnionSweep& operator=(const SnapshotUnionSweep&) = delete;

  // Advances to the next full window ending at or before `horizon`;
  // false (state unchanged) when that window is not complete yet.  The
  // cursor only moves forward, so interleaving calls with growing
  // horizons sweeps each window exactly once.
  bool next(double horizon);

  // Valid after a true next():
  std::size_t window_index() const { return window_count_ - 1; }
  double window_start() const { return static_cast<double>(window_index()) * width_; }
  double window_end() const { return static_cast<double>(window_count_) * width_; }
  // Calls fn(const Edge&) for every edge of the window's union, in no
  // particular order; an edge removed and re-added inside the window
  // may come twice.  Connectivity and min-id component labels ignore
  // both, which is what the callers compute.
  template <class Fn>
  void for_each_union_edge(Fn&& fn) const {
    cursor_.live().for_each(fn);
    for (const Edge& e : removed_) fn(e);
  }
  // Edges the schedule adds at exactly time `t >= window_end()`, scanned
  // forward from the cursor -- the enforcer's boundary-collision set.
  std::set<Edge> adds_at(double t) const;

 private:
  std::vector<TopologyEvent> events_;  // owned; cursor_ points into it
  EdgeDeltaCursor cursor_;
  std::vector<Edge> removed_;  // effective removals inside the window
  double width_;
  std::size_t window_count_ = 0;  // full windows swept so far
};

// The paper's standing assumption, checked over a whole schedule: for
// every full window [k*window, (k+1)*window) with (k+1)*window <= horizon,
// the union of the live-edge snapshots over the window must span a
// connected graph.  The union of window k is the live set entering the
// window plus every edge added during it; an edge torn down exactly at the
// window's start instant still counts (it was live at that instant).
// Partial trailing windows are not checked.  NetworkSimulation runs this
// audit with window = T + D after every run_until and reports the pair in
// RunStats; enforce_interval_connectivity (net/scenario.hpp) patches a
// scenario so this audit reports zero disconnected windows.
ConnectivityAudit audit_interval_connectivity(const DynamicGraph& graph,
                                              double window, double horizon);

}  // namespace gcs::net

#endif  // GCS_NET_DYNAMIC_GRAPH_HPP
