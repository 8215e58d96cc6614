#include "net/dynamic_graph.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

namespace gcs::net {

DynamicGraph::DynamicGraph(std::size_t n, std::vector<Edge> initial_edges,
                           std::vector<TopologyEvent> events)
    : n_(n),
      initial_edges_(std::move(initial_edges)),
      events_(std::move(events)) {
  for (const Edge& e : initial_edges_) {
    if (e.v >= n_ || e.u == e.v) {
      throw std::invalid_argument("DynamicGraph: initial edge out of range");
    }
  }
  for (const TopologyEvent& ev : events_) {
    if (ev.edge.v >= n_ || ev.edge.u == ev.edge.v) {
      throw std::invalid_argument("DynamicGraph: event edge out of range");
    }
  }
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const TopologyEvent& a, const TopologyEvent& b) { return a.at < b.at; });
}

namespace {

// splitmix64's finalizer: spreads the packed (u, v) keys of a ring's
// consecutive edges over the whole table.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

EdgeSet::EdgeSet(const std::vector<Edge>& edges) {
  std::size_t capacity = 16;
  while (capacity < 2 * edges.size()) capacity *= 2;
  slots_.assign(capacity, kEmpty);
  for (const Edge& e : edges) insert(e);
}

std::size_t EdgeSet::find(std::uint64_t k) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = mix(k) & mask;
  while (slots_[i] != kEmpty && slots_[i] != k) i = (i + 1) & mask;
  return i;
}

void EdgeSet::rehash(std::size_t capacity) {
  std::vector<std::uint64_t> old(capacity, kEmpty);
  old.swap(slots_);
  for (const std::uint64_t k : old) {
    if (k != kEmpty) slots_[find(k)] = k;
  }
}

bool EdgeSet::contains(const Edge& e) const {
  return !slots_.empty() && slots_[find(key(e))] != kEmpty;
}

bool EdgeSet::insert(const Edge& e) {
  if (2 * (size_ + 1) > slots_.size()) {
    rehash(slots_.empty() ? 16 : 2 * slots_.size());
  }
  const std::uint64_t k = key(e);
  const std::size_t i = find(k);
  if (slots_[i] == k) return false;
  slots_[i] = k;
  ++size_;
  return true;
}

bool EdgeSet::erase(const Edge& e) {
  if (slots_.empty()) return false;
  std::size_t i = find(key(e));
  if (slots_[i] == kEmpty) return false;
  // Backward-shift deletion: walk the probe run after the hole and move
  // back every key whose home slot does not lie strictly between the
  // hole and the key's current slot (cyclically), so no later lookup
  // stops early at the hole.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j] != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t home = mix(slots_[j]) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = kEmpty;
  --size_;
  return true;
}

EdgeDeltaCursor::EdgeDeltaCursor(const std::vector<Edge>& initial_edges,
                                 const std::vector<TopologyEvent>* events)
    : events_(events), live_(initial_edges) {}

void EdgeDeltaCursor::apply_until(double t, bool inclusive,
                                  const DeltaFn& fn) {
  const std::vector<TopologyEvent>& evs = *events_;
  while (index_ < evs.size() &&
         (inclusive ? evs[index_].at <= t : evs[index_].at < t)) {
    const TopologyEvent& ev = evs[index_];
    const bool effective =
        ev.add ? live_.insert(ev.edge) : live_.erase(ev.edge);
    if (fn) fn(ev, effective);
    ++index_;
  }
}

void EdgeDeltaCursor::advance_before(double t, const DeltaFn& fn) {
  apply_until(t, /*inclusive=*/false, fn);
}

void EdgeDeltaCursor::advance_through(double t, const DeltaFn& fn) {
  apply_until(t, /*inclusive=*/true, fn);
}

std::vector<Edge> DynamicGraph::edges_at(sim::Time t) const {
  EdgeDeltaCursor cursor(initial_edges_, &events_);
  cursor.advance_through(t);
  std::vector<Edge> edges;
  edges.reserve(cursor.live().size());
  cursor.live().for_each([&edges](const Edge& e) { edges.push_back(e); });
  std::sort(edges.begin(), edges.end());
  return edges;
}

bool DynamicGraph::connected_at(sim::Time t) const {
  EdgeDeltaCursor cursor(initial_edges_, &events_);
  cursor.advance_through(t);
  return is_connected(n_, [&cursor](const auto& fn) {
    cursor.live().for_each(fn);
  });
}

SnapshotUnionSweep::SnapshotUnionSweep(const std::vector<Edge>& initial_edges,
                                       std::vector<TopologyEvent> events,
                                       double window)
    : events_(std::move(events)),
      cursor_(initial_edges, &events_),
      width_(window) {}

bool SnapshotUnionSweep::next(double horizon) {
  if (width_ <= 0.0) return false;  // zero-width windows would never end
  const double end = static_cast<double>(window_count_ + 1) * width_;
  if (end > horizon) return false;
  // The shared cursor applies the window's deltas; the removals it
  // applies are what the live set at the end lacks of the union.
  removed_.clear();
  cursor_.advance_before(end, [this](const TopologyEvent& ev, bool effective) {
    if (!ev.add && effective) removed_.push_back(ev.edge);
  });
  ++window_count_;
  return true;
}

std::set<Edge> SnapshotUnionSweep::adds_at(double t) const {
  std::set<Edge> adds;
  const std::vector<TopologyEvent>& evs = cursor_.events();
  for (std::size_t i = cursor_.index(); i < evs.size() && evs[i].at <= t;
       ++i) {
    if (evs[i].at == t && evs[i].add) adds.insert(evs[i].edge);
  }
  return adds;
}

ScheduleHighWater schedule_high_water(const DynamicGraph& graph) {
  ScheduleHighWater high;
  high.live_edges = graph.initial_edges().size();
  if (graph.events().empty()) return high;
  high.degree_rise.assign(graph.n(), 0);
  std::vector<std::uint32_t> rise(graph.n(), 0);
  std::size_t live_edges = high.live_edges;
  EdgeSet named_live;
  for (const TopologyEvent& ev : graph.events()) {
    if (ev.add ? !named_live.insert(ev.edge) : !named_live.erase(ev.edge)) {
      continue;
    }
    for (const NodeId u : {ev.edge.u, ev.edge.v}) {
      rise[u] = ev.add ? rise[u] + 1 : rise[u] - 1;
      high.degree_rise[u] = std::max(high.degree_rise[u], rise[u]);
    }
    live_edges = ev.add ? live_edges + 1 : live_edges - 1;
    high.live_edges = std::max(high.live_edges, live_edges);
  }
  return high;
}

ConnectivityAudit audit_interval_connectivity(const DynamicGraph& graph,
                                              double window, double horizon) {
  if (window <= 0.0) {
    throw std::invalid_argument("audit_interval_connectivity: window <= 0");
  }
  ConnectivityAudit audit;
  SnapshotUnionSweep sweep(graph.initial_edges(), graph.events(), window);
  Components components;
  while (sweep.next(horizon)) {
    ++audit.windows_checked;
    if (!is_connected(components, graph.n(), [&sweep](const auto& fn) {
          sweep.for_each_union_edge(fn);
        })) {
      ++audit.windows_disconnected;
    }
  }
  return audit;
}

}  // namespace gcs::net
