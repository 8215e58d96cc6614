// gcs::net -- static topologies and the Edge primitive.
//
// Edges are undirected and stored normalized (u <= v) so that Edge works
// as a map key and the same physical link always hashes/compares equal no
// matter which endpoint names it.
#ifndef GCS_NET_TOPOLOGY_HPP
#define GCS_NET_TOPOLOGY_HPP

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

namespace gcs::net {

using NodeId = std::uint32_t;

struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  Edge() = default;
  Edge(NodeId a, NodeId b) : u(a < b ? a : b), v(a < b ? b : a) {}

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.u == b.u && a.v == b.v;
  }
  friend bool operator!=(const Edge& a, const Edge& b) { return !(a == b); }
  friend bool operator<(const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  }
};

// A static undirected graph on nodes 0..n-1.
class Topology {
 public:
  Topology(std::size_t n, std::vector<Edge> edges);

  std::size_t n() const { return n_; }
  const std::vector<Edge>& edges() const { return edges_; }
  bool is_connected() const;

 private:
  std::size_t n_;
  std::vector<Edge> edges_;
};

Topology make_path(std::size_t n);
Topology make_ring(std::size_t n);
Topology make_star(std::size_t n, NodeId hub = 0);
Topology make_complete(std::size_t n);

// Union-find over nodes 0..n-1 that roots every component at its
// smallest node id, so label() is the same whatever order the edges
// arrive in -- the connectivity audit and the enforcer visit a window's
// union in hash order.
class Components {
 public:
  explicit Components(std::size_t n = 0) { reset(n); }

  // Back to n singleton components, reusing the parent array: a loop of
  // audits over one graph allocates it once.
  void reset(std::size_t n);

  // Joins e's endpoints; an edge seen twice changes nothing.
  void add(const Edge& e);
  // The smallest node id in u's component.
  NodeId label(NodeId u);
  std::size_t count() const { return count_; }

 private:
  std::vector<NodeId> parent_;
  std::size_t count_ = 0;
};

// Connectivity over an arbitrary edge list (shared by Topology and the
// dynamic-graph replay checks).
bool is_connected(std::size_t n, const std::vector<Edge>& edges);
// Connectivity over the edges `for_each_edge(fn)` feeds to fn, in any
// order and with repeats allowed: the window audits visit a union in
// place (SnapshotUnionSweep::for_each_union_edge) instead of copying it.
// `scratch` is the union-find to use; whatever it held is discarded.
template <class ForEachEdge>
bool is_connected(Components& scratch, std::size_t n,
                  const ForEachEdge& for_each_edge) {
  if (n <= 1) return true;
  scratch.reset(n);
  for_each_edge([&scratch](const Edge& e) { scratch.add(e); });
  return scratch.count() == 1;
}
template <class ForEachEdge>
bool is_connected(std::size_t n, const ForEachEdge& for_each_edge) {
  Components c;
  return is_connected(c, n, for_each_edge);
}

}  // namespace gcs::net

#endif  // GCS_NET_TOPOLOGY_HPP
