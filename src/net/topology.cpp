#include "net/topology.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace gcs::net {

Components::Components(std::size_t n) : parent_(n), count_(n) {
  std::iota(parent_.begin(), parent_.end(), NodeId{0});
}

NodeId Components::label(NodeId u) {
  while (parent_[u] != u) {
    parent_[u] = parent_[parent_[u]];
    u = parent_[u];
  }
  return u;
}

void Components::add(const Edge& e) {
  const NodeId a = label(e.u);
  const NodeId b = label(e.v);
  if (a == b) return;
  parent_[std::max(a, b)] = std::min(a, b);
  --count_;
}

Topology::Topology(std::size_t n, std::vector<Edge> edges)
    : n_(n), edges_(std::move(edges)) {
  for (const Edge& e : edges_) {
    if (e.v >= n_ || e.u == e.v) {
      throw std::invalid_argument("Topology: edge endpoint out of range");
    }
  }
}

bool is_connected(std::size_t n, const std::vector<Edge>& edges) {
  return is_connected(n, [&edges](const auto& fn) {
    for (const Edge& e : edges) fn(e);
  });
}

bool Topology::is_connected() const { return net::is_connected(n_, edges_); }

Topology make_path(std::size_t n) {
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    edges.emplace_back(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  return Topology(n, std::move(edges));
}

Topology make_ring(std::size_t n) {
  if (n < 3) return make_path(n);
  std::vector<Edge> edges;
  edges.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    edges.emplace_back(static_cast<NodeId>(i),
                       static_cast<NodeId>((i + 1) % n));
  }
  return Topology(n, std::move(edges));
}

Topology make_star(std::size_t n, NodeId hub) {
  if (hub >= n) throw std::invalid_argument("make_star: hub out of range");
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<NodeId>(i) == hub) continue;
    edges.emplace_back(hub, static_cast<NodeId>(i));
  }
  return Topology(n, std::move(edges));
}

Topology make_complete(std::size_t n) {
  std::vector<Edge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      edges.emplace_back(static_cast<NodeId>(i), static_cast<NodeId>(j));
    }
  }
  return Topology(n, std::move(edges));
}

}  // namespace gcs::net
