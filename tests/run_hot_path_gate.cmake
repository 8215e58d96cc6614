# Grep gate for the edges_at() deprecation: the hot path consumes
# topology through EdgeDeltaCursor / SnapshotUnionSweep, never through
# DynamicGraph::edges_at(), whose full-snapshot materialization is
# O(live edges) per call and dominated million-node runs.  edges_at()
# survives for tests and offline tools only; this gate fails the moment a
# hot-path translation unit mentions it again.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

e2e_grep_gate("hot-path gate" PATTERN "edges_at"
              PROBE "  const auto live = graph.edges_at(now)"
              FILES "${SRC_DIR}/src/core/network_sim.hpp"
                    "${SRC_DIR}/src/core/network_sim.cpp"
                    "${SRC_DIR}/src/sim/sharded_engine.hpp"
                    "${SRC_DIR}/src/sim/sharded_engine.cpp"
              HINT "edges_at() is deprecated on hot paths (see DESIGN.md, \
'Topology delta cursors'); use net::EdgeDeltaCursor or \
net::SnapshotUnionSweep instead.")
