# Grep gate for the edges_at() deprecation (PR-8 satellite): the hot
# path must consume topology through EdgeDeltaCursor /
# SnapshotUnionSweep, never through DynamicGraph::edges_at(), whose
# full-snapshot materialization is O(live edges) per call and dominated
# million-node runs.  edges_at() survives for tests and offline tools
# only; this script fails the build the moment a hot-path translation
# unit mentions it again.
#
# Invoked in script mode by CTest with:
#   -DSRC_DIR=<repo src/ directory>

if(NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "run_hot_path_gate.cmake: -DSRC_DIR=... is required")
endif()

set(hot_path_files
    "${SRC_DIR}/core/network_sim.hpp"
    "${SRC_DIR}/core/network_sim.cpp"
    "${SRC_DIR}/sim/sharded_engine.hpp"
    "${SRC_DIR}/sim/sharded_engine.cpp")

set(violations "")
foreach(path ${hot_path_files})
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "hot-path gate: expected file is missing: ${path}")
  endif()
  file(STRINGS "${path}" matches REGEX "edges_at")
  if(NOT matches STREQUAL "")
    list(APPEND violations "${path}: ${matches}")
  endif()
endforeach()

if(NOT violations STREQUAL "")
  message(FATAL_ERROR
          "edges_at() is deprecated on hot paths (see DESIGN.md, 'Topology "
          "delta cursors'); use net::EdgeDeltaCursor or "
          "net::SnapshotUnionSweep instead.  Found:\n${violations}")
endif()

message(STATUS "hot-path gate: no edges_at() references in "
        "NetworkSimulation or ShardedEngine")
