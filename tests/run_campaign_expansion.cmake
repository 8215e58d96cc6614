# Every committed campaign file expands: gcs_run --campaign F --list over
# campaigns/*.json and bench/suite/workloads/*.json, from the repo root so
# relative trace paths resolve.  Expansion runs every check that can
# refuse a cell before it runs (model constants, the delay, traffic,
# variant and scenario specs, the topology and drift names), so a grammar
# or range change that would break a committed input, the benchmark's
# workloads included, fails here.  The files are only read.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

file(GLOB campaigns "${SRC_DIR}/campaigns/*.json")
file(GLOB workloads "${SRC_DIR}/bench/suite/workloads/*.json")
list(LENGTH campaigns n_campaigns)
list(LENGTH workloads n_workloads)
if(n_campaigns LESS 8 OR n_workloads LESS 4)
  message(FATAL_ERROR "found ${n_campaigns} campaign and ${n_workloads} "
                      "workload files; expected at least 8 and 4")
endif()
foreach(file IN LISTS campaigns workloads)
  e2e_run(gcs_run --campaign "${file}" --list WORKING_DIRECTORY "${SRC_DIR}")
endforeach()

# The check can fail: a campaign file with an out-of-range model constant
# is refused at expansion, naming the key.
file(WRITE "${OUT_DIR}/bad_rho.json"
     "{\"name\": \"bad\", \"defaults\": {\"n\": 8, \"rho\": 2}}\n")
e2e_run(gcs_run --campaign "${OUT_DIR}/bad_rho.json" --list
        EXIT 2 STDERR "config key 'rho' must be in \\(0, 1\\), got '2'")

message(STATUS "${n_campaigns} campaign and ${n_workloads} workload files "
               "expand")
