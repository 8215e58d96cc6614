# Trace-driven scenarios through the real gcs_run binary: a malformed
# trace fails the run loudly (nonzero exit, offending input named), and
# the shipped example trace runs clean under --check.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

# An out-of-range node id.
file(WRITE "${OUT_DIR}/bad.csv" "n,4\n0,0,1,up\n1,0,9,up\n")
e2e_run(gcs_run --n=4 --scenario=trace:path=${OUT_DIR}/bad.csv --horizon=10
        --out "${OUT_DIR}/bad-results" EXIT nonzero OUTPUT "out of range")

# A well-formed trace whose n disagrees with the cell's n
# (run_experiment's scenario-size check).
file(WRITE "${OUT_DIR}/small.csv" "n,4\n0,0,1,up\n0,1,2,up\n0,2,3,up\n")
e2e_run(gcs_run --n=6 --scenario=trace:path=${OUT_DIR}/small.csv --horizon=10
        --out "${OUT_DIR}/mismatch-results" EXIT nonzero OUTPUT "disagrees")

# The shipped example trace, by its repo-relative path.
e2e_run(gcs_run --n=10 --T=1 --D=2.5
        --scenario=trace:path=campaigns/traces/example_contacts.csv
        --horizon=40 --check --quiet --out "${OUT_DIR}/good-results"
        WORKING_DIRECTORY "${SRC_DIR}")

message(STATUS "trace error handling OK")
