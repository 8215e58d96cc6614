# The link-equivalence matrix (the traffic pipeline), end to end on the
# real binaries, over one ad-hoc 2-cell churn sweep with --series --trace:
#
# 1. Ideal-link degeneration: traffic "off" (the legacy stochastic path)
#    and "idle" (the pipeline with infinite bandwidth) give identical
#    trees at every point of {shards 0, 1, 4} x {jobs 1, 2}, except for
#    the declared echo of the traffic value (the config's "traffic" and
#    campaign.csv's traffic column; gcs_diff strips config.traffic the
#    same way).
# 2. Traffic-on determinism: a saturated cbr tree is identical across
#    {jobs 1, 2} x {shards 1, 4} (modulo the shards echo) and across jobs
#    on the classic engine (shards 0): queueing, drops and ECN marks are
#    deterministic physics, not execution noise.
# 3. gcs_diff --strict passes between an off and an idle tree and names a
#    doctored traffic counter.
#
# Sharded runs need a delay floor, so every run pins a uniform delay with
# lo = 0.25 (its randomness keeps the off/idle identity non-trivial).
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

# rate 12 x 1000-byte packets on an 8000 B/s link is a 1.5x overload:
# the backlog climbs ~333 B/s, hits the 4000-byte queue cap well inside
# the 30 s horizon, and drops cbr packets (the saturation check below
# depends on this -- a sub-saturating rate would leave traffic_dropped
# at 0 and prove much less).
set(CBR "cbr:bw=8000:rate=12:pkt=1000:queue=4000:mark=1000")
# 2 cells x (json + series + trace) + csv + jsonl + summary
set(TREE_FILES 9)

function(run_tree tree traffic shards jobs)
  e2e_run(gcs_run --n=12 --scenario=churn:volatile_edges=6:lifetime=5
          --drift=walk --delay=uniform:0.25:1 --horizon=30 --sample_dt=1
          --seeds=1..2 "--traffic=${traffic}" "--shards=${shards}"
          --jobs ${jobs} --name=linkeq --check --quiet --fixed-timing
          --series --trace=256 --out "${OUT_DIR}/${tree}")
endfunction()

# --- 1. off == idle at every execution-layout point ------------------------
foreach(shards 0 1 4)
  foreach(jobs 1 2)
    set(tag "s${shards}-j${jobs}")
    run_tree("${tag}-off" off ${shards} ${jobs})
    run_tree("${tag}-idle" idle ${shards} ${jobs})
    e2e_compare_trees("${OUT_DIR}/${tag}-off" "${OUT_DIR}/${tag}-idle"
                      MIN_FILES ${TREE_FILES}
                      ECHO "\"traffic\": *\"[^\"]*\"|,(off|idle),")
  endforeach()
endforeach()

# --- 2. traffic-on trees are deterministic ---------------------------------
run_tree(cbr-s1 "${CBR}" 1 1)
run_tree(cbr-s1-j2 "${CBR}" 1 2)
run_tree(cbr-s4-j2 "${CBR}" 4 2)
run_tree(cbr-s0 "${CBR}" 0 1)
run_tree(cbr-s0-j2 "${CBR}" 0 2)
e2e_compare_trees("${OUT_DIR}/cbr-s1" "${OUT_DIR}/cbr-s1-j2"
                  MIN_FILES ${TREE_FILES})
e2e_compare_trees("${OUT_DIR}/cbr-s1" "${OUT_DIR}/cbr-s4-j2"
                  MIN_FILES ${TREE_FILES} ECHO "\"shards\": *[0-9]+")
e2e_compare_trees("${OUT_DIR}/cbr-s0" "${OUT_DIR}/cbr-s0-j2"
                  MIN_FILES ${TREE_FILES})

# The load must actually be visible, or the whole matrix proves nothing:
# the reference cbr tree echoes the spec and carries nonzero drops.
file(READ "${OUT_DIR}/cbr-s1/campaign.csv" cbr_csv)
string(FIND "${cbr_csv}" "${CBR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "cbr campaign.csv does not echo the traffic spec:\n${cbr_csv}")
endif()
file(GLOB cbr_cells "${OUT_DIR}/cbr-s1/cells/*.json")
list(GET cbr_cells 0 cbr_cell)
file(READ "${cbr_cell}" cbr_text)
if(cbr_text MATCHES "\"traffic_packets\": 0[,\n]")
  message(FATAL_ERROR "cbr cell offered no background packets:\n${cbr_text}")
endif()
if(cbr_text MATCHES "\"traffic_dropped\": 0[,\n]")
  message(FATAL_ERROR "saturated cbr cell dropped nothing:\n${cbr_text}")
endif()

# --- 3. the gcs_diff gate agrees -------------------------------------------
e2e_diff_gate("${OUT_DIR}/s0-j1-off" "${OUT_DIR}/s0-j1-idle"
              FIELD traffic_packets)

message(STATUS "link equivalence: off == idle at {shards 0,1,4} x "
        "{jobs 1,2}; saturated cbr trees byte-deterministic across "
        "jobs/shards; gcs_diff gate works")
