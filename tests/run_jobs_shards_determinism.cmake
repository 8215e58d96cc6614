# The determinism matrix over campaigns/churn.json, end to end on the
# real binaries.  Every row runs --check --fixed-timing (which pins the
# only nondeterministic fields, wall_ms and events_per_sec, to 0) with
# --series --trace, so the telemetry artifacts ride every comparison:
#
#   classic rows   {--jobs 1, --jobs 4} on the campaign's floorless
#                  uniform delay: byte-identical trees.
#   sharded rows   {--shards 1, 2, 4, 4 x --jobs 2} on --delay=constant:0.5
#                  (sharded runs need a delay floor): identical to the
#                  --shards 1 row except for the declared "shards" echo in
#                  the config; series and trace files byte-exact.
#
# gcs_diff --strict passes between rows and fails, naming the field, on a
# doctored copy, and its field classes hold: wall_ms is timing (ignored
# unless --timing), max_global_skew is float physics (caught beyond
# --tol), and a --tol that is not a finite number >= 0 is refused.
# gcs_report is a pure function of its tree: two runs on one tree, of the
# churn report and of the --contention view, give the same bytes.
#
# -DPART picks the share of the matrix one CTest runs:
#   jobs       the classic rows, their gcs_diff gates and field classes;
#   shards     the sharded rows and their gcs_diff gates;
#   telemetry  gcs_report stability on the classic --jobs 1 tree, read
#              from -DCHURN_TREE (the jobs part's output, a CTest fixture).
#
# To add a row, run one more tree in its part's row list below and
# compare it to the reference of its group.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

set(CAMPAIGN "${SRC_DIR}/campaigns/churn.json")
# 12 cells x (json + series + trace) + csv + jsonl + summary
set(TREE_FILES 39)
set(SHARDS_ECHO "\"shards\": *[0-9]+")

# A row is <tree>:<shards>:<jobs>; shards 0 is the classic engine.
if(PART STREQUAL "jobs")
  set(rows c-j1:0:1 c-j4:0:4)
elseif(PART STREQUAL "shards")
  set(rows s1:1:1 s2:2:1 s4:4:1 s4-j2:4:2)
elseif(PART STREQUAL "telemetry")
  set(rows "")
  if(NOT IS_DIRECTORY "${CHURN_TREE}")
    message(FATAL_ERROR "CHURN_TREE is not a directory: '${CHURN_TREE}' "
            "(the gcs_jobs_determinism fixture writes it)")
  endif()
else()
  message(FATAL_ERROR "-DPART wants jobs, shards or telemetry, got '${PART}'")
endif()

foreach(row IN LISTS rows)
  string(REPLACE ":" ";" row "${row}")
  list(GET row 0 tree)
  list(GET row 1 row_shards)
  list(GET row 2 row_jobs)
  set(sharded "")
  if(row_shards GREATER 0)
    set(sharded --shards=${row_shards} --delay=constant:0.5)
  endif()
  e2e_run(gcs_run --campaign "${CAMPAIGN}" --check --quiet --fixed-timing
          --jobs ${row_jobs} ${sharded} --series --trace=1024
          --out "${OUT_DIR}/${tree}")
endforeach()

if(PART STREQUAL "jobs")
  e2e_compare_trees("${OUT_DIR}/c-j1" "${OUT_DIR}/c-j4"
                    MIN_FILES ${TREE_FILES})
  e2e_diff_gate("${OUT_DIR}/c-j1" "${OUT_DIR}/c-j1" FIELD events_executed)
  e2e_diff_gate("${OUT_DIR}/c-j1" "${OUT_DIR}/c-j4" FIELD events_executed)
  e2e_doctor("${OUT_DIR}/c-j1" "${OUT_DIR}/timing" wall_ms 1)
  e2e_run(gcs_diff "${OUT_DIR}/c-j1" "${OUT_DIR}/timing" --strict)
  e2e_diff_gate("${OUT_DIR}/c-j1" "${OUT_DIR}/c-j4" FIELD wall_ms
                ARGS --timing)
  e2e_diff_gate("${OUT_DIR}/c-j1" "${OUT_DIR}/c-j4" FIELD max_global_skew
                ARGS --tol=1e-9)
  foreach(tol nan inf -1 0x1 +0.5)
    string(REPLACE "+" "[+]" shown "${tol}")
    e2e_run(gcs_diff "${OUT_DIR}/c-j1" "${OUT_DIR}/c-j4" --strict
            --tol=${tol} EXIT 2
            STDERR "--tol wants a finite number >= 0, got '${shown}'")
  endforeach()
  message(STATUS "determinism matrix, classic rows: --jobs 1 = 4; "
          "gcs_diff gates and field classes hold")
elseif(PART STREQUAL "shards")
  foreach(tree s2 s4 s4-j2)
    e2e_compare_trees("${OUT_DIR}/s1" "${OUT_DIR}/${tree}"
                      MIN_FILES ${TREE_FILES} ECHO "${SHARDS_ECHO}")
  endforeach()
  # gcs_diff strips config.shards itself, so rows at different shard
  # counts compare clean under --strict.
  e2e_diff_gate("${OUT_DIR}/s1" "${OUT_DIR}/s2" FIELD messages_delivered)
  e2e_diff_gate("${OUT_DIR}/s1" "${OUT_DIR}/s4" FIELD messages_delivered)
  e2e_diff_gate("${OUT_DIR}/s4" "${OUT_DIR}/s4-j2" FIELD messages_delivered)
  message(STATUS "determinism matrix, sharded rows: --shards 1 = 2 = 4 = "
          "4 x --jobs 2 modulo the shards echo; gcs_diff gates hold")
else()
  e2e_run(gcs_run --campaign "${SRC_DIR}/campaigns/contention.json" --check
          --quiet --jobs 2 --series --out "${OUT_DIR}/contention")
  foreach(pass a b)
    file(MAKE_DIRECTORY "${OUT_DIR}/report-${pass}")
    e2e_run(gcs_report "${CHURN_TREE}"
            -o "${OUT_DIR}/report-${pass}/churn.txt")
    e2e_run(gcs_report "${OUT_DIR}/contention" --contention
            -o "${OUT_DIR}/report-${pass}/contention.txt")
  endforeach()
  e2e_compare_trees("${OUT_DIR}/report-a" "${OUT_DIR}/report-b" MIN_FILES 2)
  file(READ "${OUT_DIR}/report-a/contention.txt" contention)
  if(NOT contention MATCHES "cbr:bw=8000:rate=12")
    message(FATAL_ERROR "the --contention view lost the cbr:bw=8000:rate=12 "
            "group:\n${contention}")
  endif()
  message(STATUS "determinism matrix, telemetry: gcs_report stable on the "
          "churn tree and the --contention view")
endif()
