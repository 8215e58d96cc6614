# Golden bytes: every artifact gcs_run writes for two small cells (a
# static ring and a churn scenario, each with --series and --trace) must
# match the committed trees under tests/data/golden/ byte for byte.  The
# writers stream; this pins what they stream, whatever the writer code
# looks like.
#
# Regenerating the goldens is a deliberate artifact change: rerun the
# two commands below with --out tests/data/golden/<cell> and say why.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

set(common --name=golden --n=8 --horizon=10 --sample_dt=0.5 --seeds=1
    --fixed-timing --series --trace=64 --check --quiet)
set(ring_args --topology=ring)
set(churn_args --scenario=churn:lifetime=2:volatile_edges=4)

foreach(cell ring churn)
  e2e_run(gcs_run ${common} ${${cell}_args} --out "${OUT_DIR}/${cell}")
  # cell json + series + trace + csv + jsonl + summary
  e2e_compare_trees("${SRC_DIR}/tests/data/golden/${cell}" "${OUT_DIR}/${cell}"
                    MIN_FILES 6)
endforeach()

message(STATUS "golden artifacts: ring and churn trees byte-identical")
