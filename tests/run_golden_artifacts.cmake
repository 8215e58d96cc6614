# Golden-bytes CTest: every artifact gcs_run writes for two small cells
# (a static ring and a churn scenario, each with --series and --trace)
# must match the committed files under tests/data/golden/ byte for byte.
# The writers stream; this pins what they stream, whatever the writer
# code looks like.
#
# Invoked in script mode by CTest (see add_test in the top-level
# CMakeLists) with:
#   -DGCS_RUN=<path to the built gcs_run>
#   -DGOLDEN_DIR=<tests/data/golden>
#   -DOUT_DIR=<scratch directory for the fresh trees>
#
# Regenerating the goldens is a deliberate artifact change: rerun the two
# commands below with --out tests/data/golden/<cell> and say why.
if(NOT GCS_RUN OR NOT EXISTS "${GCS_RUN}")
  message(FATAL_ERROR "gcs_run binary not found: '${GCS_RUN}'")
endif()
if(NOT GOLDEN_DIR OR NOT IS_DIRECTORY "${GOLDEN_DIR}")
  message(FATAL_ERROR "golden directory not found: '${GOLDEN_DIR}'")
endif()
if(NOT OUT_DIR)
  message(FATAL_ERROR "OUT_DIR not set")
endif()

set(common --name=golden --n=8 --horizon=10 --sample_dt=0.5 --seeds=1
    --fixed-timing --series --trace=64 --check --quiet)
set(ring_args --topology=ring)
set(churn_args --scenario=churn:lifetime=2:volatile_edges=4)

foreach(cell ring churn)
  file(REMOVE_RECURSE "${OUT_DIR}/${cell}")
  execute_process(
    COMMAND "${GCS_RUN}" ${common} ${${cell}_args} --out "${OUT_DIR}/${cell}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gcs_run (${cell}) exited ${rc}\n${stdout}\n${stderr}")
  endif()

  file(GLOB_RECURSE golden RELATIVE "${GOLDEN_DIR}/${cell}"
       "${GOLDEN_DIR}/${cell}/*")
  file(GLOB_RECURSE fresh RELATIVE "${OUT_DIR}/${cell}" "${OUT_DIR}/${cell}/*")
  list(SORT golden)
  list(SORT fresh)
  if(NOT golden STREQUAL fresh)
    message(FATAL_ERROR "${cell}: artifact set drifted\n"
            "golden: ${golden}\nfresh:  ${fresh}")
  endif()
  list(LENGTH golden count)
  if(NOT count EQUAL 6)
    message(FATAL_ERROR "${cell}: expected 6 golden artifacts, got ${count}")
  endif()
  foreach(artifact ${golden})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${GOLDEN_DIR}/${cell}/${artifact}" "${OUT_DIR}/${cell}/${artifact}"
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR "${cell}: ${artifact} differs from the golden copy "
              "in ${GOLDEN_DIR}/${cell}")
    endif()
  endforeach()
endforeach()

message(STATUS "golden artifacts: ring and churn trees byte-identical")
