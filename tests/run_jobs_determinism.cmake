# End-to-end CTest for the --jobs determinism guarantee and the gcs_diff
# gate (ISSUE 4 acceptance): a --jobs 4 run of campaigns/churn.json must
# produce a byte-identical results tree to a --jobs 1 run (under
# --fixed-timing, which pins the only nondeterministic fields to 0), and
# gcs_diff --strict between the two trees must exit 0 -- then flag a
# perturbed copy.
#
# Invoked in script mode by CTest with:
#   -DGCS_RUN=<path to gcs_run>  -DGCS_DIFF=<path to gcs_diff>
#   -DCAMPAIGN=<path to campaigns/churn.json>
#   -DOUT_DIR=<scratch directory>

if(NOT GCS_RUN OR NOT EXISTS "${GCS_RUN}")
  message(FATAL_ERROR "gcs_run binary not found: '${GCS_RUN}'")
endif()
if(NOT GCS_DIFF OR NOT EXISTS "${GCS_DIFF}")
  message(FATAL_ERROR "gcs_diff binary not found: '${GCS_DIFF}'")
endif()
if(NOT CAMPAIGN OR NOT EXISTS "${CAMPAIGN}")
  message(FATAL_ERROR "campaign file not found: '${CAMPAIGN}'")
endif()
if(NOT OUT_DIR)
  message(FATAL_ERROR "OUT_DIR not set")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
set(TREE_SERIAL "${OUT_DIR}/jobs1")
set(TREE_PARALLEL "${OUT_DIR}/jobs4")

foreach(cfg "jobs1;1" "jobs4;4")
  list(GET cfg 0 tree)
  list(GET cfg 1 jobs)
  execute_process(
    COMMAND "${GCS_RUN}" --campaign "${CAMPAIGN}" --check --quiet
            --jobs ${jobs} --fixed-timing --out "${OUT_DIR}/${tree}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gcs_run --jobs ${jobs} exited ${rc}\n${stdout}\n${stderr}")
  endif()
endforeach()

# Byte-identity over the full trees: same file sets, same bytes.
file(GLOB_RECURSE serial_files RELATIVE "${TREE_SERIAL}" "${TREE_SERIAL}/*")
file(GLOB_RECURSE parallel_files RELATIVE "${TREE_PARALLEL}" "${TREE_PARALLEL}/*")
list(SORT serial_files)
list(SORT parallel_files)
if(NOT serial_files STREQUAL parallel_files)
  message(FATAL_ERROR "tree file sets differ:\njobs1: ${serial_files}\njobs4: ${parallel_files}")
endif()
list(LENGTH serial_files file_count)
if(file_count LESS 15)  # 12 cells + csv + jsonl + summary
  message(FATAL_ERROR "suspiciously small tree (${file_count} files): ${serial_files}")
endif()
foreach(f ${serial_files})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${TREE_SERIAL}/${f}" "${TREE_PARALLEL}/${f}"
    RESULT_VARIABLE cmp)
  if(NOT cmp EQUAL 0)
    message(FATAL_ERROR "--jobs 4 produced different bytes for ${f}")
  endif()
endforeach()

# gcs_diff --strict between the two trees exits 0...
execute_process(
  COMMAND "${GCS_DIFF}" "${TREE_SERIAL}" "${TREE_PARALLEL}" --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gcs_diff --strict on identical trees exited ${rc}\n${stdout}\n${stderr}")
endif()

# ...and flags a perturbed copy with a nonzero exit.
file(GLOB cell_files "${TREE_PARALLEL}/cells/*.json")
list(SORT cell_files)
list(GET cell_files 0 victim)
file(READ "${victim}" cell_text)
string(REGEX REPLACE "\"events_executed\": [0-9]+" "\"events_executed\": 999999999"
       cell_text "${cell_text}")
file(WRITE "${victim}" "${cell_text}")
execute_process(
  COMMAND "${GCS_DIFF}" "${TREE_SERIAL}" "${TREE_PARALLEL}" --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout)
if(rc EQUAL 0)
  message(FATAL_ERROR "gcs_diff --strict failed to flag a perturbed tree\n${stdout}")
endif()
if(NOT stdout MATCHES "events_executed")
  message(FATAL_ERROR "gcs_diff did not name the perturbed field:\n${stdout}")
endif()

# A tolerance that is not a finite number >= 0 is refused naming --tol
# (--tol=nan used to reach the serializer and fail with its message).
foreach(tol nan inf -1 0x1 +0.5)
  execute_process(
    COMMAND "${GCS_DIFF}" "${TREE_SERIAL}" "${TREE_PARALLEL}" --strict
            --tol=${tol}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  string(FIND "${stderr}" "--tol wants a finite number >= 0, got '${tol}'" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "gcs_diff --tol=${tol}: expected exit 2 naming --tol, "
            "got ${rc}\n${stdout}\n${stderr}")
  endif()
endforeach()

message(STATUS "jobs determinism: --jobs 4 tree byte-identical to --jobs 1; gcs_diff gate works")
