# Loud-failure fixtures for the envelope fitter, through the real
# gcs_report binary (the in-memory NaN/Inf probes live in
# tests/test_envelope.cpp; json::parse rejects non-finite numbers, so
# the file-level fixtures cover the drifts that CAN arrive on disk):
#
#   * a schema-drifted cell makes `--envelope` exit 2 with the culprit
#     cell named on stderr, while the same tree WITHOUT --envelope keeps
#     the report's skip-and-continue discipline (exit 1);
#   * a negative observed skew is rejected the same way;
#   * an unusable (cell-less) tree exits 2 under --envelope-json;
#   * --out=FILE writes the bytes -o FILE writes.
#
# Invoked in script mode by CTest with:
#   -DGCS_RUN=<gcs_run> -DGCS_REPORT=<gcs_report>
#   -DCAMPAIGN=<campaigns/smoke.json> -DOUT_DIR=<scratch directory>

foreach(var GCS_RUN GCS_REPORT CAMPAIGN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_envelope_guard.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")

execute_process(
  COMMAND "${GCS_RUN}" --campaign "${CAMPAIGN}" --check --quiet
          --out "${OUT_DIR}/tree"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gcs_run exited ${rc}\n${stdout}\n${stderr}")
endif()

# Sanity: the healthy tree fits cleanly.
execute_process(
  COMMAND "${GCS_REPORT}" "${OUT_DIR}/tree" --envelope
          --envelope-json "${OUT_DIR}/envelope.json" -o "${OUT_DIR}/report.txt"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "gcs_report --envelope on a healthy tree exited ${rc}\n${stderr}")
endif()

# Valued options also read as NAME=VALUE: --out=FILE writes what -o does.
execute_process(COMMAND "${GCS_REPORT}" "${OUT_DIR}/tree" --envelope --top=5
                --out=${OUT_DIR}/eq.txt RESULT_VARIABLE rc)
file(READ "${OUT_DIR}/report.txt" want)
file(READ "${OUT_DIR}/eq.txt" got)
if(NOT rc EQUAL 0 OR NOT want STREQUAL got)
  message(FATAL_ERROR "gcs_report --out=FILE exited ${rc} or wrote other bytes")
endif()

# Runs gcs_report on a doctored copy of the tree and asserts the exit
# code / stderr contract.
function(expect_envelope_rejection fixture pattern mutate_regex replacement)
  file(REMOVE_RECURSE "${OUT_DIR}/${fixture}")
  file(COPY "${OUT_DIR}/tree/" DESTINATION "${OUT_DIR}/${fixture}")
  file(GLOB cell_files "${OUT_DIR}/${fixture}/cells/*.json")
  list(SORT cell_files)
  list(GET cell_files 0 victim)
  file(READ "${victim}" cell_text)
  string(REGEX MATCH "\"cell\": \"([^\"]+)\"" _ "${cell_text}")
  set(victim_label "${CMAKE_MATCH_1}")
  if(victim_label STREQUAL "")
    message(FATAL_ERROR "could not extract the cell label from ${victim}")
  endif()
  string(REGEX REPLACE "${mutate_regex}" "${replacement}"
         cell_text "${cell_text}")
  file(WRITE "${victim}" "${cell_text}")

  execute_process(
    COMMAND "${GCS_REPORT}" "${OUT_DIR}/${fixture}" --envelope
            -o "${OUT_DIR}/${fixture}.report.txt"
    RESULT_VARIABLE rc
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "${fixture}: --envelope exited ${rc}, wanted 2\n${stderr}")
  endif()
  if(NOT stderr MATCHES "cell '${victim_label}'")
    message(FATAL_ERROR
            "${fixture}: stderr did not name cell '${victim_label}':\n${stderr}")
  endif()
  if(NOT stderr MATCHES "${pattern}")
    message(FATAL_ERROR
            "${fixture}: stderr did not match '${pattern}':\n${stderr}")
  endif()

  # The contrast: without --envelope the drifted cell is skipped loudly
  # but the report still renders (exit 1, skip listed in the output).
  execute_process(
    COMMAND "${GCS_REPORT}" "${OUT_DIR}/${fixture}"
            -o "${OUT_DIR}/${fixture}.skip.txt"
    RESULT_VARIABLE rc)
  if(fixture STREQUAL "drifted" AND NOT rc EQUAL 1)
    message(FATAL_ERROR
            "${fixture}: plain report exited ${rc}, wanted skip-and-continue 1")
  endif()
endfunction()

expect_envelope_rejection(drifted "schema"
                          "\"schema_version\": [0-9]+"
                          "\"schema_version\": 999")
expect_envelope_rejection(negative "non-finite or negative observed"
                          "\"max_global_skew\": [^,\n]+"
                          "\"max_global_skew\": -1")

# An unusable tree (no cells) is exit 2 under --envelope-json too: the
# artifact writer must never emit an empty document.
file(MAKE_DIRECTORY "${OUT_DIR}/empty/cells")
execute_process(
  COMMAND "${GCS_REPORT}" "${OUT_DIR}/empty"
          --envelope-json "${OUT_DIR}/empty.envelope.json"
  RESULT_VARIABLE rc
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "empty tree exited ${rc}, wanted 2\n${stderr}")
endif()
if(EXISTS "${OUT_DIR}/empty.envelope.json")
  message(FATAL_ERROR "an envelope artifact was written for an empty tree")
endif()

message(STATUS "envelope guard: schema drift and negative skew exit 2 "
        "naming the culprit cell; plain report keeps skip-and-continue; "
        "empty trees refuse to fit")
