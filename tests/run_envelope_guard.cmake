# Loud-failure fixtures for the envelope fitter, through the real
# gcs_report binary (the in-memory NaN/Inf probes live in
# tests/test_envelope.cpp; json::parse rejects non-finite numbers, so the
# file-level fixtures cover the drifts that CAN arrive on disk):
#
#   * a schema-drifted cell makes `--envelope` exit 2 with the culprit
#     cell named on stderr, while the same tree WITHOUT --envelope keeps
#     the report's skip-and-continue discipline (exit 1);
#   * a negative observed skew is rejected the same way;
#   * an unusable (cell-less) tree exits 2 under --envelope-json;
#   * --out=FILE writes the bytes -o FILE writes.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

e2e_run(gcs_run --campaign "${SRC_DIR}/campaigns/smoke.json" --check --quiet
        --out "${OUT_DIR}/tree")

# The healthy tree fits cleanly, and valued options also read as
# NAME=VALUE.
file(MAKE_DIRECTORY "${OUT_DIR}/report-o" "${OUT_DIR}/report-eq")
e2e_run(gcs_report "${OUT_DIR}/tree" --envelope
        --envelope-json "${OUT_DIR}/envelope.json"
        -o "${OUT_DIR}/report-o/report.txt")
e2e_run(gcs_report "${OUT_DIR}/tree" --envelope --top=5
        --out=${OUT_DIR}/report-eq/report.txt)
e2e_compare_trees("${OUT_DIR}/report-o" "${OUT_DIR}/report-eq" MIN_FILES 1)

# A doctored copy of the tree exits 2 under --envelope, naming the cell
# and the offence.
function(expect_envelope_rejection fixture field value pattern)
  e2e_doctor("${OUT_DIR}/tree" "${OUT_DIR}/${fixture}" ${field} ${value})
  file(READ "${e2e_victim}" cell_text)
  string(REGEX MATCH "\"cell\": \"([^\"]+)\"" _ "${cell_text}")
  set(label "${CMAKE_MATCH_1}")
  if(label STREQUAL "")
    message(FATAL_ERROR "could not extract the cell label from ${e2e_victim}")
  endif()
  e2e_run(gcs_report "${OUT_DIR}/${fixture}" --envelope
          -o "${OUT_DIR}/${fixture}.report.txt" EXIT 2 STDERR "${pattern}")
  if(NOT e2e_stderr MATCHES "cell '${label}'")
    message(FATAL_ERROR "${fixture}: stderr did not name cell '${label}':\n"
            "${e2e_stderr}")
  endif()
endfunction()
expect_envelope_rejection(drifted schema_version 999 "schema")
expect_envelope_rejection(negative max_global_skew -1
                          "non-finite or negative observed")
# The contrast: without --envelope the drifted cell is skipped loudly but
# the report still renders.
e2e_run(gcs_report "${OUT_DIR}/drifted" -o "${OUT_DIR}/drifted.skip.txt"
        EXIT 1)

# The artifact writer never emits an empty document.
file(MAKE_DIRECTORY "${OUT_DIR}/empty/cells")
e2e_run(gcs_report "${OUT_DIR}/empty"
        --envelope-json "${OUT_DIR}/empty.envelope.json" EXIT 2)
if(EXISTS "${OUT_DIR}/empty.envelope.json")
  message(FATAL_ERROR "an envelope artifact was written for an empty tree")
endif()

message(STATUS "envelope guard: schema drift and negative skew exit 2 "
        "naming the culprit cell; plain report keeps skip-and-continue; "
        "empty trees refuse to fit")
