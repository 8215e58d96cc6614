# End-to-end CTest for the sharded-engine determinism matrix (the
# tentpole acceptance): campaigns/churn.json run through the real
# gcs_run binary over {shards 1, 2, 4} x {jobs 1, 2} must produce
# byte-identical result trees, where "identical" is exact except for the
# declared execution-layout echo: the "shards" value in the config echo
# (normalized before compare; gcs_diff strips it the same way, which the
# --strict runs prove).
#
# Every series/trace artifact -- pure trajectory bytes -- must be exactly
# identical across the whole grid, and gcs_diff --strict must pass
# between the trees and then flag a perturbed copy.
#
# Sharded runs need a delay model with a positive floor, so every run
# pins --delay=constant:0.5 (churn's default is floorless "uniform").
#
# Invoked in script mode by CTest with:
#   -DGCS_RUN=<path to gcs_run>  -DGCS_DIFF=<path to gcs_diff>
#   -DCAMPAIGN=<path to campaigns/churn.json>
#   -DOUT_DIR=<scratch directory>

foreach(var GCS_RUN GCS_DIFF CAMPAIGN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_shards_determinism.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")

# The grid: shards=1 --jobs 1 is the single-threaded reference.
foreach(cfg "ref;1;1" "s2;2;1" "s4;4;1" "s4j2;4;2")
  list(GET cfg 0 tree)
  list(GET cfg 1 shards)
  list(GET cfg 2 jobs)
  execute_process(
    COMMAND "${GCS_RUN}" --campaign "${CAMPAIGN}" --check --quiet
            --jobs ${jobs} --shards=${shards}
            --delay=constant:0.5 --fixed-timing
            --series --trace=1024 --out "${OUT_DIR}/${tree}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gcs_run (${tree}) exited ${rc}\n${stdout}\n${stderr}")
  endif()
endforeach()

set(REF "${OUT_DIR}/ref")
file(GLOB_RECURSE ref_files RELATIVE "${REF}" "${REF}/*")
list(SORT ref_files)
list(LENGTH ref_files file_count)
if(file_count LESS 39)  # 12 cells x (json + series + trace) + csv + jsonl + summary
  message(FATAL_ERROR "suspiciously small tree (${file_count} files): ${ref_files}")
endif()

# Reads a tree file with the shards echo normalized away.
function(read_normalized path out_var)
  file(READ "${path}" text)
  string(REGEX REPLACE "\"shards\": *[0-9]+" "\"shards\": X" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

set(series_count 0)
set(trace_count 0)
foreach(f ${ref_files})
  set(pure_trajectory FALSE)
  if(f MATCHES "\\.series\\.csv$")
    set(pure_trajectory TRUE)
    math(EXPR series_count "${series_count} + 1")
  elseif(f MATCHES "\\.trace\\.jsonl$")
    set(pure_trajectory TRUE)
    math(EXPR trace_count "${trace_count} + 1")
  endif()
  foreach(tree s2 s4 s4j2)
    if(NOT EXISTS "${OUT_DIR}/${tree}/${f}")
      message(FATAL_ERROR "${tree} is missing ${f}")
    endif()
    if(pure_trajectory)
      # Trajectory bytes: exact equality across the WHOLE grid, no
      # normalization allowed.
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${REF}/${f}" "${OUT_DIR}/${tree}/${f}"
        RESULT_VARIABLE cmp)
      if(NOT cmp EQUAL 0)
        message(FATAL_ERROR "${tree} produced different bytes for ${f}")
      endif()
    else()
      read_normalized("${REF}/${f}" want)
      read_normalized("${OUT_DIR}/${tree}/${f}" got)
      if(NOT want STREQUAL got)
        message(FATAL_ERROR
                "${tree} differs from ref in ${f} beyond the shards echo")
      endif()
    endif()
  endforeach()
endforeach()

# churn has 12 cells; "nothing differed" must not hide missing telemetry.
if(series_count LESS 12 OR trace_count LESS 12)
  message(FATAL_ERROR "expected >= 12 series + 12 trace files, found "
          "${series_count} series / ${trace_count} trace")
endif()

# gcs_diff --strict agrees: it strips config.shards itself, so trees at
# different shard counts must compare clean.
foreach(pair "ref;s2" "ref;s4" "s4;s4j2")
  list(GET pair 0 a)
  list(GET pair 1 b)
  execute_process(
    COMMAND "${GCS_DIFF}" "${OUT_DIR}/${a}" "${OUT_DIR}/${b}" --strict
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "gcs_diff --strict ${a} vs ${b} exited ${rc}\n${stdout}\n${stderr}")
  endif()
endforeach()

# ...and still flags a real trajectory difference, naming the field.
file(GLOB cell_files "${OUT_DIR}/s4/cells/*.json")
list(SORT cell_files)
list(GET cell_files 0 victim)
file(READ "${victim}" cell_text)
string(REGEX REPLACE "\"messages_delivered\": [0-9]+"
       "\"messages_delivered\": 999999999" cell_text "${cell_text}")
file(WRITE "${victim}" "${cell_text}")
execute_process(
  COMMAND "${GCS_DIFF}" "${OUT_DIR}/ref" "${OUT_DIR}/s4" --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout)
if(rc EQUAL 0)
  message(FATAL_ERROR "gcs_diff --strict failed to flag a perturbed sharded tree\n${stdout}")
endif()
if(NOT stdout MATCHES "messages_delivered")
  message(FATAL_ERROR "gcs_diff did not name the perturbed field:\n${stdout}")
endif()

message(STATUS "shards determinism: {shards 1,2,4} x {jobs 1,2} trees "
        "identical modulo the declared shards echo "
        "(${series_count} series + ${trace_count} trace files exact); "
        "gcs_diff gate works")
