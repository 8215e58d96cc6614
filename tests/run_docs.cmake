# Executes every `gcs_run` / `gcs_report` one-liner of one docs page
# verbatim and in order, so the page cannot rot: a command that stops
# parsing or fails --check fails the test.  The commands share a scratch
# directory holding a copy of campaigns/, so repo-relative paths (campaign
# files, the example trace) resolve and a report line reads the tree a run
# line before it wrote.
#
# -DDOC=<docs page, e.g. docs/scenarios.md>
# -DMIN_RUNS=<n> [-DMIN_REPORTS=<n>]: how many gcs_run / gcs_report
#   one-liners the page must carry, so a rewrite that drops them is a
#   failing test, not a passing one.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

if(NOT DEFINED MIN_REPORTS)
  set(MIN_REPORTS 0)
endif()
file(COPY "${SRC_DIR}/campaigns" DESTINATION "${OUT_DIR}")

# file(STRINGS) + list() would choke on the markdown's brackets, so the
# one-liners are pulled straight out of the raw text.  (The commands
# themselves hold no brackets or semicolons; the prose around them may.)
file(READ "${SRC_DIR}/${DOC}" doc_text)
string(REGEX MATCHALL "\n(gcs_run|gcs_report) [^\n]*" doc_lines "${doc_text}")
set(count_gcs_run 0)
set(count_gcs_report 0)
foreach(raw IN LISTS doc_lines)
  string(STRIP "${raw}" line)
  string(REGEX MATCH "^[a-z_]+" tool "${line}")
  math(EXPR count_${tool} "${count_${tool}} + 1")
  string(REGEX REPLACE "^${tool} " "" args "${line}")
  separate_arguments(args UNIX_COMMAND "${args}")
  e2e_run(${tool} ${args})
  message(STATUS "ok: ${line}")
endforeach()

if(count_gcs_run LESS MIN_RUNS OR count_gcs_report LESS MIN_REPORTS)
  message(FATAL_ERROR "expected >= ${MIN_RUNS} gcs_run and >= ${MIN_REPORTS} "
          "gcs_report one-liners in ${DOC}, found ${count_gcs_run} run / "
          "${count_gcs_report} report")
endif()
message(STATUS "${count_gcs_run} gcs_run + ${count_gcs_report} gcs_report "
        "documented one-liner(s) OK")
