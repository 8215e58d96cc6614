# Guard for scripts/perf_compare.py's failure modes: every gate must fail
# LOUDLY (exit 2, "unusable input") when a benchmark shape or counter it
# depends on is absent, instead of silently passing with reduced
# coverage.  Two holes this pins closed:
#
#   a. A Hold shape present on only one side (renamed/dropped benchmark)
#      used to be quietly intersected away as long as any shared shape
#      survived.
#   b. A current run without the hw_threads counter used to downgrade the
#      sharded-speedup gate to "informational" -- a silent pass.
#
# Fixture benchmark JSONs are built with file(WRITE); no benchmark binary
# runs, so this costs milliseconds.
#
# Invoked in script mode by CTest with:
#   -DSRC_DIR=<repo root>  -DOUT_DIR=<scratch directory>

foreach(var SRC_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_perf_gate_guard.cmake: -D${var}=... is required")
  endif()
endforeach()

find_program(PYTHON3 NAMES python3 python REQUIRED)
set(PERF_COMPARE "${SRC_DIR}/scripts/perf_compare.py")
if(NOT EXISTS "${PERF_COMPARE}")
  message(FATAL_ERROR "missing ${PERF_COMPARE}")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# One fully-populated benchmark run: two Hold shapes (heap+calendar at
# 10000 and 20000 pending, continuous), the telemetry/sharded counters,
# and hw_threads.  Optional extra entries splice in before the
# closing bracket so variants can add or omit pieces.
function(write_run path hold_entries counters)
  file(WRITE "${path}" "{\"benchmarks\": [${hold_entries}${counters}]}")
endfunction()

set(HOLD_FULL "
  {\"name\": \"BM_EventQueue_Hold/10000/0/0\", \"run_type\": \"iteration\", \"cpu_time\": 400.0},
  {\"name\": \"BM_EventQueue_Hold/10000/1/0\", \"run_type\": \"iteration\", \"cpu_time\": 100.0},
  {\"name\": \"BM_EventQueue_Hold/20000/0/0\", \"run_type\": \"iteration\", \"cpu_time\": 900.0},
  {\"name\": \"BM_EventQueue_Hold/20000/1/0\", \"run_type\": \"iteration\", \"cpu_time\": 200.0},")
# Same shapes, only the 10000 pair (drops the 20000 shape).
set(HOLD_PARTIAL "
  {\"name\": \"BM_EventQueue_Hold/10000/0/0\", \"run_type\": \"iteration\", \"cpu_time\": 400.0},
  {\"name\": \"BM_EventQueue_Hold/10000/1/0\", \"run_type\": \"iteration\", \"cpu_time\": 100.0},")

set(COUNTERS_FULL "
  {\"name\": \"BM_TelemetryOverhead/iterations:25\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"telemetry_overhead_ratio\": 1.02},
  {\"name\": \"BM_ShardedHold/iterations:5\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"sharded_speedup_ratio\": 2.1, \"hw_threads\": 8}")
# hw_threads missing from the sharded entry (hole b).
set(COUNTERS_NO_HW "
  {\"name\": \"BM_TelemetryOverhead/iterations:25\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"telemetry_overhead_ratio\": 1.02},
  {\"name\": \"BM_ShardedHold/iterations:5\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"sharded_speedup_ratio\": 2.1}")
# Sharded counter gone entirely (the pre-existing loud failure, kept pinned).
set(COUNTERS_NO_SHARDED "
  {\"name\": \"BM_TelemetryOverhead/iterations:25\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"telemetry_overhead_ratio\": 1.02}")

write_run("${OUT_DIR}/baseline.json" "${HOLD_FULL}" "${COUNTERS_FULL}")
write_run("${OUT_DIR}/current_ok.json" "${HOLD_FULL}" "${COUNTERS_FULL}")
write_run("${OUT_DIR}/current_partial.json" "${HOLD_PARTIAL}" "${COUNTERS_FULL}")
write_run("${OUT_DIR}/current_no_hw.json" "${HOLD_FULL}" "${COUNTERS_NO_HW}")
write_run("${OUT_DIR}/current_no_sharded.json" "${HOLD_FULL}" "${COUNTERS_NO_SHARDED}")
# A genuine regression (heap/calendar speedup collapsed from 4x to 1x):
set(HOLD_REGRESSED "
  {\"name\": \"BM_EventQueue_Hold/10000/0/0\", \"run_type\": \"iteration\", \"cpu_time\": 100.0},
  {\"name\": \"BM_EventQueue_Hold/10000/1/0\", \"run_type\": \"iteration\", \"cpu_time\": 100.0},
  {\"name\": \"BM_EventQueue_Hold/20000/0/0\", \"run_type\": \"iteration\", \"cpu_time\": 200.0},
  {\"name\": \"BM_EventQueue_Hold/20000/1/0\", \"run_type\": \"iteration\", \"cpu_time\": 200.0},")
write_run("${OUT_DIR}/current_regressed.json" "${HOLD_REGRESSED}" "${COUNTERS_FULL}")

# Runs perf_compare against baseline.json and asserts exit code + message.
function(expect_exit current want_rc want_pattern what)
  execute_process(
    COMMAND "${PYTHON3}" "${PERF_COMPARE}"
            "${OUT_DIR}/baseline.json" "${OUT_DIR}/${current}"
            --min-sharded-speedup 1.5
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "${what}: expected exit ${want_rc}, got ${rc}\n"
            "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  if(want_pattern AND NOT "${stdout}${stderr}" MATCHES "${want_pattern}")
    message(FATAL_ERROR "${what}: exit ${rc} but output does not mention "
            "'${want_pattern}'\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
endfunction()

# Clean fixtures pass every gate.
expect_exit(current_ok.json 0 "within tolerance" "clean fixtures")
# Hole a: a dropped Hold shape must be unusable input, not a smaller gate.
expect_exit(current_partial.json 2 "pending=20000" "partial Hold overlap")
# Hole b: current run without hw_threads must be unusable input, not an
# informational downgrade of the sharded gate.
expect_exit(current_no_hw.json 2 "hw_threads" "missing hw_threads")
# The sharded counter vanishing entirely stays loud too.
expect_exit(current_no_sharded.json 2 "sharded_speedup_ratio" "missing sharded counter")
# A real regression still exits 1 (the guard must not have broken the
# actual comparison path).
expect_exit(current_regressed.json 1 "REGRESSION" "genuine regression")

message(STATUS "perf gate guard: partial shape overlap and missing "
        "hw_threads both exit 2; clean fixtures pass; regressions exit 1")
