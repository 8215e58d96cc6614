# End-to-end CTest for gcs_run: drive the real binary through a 2-cell
# sweep in --check mode and validate the CSV artifact's shape.
#
# Invoked in script mode by CTest (see add_test in the top-level
# CMakeLists) with:
#   -DGCS_RUN=<path to the built gcs_run>
#   -DOUT_DIR=<scratch directory for the results tree>
#
# The header below intentionally duplicates csv_header() from
# src/cli/runner.cpp: the CSV is a public schema that CI and external
# consumers pin, so changing a column must fail this test until the test
# (and harness::kResultSchemaVersion) are updated deliberately.
set(EXPECTED_HEADER
  "campaign,cell,n,workload,drift,delay,traffic,seed,horizon,sample_dt,samples,max_global_skew,global_skew_bound,global_margin,max_local_skew,local_skew_floor,global_violations,envelope_violations,monotonicity_failures,messages_sent,messages_delivered,messages_dropped,delivery_events,traffic_packets,traffic_dropped,ecn_marks,peak_queue_bytes,sync_delay_sum,sync_delay_max,events_executed,clamped_events,wall_ms,events_per_sec")

if(NOT GCS_RUN OR NOT EXISTS "${GCS_RUN}")
  message(FATAL_ERROR "gcs_run binary not found: '${GCS_RUN}'")
endif()
if(NOT OUT_DIR)
  message(FATAL_ERROR "OUT_DIR not set")
endif()

file(REMOVE_RECURSE "${OUT_DIR}" "${OUT_DIR}-refused"
     "${OUT_DIR}-help-example")

execute_process(
  COMMAND "${GCS_RUN}"
          --name=e2e --n=6 --topology=ring --seeds=1,2
          --horizon=20 --sample_dt=0.5 --check --out "${OUT_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gcs_run exited ${rc}\nstdout:\n${stdout}\nstderr:\n${stderr}")
endif()

foreach(artifact campaign.csv campaign.jsonl summary.json
        cells/000-s1.json cells/001-s2.json)
  if(NOT EXISTS "${OUT_DIR}/${artifact}")
    message(FATAL_ERROR "missing artifact ${OUT_DIR}/${artifact}")
  endif()
endforeach()

file(READ "${OUT_DIR}/campaign.csv" csv)
string(REGEX REPLACE "\n+$" "" csv "${csv}")
string(REPLACE "\n" ";" lines "${csv}")
list(LENGTH lines line_count)
if(NOT line_count EQUAL 3)
  message(FATAL_ERROR "expected header + 2 rows in campaign.csv, got ${line_count} lines:\n${csv}")
endif()

list(GET lines 0 header)
if(NOT header STREQUAL EXPECTED_HEADER)
  message(FATAL_ERROR "CSV header drifted.\nexpected: ${EXPECTED_HEADER}\ngot:      ${header}")
endif()

string(REGEX MATCHALL "," header_commas "${EXPECTED_HEADER}")
list(LENGTH header_commas expected_commas)
foreach(row_index 1 2)
  list(GET lines ${row_index} row)
  if(NOT row MATCHES "^e2e,")
    message(FATAL_ERROR "row ${row_index} does not belong to campaign 'e2e': ${row}")
  endif()
  string(REGEX MATCHALL "," row_commas "${row}")
  list(LENGTH row_commas actual_commas)
  if(NOT actual_commas EQUAL expected_commas)
    message(FATAL_ERROR "row ${row_index} has ${actual_commas} commas, header has ${expected_commas}: ${row}")
  endif()
endforeach()

# The JSONL must carry one line per cell as well.
file(READ "${OUT_DIR}/campaign.jsonl" jsonl)
string(REGEX REPLACE "\n+$" "" jsonl "${jsonl}")
string(REPLACE "\n" ";" jsonl_lines "${jsonl}")
list(LENGTH jsonl_lines jsonl_count)
if(NOT jsonl_count EQUAL 2)
  message(FATAL_ERROR "expected 2 JSONL lines, got ${jsonl_count}")
endif()

# The store, engine and delivery axes are retired: each flag is an
# unknown key (exit 2, named), not a silently ignored one.
foreach(flag --store=columns --engine=heap --delivery=batched)
  string(REGEX REPLACE "=.*" "" option "${flag}")
  execute_process(
    COMMAND "${GCS_RUN}" --n=6 --topology=ring ${flag} --list
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 2 OR NOT stderr MATCHES "unknown option ${option}")
    message(FATAL_ERROR "gcs_run ${flag}: expected exit 2 naming the "
            "unknown option, got ${rc}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
endforeach()

# Values the engine cannot run are refused up front, naming the field or
# spec: a non-finite horizon and delta_h = 0 used to hang the engine (a
# timeout leaves rc non-numeric), a delay outside [0, T] was clamped
# into a different distribution, rho = 1 and D = -1 failed without
# naming the field, and B0 = -5 ran as B0 = 0.
function(expect_refused flag pattern)
  execute_process(
    COMMAND "${GCS_RUN}" --n=8 --topology=ring --horizon=4 --T=1 ${flag}
            --quiet --out "${OUT_DIR}-refused"
    RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
    TIMEOUT 10)
  if(NOT rc MATCHES "^[1-9][0-9]*$" OR NOT "${stdout}${stderr}" MATCHES
     "${pattern}")
    message(FATAL_ERROR "gcs_run ${flag}: expected a prompt non-zero exit "
            "naming '${pattern}', got ${rc}\n${stdout}\n${stderr}")
  endif()
endfunction()
expect_refused(--horizon=nan "horizon must be finite")
expect_refused(--delta_h=0 "delta_h must be")
expect_refused(--delay=constant:-1 "delay 'constant:-1'")
expect_refused(--delay=constant:5 "delay 'constant:5'")
expect_refused(--delay=uniform:0:5 "delay 'uniform:0:5'")
expect_refused(--rho=1 "rho must be in")
expect_refused(--D=-1 "D must be >= 0")
expect_refused(--B0=-5 "B0 must be >= 0")
# A value of the wrong kind names its field, and a token strtod reads as
# non-finite names its flag.
expect_refused(--horizon=abc "config key 'horizon' must be a number")
expect_refused(--n=2.5 "config key 'n' must be a whole number >= 0, got '2.5'")
expect_refused(--n=1e30 "config key 'n' must be a whole number >= 0")
expect_refused(--seed=-1 "config key 'seed' must be a whole number >= 0, got '-1'")
expect_refused(--shards=1.5 "config key 'shards' must be a whole number >= 0")
expect_refused(--seed=1e400 "--seed must be finite, got '1e400'")

# Bad scenario knobs are refused at campaign validation, naming the
# knob: a non-positive churn lifetime used to error every cell at run
# time, and a fractional, negative or huge volatile_edges exited naming
# neither the knob nor the flag.
function(expect_scenario_refused spec pattern)
  execute_process(
    COMMAND "${GCS_RUN}" --n=6 --scenario=${spec} --quiet
            --out "${OUT_DIR}-refused"
    RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
    TIMEOUT 10)
  if(NOT rc EQUAL 2 OR NOT "${stdout}${stderr}" MATCHES "${pattern}")
    message(FATAL_ERROR "gcs_run --scenario=${spec}: expected exit 2 "
            "naming '${pattern}', got ${rc}\n${stdout}\n${stderr}")
  endif()
endfunction()
expect_scenario_refused(churn:lifetime=-1 "'lifetime' must be > 0, got '-1'")
expect_scenario_refused(churn:lifetime=0 "'lifetime' must be > 0, got '0'")
expect_scenario_refused(churn:volatile_edges=2.5
                        "'volatile_edges' must be a whole number >= 0, got '2.5'")
expect_scenario_refused(churn:volatile_edges=-3
                        "'volatile_edges' must be a whole number >= 0, got '-3'")
expect_scenario_refused(churn:volatile_edges=1e30
                        "'volatile_edges' must be a whole number >= 0")

# The backbone-free example from gcs_run --help must pass --check under
# the default T + D = 3 (its connect_window is that window).
execute_process(
  COMMAND "${GCS_RUN}" --n=10
          --scenario=gauss-markov:alpha=0.85:backbone=false:connect_window=3
          --check --quiet --out "${OUT_DIR}-help-example"
  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gcs_run --help's gauss-markov example exited ${rc}\n"
          "${stdout}\n${stderr}")
endif()

message(STATUS "gcs_run e2e: 2-cell sweep ok, CSV schema intact, retired "
        "axes rejected, --horizon=nan, --delta_h=0, delays outside "
        "[0, T], --rho=1, --D=-1, --B0=-5, mistyped and non-finite "
        "values and bad churn knobs refused, "
        "--help's gauss-markov example passes --check")
