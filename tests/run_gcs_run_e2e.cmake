# End-to-end CTest for gcs_run: drive the real binary through a 2-cell
# sweep in --check mode and validate the CSV artifact's shape, then hold
# every refusal of a retired axis or a value the engine cannot run.
#
# The header below intentionally duplicates csv_header() from
# src/cli/runner.cpp: the CSV is a public schema that CI and external
# consumers pin, so changing a column must fail this test until the test
# (and harness::kResultSchemaVersion) are updated deliberately.
include(${CMAKE_CURRENT_LIST_DIR}/e2e.cmake)

set(EXPECTED_HEADER
  "campaign,cell,n,workload,drift,delay,traffic,seed,horizon,sample_dt,samples,max_global_skew,global_skew_bound,global_margin,max_local_skew,local_skew_floor,global_violations,envelope_violations,monotonicity_failures,messages_sent,messages_delivered,messages_dropped,delivery_events,traffic_packets,traffic_dropped,ecn_marks,peak_queue_bytes,sync_delay_sum,sync_delay_max,events_executed,clamped_events,wall_ms,events_per_sec")

set(TREE "${OUT_DIR}/sweep")
e2e_run(gcs_run --name=e2e --n=6 --topology=ring --seeds=1,2 --horizon=20
        --sample_dt=0.5 --check --out "${TREE}")

foreach(artifact campaign.csv campaign.jsonl summary.json
        cells/000-s1.json cells/001-s2.json)
  if(NOT EXISTS "${TREE}/${artifact}")
    message(FATAL_ERROR "missing artifact ${TREE}/${artifact}")
  endif()
endforeach()

file(READ "${TREE}/campaign.csv" csv)
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
file(READ "${TREE}/campaign.jsonl" jsonl)
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
  e2e_run(gcs_run --n=6 --topology=ring ${flag} --list
          EXIT 2 STDERR "unknown option ${option}")
endforeach()

# Values the engine cannot run are refused up front, naming the field or
# spec: a non-finite horizon and delta_h = 0 used to hang the engine (a
# timeout leaves rc non-numeric), a delay outside [0, T] was clamped
# into a different distribution, rho = 1 and D = -1 failed without
# naming the field, and B0 = -5 ran as B0 = 0.
function(expect_refused flag pattern)
  e2e_run(gcs_run --n=8 --topology=ring --horizon=4 --T=1 ${flag} --quiet
          --out "${OUT_DIR}/refused" EXIT nonzero OUTPUT "${pattern}"
          TIMEOUT 10)
endfunction()
expect_refused(--horizon=nan "horizon must be finite")
expect_refused(--delta_h=0 "config key 'delta_h' must be > 0, got '0'")
expect_refused(--delay=constant:-1 "delay 'constant:-1'")
expect_refused(--delay=constant:5 "delay 'constant:5'")
expect_refused(--delay=uniform:0:5 "delay 'uniform:0:5'")
expect_refused(--rho=1 "config key 'rho' must be in \\(0, 1\\), got '1'")
expect_refused(--D=-1 "config key 'D' must be >= 0, got '-1'")
expect_refused(--B0=-5 "config key 'B0' must be >= 0")
# Model constants out of range are refused while the campaign expands,
# so --list exits 2 on them as on a bad spec; they used to list and then
# error every cell at run time.
function(expect_list_refused flag pattern)
  e2e_run(gcs_run --topology=ring ${flag} --list
          EXIT 2 STDERR "config key '${pattern}" TIMEOUT 10)
endfunction()
expect_list_refused(--rho=2 "rho' must be in \\(0, 1\\), got '2'")
expect_list_refused(--n=1 "n' must be >= 2, got '1'")
expect_list_refused(--delta_h=0 "delta_h' must be > 0, got '0'")
expect_list_refused(--horizon=0 "horizon' must be > 0, got '0'")
expect_list_refused(--B0=-1 "B0' must be >= 0 \\(0 selects min_b0\\), got '-1'")
expect_list_refused(--D=-1 "D' must be >= 0, got '-1'")
expect_list_refused(--sample_dt=0 "sample_dt' must be > 0, got '0'")
# A traffic spec whose backlog can pass 2^53 bytes (where peak_queue_bytes
# stops being an exact whole number) is refused up front, naming the knob.
expect_refused(--traffic=idle:msg=1e300:bw=1
               "traffic 'idle:msg=1e300:bw=1': 'msg' = 1e.300")
expect_refused(--traffic=idle:msg=1e18:bw=1
               "traffic 'idle:msg=1e18:bw=1': 'msg' = 1e.18")
# A value of the wrong kind names its field, and a token strtod reads as
# non-finite names its flag.
expect_refused(--horizon=abc "config key 'horizon' must be a number")
expect_refused(--n=2.5 "config key 'n' must be a whole number >= 0, got '2.5'")
expect_refused(--n=1e30 "config key 'n' must be a whole number >= 0")
expect_refused(--seed=-1 "config key 'seed' must be a whole number >= 0, got '-1'")
expect_refused(--shards=1.5 "config key 'shards' must be a whole number >= 0")
expect_refused(--seed=1e400 "--seed must be finite, got '1e400'")
# Numbers outside JSON's syntax: strtod read hex whole, so --n=0x10 ran
# as n = 16, and NaN/Inf traffic knobs ran (or broke the writer).
expect_refused(--n=0x10 "config key 'n' must be a whole number >= 0")
expect_refused(--traffic=idle:mark=nan "'mark' must be finite, got 'nan'")
expect_refused(--traffic=idle:msg=inf:bw=8000 "'msg' must be finite, got 'inf'")
expect_refused(--traffic=cbr:bw=0x1F40:rate=2 "'bw' must be a number, got '0x1F40'")
# A flow period the horizon cannot hold spun forever; a transmission time
# that overflows ended in the artifact writer with a partial tree.
expect_refused(--traffic=cbr:bw=1e-300:rate=1e300 "which cannot advance time")
expect_refused(--traffic=idle:msg=1e300:bw=1e-300 "non-finite transmission time")

# Every axis spec is checked while the campaign expands, so even --list
# exits 2 on a bad delay, traffic, variant, scenario, drift or topology
# before any cell runs, naming the axis.
foreach(bad "--delay=unifrom;delay 'unifrom'"
            "--traffic=cbr:rate=nope;traffic 'cbr:rate=nope'"
            "--variant=weigthed;variant 'weigthed'"
            "--scenario=churn:lifetime=nope;scenario 'churn:lifetime=nope'"
            "--drift=foo;drift 'foo': unknown kind .expected spread . walk . two-camp."
            "--topology=foo;topology 'foo': unknown kind .expected path . ring . star . complete."
            "--traffic=cbr:bw=1e-300:rate=1e300;'rate' = 1e.300 gives a flow period"
            "--traffic=idle:msg=1e300:bw=1e-300;'msg' = 1e.300 over 'bw' = 1e-300")
  list(GET bad 0 flag)
  list(GET bad 1 pattern)
  e2e_run(gcs_run --n=8 ${flag} --list EXIT 2 STDERR "${pattern}" TIMEOUT 10)
  if(e2e_stdout MATCHES "cell")
    message(FATAL_ERROR "gcs_run ${flag} --list listed cells:\n${e2e_stdout}")
  endif()
endforeach()

# Bad scenario knobs are refused at campaign validation, naming the
# knob: a non-positive churn lifetime used to error every cell at run
# time, and a fractional, negative or huge volatile_edges exited naming
# neither the knob nor the flag.
function(expect_scenario_refused spec pattern)
  e2e_run(gcs_run --n=6 --scenario=${spec} --quiet --out "${OUT_DIR}/refused"
          EXIT 2 OUTPUT "${pattern}" TIMEOUT 10)
endfunction()
expect_scenario_refused(churn:lifetime=-1 "'lifetime' must be > 0, got '-1'")
expect_scenario_refused(churn:lifetime=0 "'lifetime' must be > 0, got '0'")
expect_scenario_refused(churn:volatile_edges=2.5
                        "'volatile_edges' must be a whole number >= 0, got '2.5'")
expect_scenario_refused(churn:volatile_edges=-3
                        "'volatile_edges' must be a whole number >= 0, got '-3'")
expect_scenario_refused(churn:volatile_edges=1e30
                        "'volatile_edges' must be a whole number >= 0")
expect_scenario_refused(churn:lifetime=0x10 "'lifetime' must be a number, got '0x10'")

# The backbone-free example from gcs_run --help must pass --check under
# the default T + D = 3 (its connect_window is that window).
e2e_run(gcs_run --n=10
        --scenario=gauss-markov:alpha=0.85:backbone=false:connect_window=3
        --check --quiet --out "${OUT_DIR}/help-example")

message(STATUS "gcs_run e2e: 2-cell sweep ok, CSV schema intact, retired "
        "axes rejected, --horizon=nan, --delta_h=0, delays outside "
        "[0, T], --rho=1, --D=-1, --B0=-5, mistyped and non-finite "
        "values, bad churn knobs, hanging or overflowing traffic and bad "
        "drift or topology names refused, "
        "--help's gauss-markov example passes --check")
