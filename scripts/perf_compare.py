#!/usr/bin/env python3
"""Perf-smoke gate: ratio checks against a committed benchmark baseline.

Usage:
    perf_compare.py BENCH_baseline.json bench_current.json
        [--tolerance 2.0] [--min-pending 10000]
        [--max-telemetry-overhead 0.05]

Both files are ``bench_engine_perf --benchmark_format=json`` output.  Three
gates run, both on ratios measured within one process so they are
machine-portable (CI runners and dev laptops differ wildly in clock
speed, but the two sides of each ratio run seconds apart on the same
machine; turbo/co-tenancy noise moves both sides together and largely
cancels):

1. Queue speedup.  For every ``BM_EventQueue_Hold/<pending>/<policy>/
   <slotted>`` shape (policy 0 = heap, 1 = calendar) with pending >=
   --min-pending present in BOTH files,

       ratio = heap cpu_time / calendar cpu_time

   i.e. "how many times faster is the calendar queue".  The current run
   must keep at least 1/--tolerance of the baseline ratio; with the
   default 2.0 a >2x regression of the speedup fails.

2. Telemetry overhead.  ``BM_TelemetryOverhead`` runs one checked
   experiment without and with a full TelemetryRecorder attached, back to
   back in each iteration, and reports the quotient of the two arms'
   minimum wall times as the ``telemetry_overhead_ratio`` counter
   (minima, because interference only adds time).  The current run's
   ratio must stay below 1 + --max-telemetry-overhead (default 10%); the
   recorder contract says observation is passive, and this gate keeps it
   honest.  The baseline's ratio is reported alongside and must exist
   (so the committed baseline documents the overhead at the time it was
   cut).  The ceiling is RELATIVE to the simulation's own speed: when
   the struct-of-arrays kernel landed and more than halved the bare run
   time, the recorder's unchanged absolute cost doubled in relative terms
   (~2.7% -> ~6.5%), and the ceiling was re-cut from 5% to 10% to keep
   the same proportional headroom.

3. Sharded speedup.  ``BM_ShardedHold`` runs a 10k-node cell shards=1
   and shards=4 back to back per iteration and reports the median
   single/sharded wall-time quotient as ``sharded_speedup_ratio`` plus
   the host's ``hw_threads``.  The current run's ratio must be at least
   --min-sharded-speedup (default 1.5) -- but the floor is only ENFORCED
   when the current host reports >= 4 hardware threads; on smaller hosts
   (where four shards time-slice one core and the ratio measures
   scheduler overhead, not parallelism) the ratio is printed as
   informational.  The shapes must exist in both files either way, so a
   renamed or dropped benchmark still fails loudly.

If a benchmark was run with repetitions the median aggregate is preferred
over the raw iterations.

Exit codes: 0 pass, 1 regression, 2 unusable input.  Unusable means any
shape or counter a gate depends on is absent: an empty OR partial Hold
shape overlap (a shape present on only one side is a renamed/dropped
benchmark, not a smaller gate), a missing telemetry/sharded counter, or a current run without ``hw_threads`` (which would otherwise
silently downgrade the sharded gate to informational).  A renamed
benchmark must fail loudly, never skip the gate.
"""

import argparse
import json
import sys

HOLD_PREFIX = "BM_EventQueue_Hold/"
TELEMETRY_NAME = "BM_TelemetryOverhead"
TELEMETRY_COUNTER = "telemetry_overhead_ratio"
SHARDED_NAME = "BM_ShardedHold"
SHARDED_COUNTER = "sharded_speedup_ratio"
SHARDED_THREADS_COUNTER = "hw_threads"


def load_benchmarks(path):
    """The parsed benchmark entry list of one --benchmark_format=json file."""
    with open(path) as f:
        return json.load(f).get("benchmarks", [])


def hold_times(benchmarks):
    """name -> cpu_time for Hold benchmarks, preferring median aggregates."""
    times = {}
    have_aggregate = set()
    for bench in benchmarks:
        name = bench.get("name", "")
        base = bench.get("run_name", name)
        if not base.startswith(HOLD_PREFIX):
            continue
        run_type = bench.get("run_type", "iteration")
        if run_type == "aggregate":
            if bench.get("aggregate_name") != "median":
                continue
            times[base] = bench["cpu_time"]
            have_aggregate.add(base)
        elif base not in have_aggregate:
            times[base] = bench["cpu_time"]
    return times


def hold_ratios(times, min_pending):
    """(pending, slotted) -> heap_time / calendar_time."""
    ratios = {}
    for name, heap_time in times.items():
        fields = name[len(HOLD_PREFIX):].split("/")
        if len(fields) != 3 or fields[1] != "0":
            continue
        pending, slotted = int(fields[0]), fields[2]
        if pending < min_pending:
            continue
        calendar = times.get(f"{HOLD_PREFIX}{pending}/1/{slotted}")
        if calendar is None or calendar <= 0:
            continue
        ratios[(pending, "slotted" if slotted == "1" else "continuous")] = (
            heap_time / calendar
        )
    return ratios


def telemetry_ratio(benchmarks):
    """The telemetry_overhead_ratio counter, or None if absent.

    Prefers the smallest repetition's ratio: each repetition already
    reports a min-of-pairs quotient, and taking the best repetition
    discards the ones a co-tenant stomped on entirely.
    """
    ratios = []
    for bench in benchmarks:
        base = bench.get("run_name", bench.get("name", ""))
        # The registration pins iterations, which google-benchmark encodes
        # in the name ("BM_TelemetryOverhead/iterations:25"), so match on
        # the prefix.
        if not base.startswith(TELEMETRY_NAME):
            continue
        if bench.get("run_type", "iteration") == "aggregate":
            continue
        value = bench.get(TELEMETRY_COUNTER)
        if isinstance(value, (int, float)) and value > 0:
            ratios.append(value)
    return min(ratios) if ratios else None


def sharded_stats(benchmarks):
    """(best sharded_speedup_ratio, hw_threads) or (None, None) if absent.

    Best (max) over repetitions: each repetition's counter is already a
    median of per-pair quotients, and the best repetition is the one
    least disturbed by co-tenants.
    """
    ratios = []
    threads = None
    for bench in benchmarks:
        base = bench.get("run_name", bench.get("name", ""))
        # Pinned iterations encode in the name ("BM_ShardedHold/
        # iterations:5"), so match on the prefix.
        if not base.startswith(SHARDED_NAME):
            continue
        if bench.get("run_type", "iteration") == "aggregate":
            continue
        value = bench.get(SHARDED_COUNTER)
        if isinstance(value, (int, float)) and value > 0:
            ratios.append(value)
        hw = bench.get(SHARDED_THREADS_COUNTER)
        if isinstance(hw, (int, float)) and hw > 0:
            threads = int(hw)
    return (max(ratios) if ratios else None, threads)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="max allowed shrink factor of the ratio (default 2.0)")
    parser.add_argument("--min-pending", type=int, default=10000,
                        help="ignore Hold shapes below this population (default 10000)")
    parser.add_argument("--max-telemetry-overhead", type=float, default=0.10,
                        help="max fractional cpu-time cost of an attached "
                             "TelemetryRecorder (default 0.10 = 10%%)")
    parser.add_argument("--min-sharded-speedup", type=float, default=1.5,
                        help="min shards=4 vs shards=1 wall-clock ratio, "
                             "enforced only on hosts with >= 4 hardware "
                             "threads (default 1.5)")
    args = parser.parse_args()

    baseline_benchmarks = load_benchmarks(args.baseline)
    current_benchmarks = load_benchmarks(args.current)

    baseline = hold_ratios(hold_times(baseline_benchmarks), args.min_pending)
    current = hold_ratios(hold_times(current_benchmarks), args.min_pending)
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("perf_compare: no comparable BM_EventQueue_Hold shapes with "
              f"pending >= {args.min_pending} in both files -- "
              "was the benchmark renamed or the filter wrong?", file=sys.stderr)
        return 2
    # A partial overlap is just as unusable as an empty one: a shape that
    # exists on only one side means a benchmark was renamed, dropped, or
    # filtered out, and comparing the survivors would silently shrink the
    # gate's coverage.  Fail loudly and name the strays.
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))
    if only_baseline or only_current:
        def fmt(keys):
            return ", ".join(f"pending={k[0]}/{k[1]}" for k in keys)
        if only_baseline:
            print("perf_compare: Hold shape(s) in baseline but missing from "
                  f"current: {fmt(only_baseline)}", file=sys.stderr)
        if only_current:
            print("perf_compare: Hold shape(s) in current but missing from "
                  f"baseline: {fmt(only_current)}", file=sys.stderr)
        print("perf_compare: Hold shape sets must match exactly -- "
              "regenerate whichever file is stale", file=sys.stderr)
        return 2

    failures = 0
    print(f"{'shape':<24} {'baseline':>9} {'current':>9} {'floor':>9}  verdict")
    for key in shared:
        base_ratio = baseline[key]
        cur_ratio = current[key]
        floor = base_ratio / args.tolerance
        ok = cur_ratio >= floor
        failures += 0 if ok else 1
        shape = f"pending={key[0]}/{key[1]}"
        print(f"{shape:<24} {base_ratio:>8.2f}x {cur_ratio:>8.2f}x "
              f"{floor:>8.2f}x  {'ok' if ok else 'REGRESSION'}")

    base_telemetry = telemetry_ratio(baseline_benchmarks)
    cur_telemetry = telemetry_ratio(current_benchmarks)
    if base_telemetry is None or cur_telemetry is None:
        print(f"perf_compare: {TELEMETRY_NAME}'s {TELEMETRY_COUNTER} counter "
              f"missing from {'baseline' if base_telemetry is None else 'current'}"
              " -- regenerate the baseline with the telemetry benchmark in "
              "the filter", file=sys.stderr)
        return 2
    ceiling = 1.0 + args.max_telemetry_overhead
    telemetry_ok = cur_telemetry <= ceiling
    failures += 0 if telemetry_ok else 1
    print(f"{'telemetry-overhead':<24} {base_telemetry:>8.3f}x "
          f"{cur_telemetry:>8.3f}x {ceiling:>8.3f}x  "
          f"{'ok' if telemetry_ok else 'REGRESSION'} (ceiling)")

    base_sharded, _ = sharded_stats(baseline_benchmarks)
    cur_sharded, cur_threads = sharded_stats(current_benchmarks)
    if base_sharded is None or cur_sharded is None:
        print(f"perf_compare: {SHARDED_NAME}'s {SHARDED_COUNTER} counter "
              f"missing from {'baseline' if base_sharded is None else 'current'}"
              " -- regenerate the baseline with the sharded benchmark in "
              "the filter", file=sys.stderr)
        return 2
    if cur_threads is None:
        # Without the host's thread count the small-host carve-out cannot be
        # decided, and defaulting to "informational" would let a renamed or
        # dropped counter silently disable the gate.
        print(f"perf_compare: {SHARDED_NAME}'s {SHARDED_THREADS_COUNTER} "
              "counter missing from current -- the sharded gate cannot tell "
              "whether this host qualifies for enforcement; regenerate the "
              "run with the counter intact", file=sys.stderr)
        return 2
    enforced = cur_threads >= 4
    sharded_ok = (not enforced) or cur_sharded >= args.min_sharded_speedup
    failures += 0 if sharded_ok else 1
    verdict = ("ok" if sharded_ok else "REGRESSION") if enforced else \
        f"informational ({cur_threads} hw thread(s))"
    print(f"{'sharded-speedup':<24} {base_sharded:>8.2f}x "
          f"{cur_sharded:>8.2f}x {args.min_sharded_speedup:>8.2f}x  {verdict}")

    if failures:
        print(f"\nperf_compare: {failures} gate(s) failed "
              f"(speedup floor {args.tolerance}x, telemetry ceiling "
              f"{ceiling:.3f}x, sharded floor {args.min_sharded_speedup}x)",
              file=sys.stderr)
        return 1
    print(f"\nperf_compare: all {len(shared)} Hold shape(s), the "
          "telemetry-overhead gate, and the sharded-speedup gate within "
          "tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
