#!/usr/bin/env python3
"""The repo benchmark: four gcs_run workloads, measured end to end and by layer.

One workload, one seed, one kind of pass (the form every run takes):

    python3 bench/suite/run.py --workload W --seed S --seconds N --trace 0|1

  --trace 0 reruns the workload's gcs_run process, one process at a time,
  for N seconds and reports the end-to-end metrics: medians over the
  processes, with times scaled to the reference host speed (see
  CALIB_REFERENCE_S).  Set-up time comes from separate probe processes.
  --trace 1 runs the traced pass once and reports the per-layer metrics.
  The last stdout line is {"correct", "attempted", "failed", "metrics"}.

Every workload, round-robin, then one traced pass each:

    python3 bench/suite/run.py [--seed S] [--reps R] [--workloads a,b] [--out DIR]

  prints one "<workload> <metric> <value> <unit>" line per metric and writes
  <out>/results-seed<S>-<time>.json (default out: results/bench).

    python3 bench/suite/run.py compare BASE.json HEAD.json
    python3 bench/suite/run.py --smoke
    python3 bench/suite/run.py --regen-expected

Metric names, units, directions and bounds are declared in BENCHMARK.json;
bench/suite/README.md explains each one.  Exit codes: 0 ok, 1 a failed cell
(check, error or trajectory digest), 2 an unusable host or build.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = ROOT / "bench" / "suite"
BUILD = ROOT / ".bench_build"
GCS_RUN = BUILD / "gcs" / "gcs_run"
PROBE = BUILD / "gcs_bench_probe"

# jobs: gcs_run --jobs.  smoke: the ~1/100-scale overrides of --smoke
# ("seed_count" shortens the seed axis, every other key is a gcs_run flag).
WORKLOADS = {
    "churn_100k": {"jobs": 1, "smoke": {"n": "1000"}},
    "sharded_churn": {"jobs": 1, "smoke": {"n": "500"}},
    "contention_load": {"jobs": 1, "smoke": {"n": "20"}},
    "frontier_sweep": {"jobs": 2, "smoke": {"seed_count": 1}},
}

# A measured run starts set-up probe processes until it has at least
# SETUP_PROCESSES of them and SETUP_SECONDS have passed (a frontier_sweep
# set-up is ~35 ms, a churn_100k one ~0.6 s), then gcs_run processes until
# it has at least MIN_PROCESSES and --seconds have passed.
SETUP_PROCESSES = 5
SETUP_SECONDS = 2.0
MIN_PROCESSES = 3

# The probe's calibration loop time on an idle 4-vCPU 2 GHz Xeon VM.
# Reported times are scaled by CALIB_REFERENCE_S / (the loop time measured
# around each process), which divides out the host's speed at that moment:
# on a shared host the same process can take 1x to 3x its idle time.
CALIB_REFERENCE_S = 0.113

MIN_CPUS = 4                # sharded_churn runs 4 shard threads
MIN_MEM_AVAILABLE_GB = 2.0  # the largest process here peaks near 0.9 GB

# Per-layer metrics that are deterministic counters: compare reports them
# as same/differs instead of with a spread.
EXACT_COUNTERS = {
    "sim.events", "sim.max_pending", "sim.shard_windows",
    "sim.shard_staged_events", "net.windows_checked", "net.topology_events",
    "net.link.packets", "net.link.dropped", "net.link.marks",
    "core.messages_delivered", "core.jumps", "harness.samples",
    "cli.artifact_files",
}

# Cell-document fields left out of the trajectory digest: the timing and
# memory fields gcs_diff ignores, the scheduler's own counters, and the
# execution-layout echoes, none of which describe the trajectory.
DIGEST_STRIP = {
    (): ("wall_ms", "events_per_sec"),
    ("result",): ("engine_stats",),
    ("result", "run_stats"): ("peak_rss_kb", "arena_bytes"),
    ("config",): ("engine", "delivery", "shards", "store"),
}


class Unusable(Exception):
    """The host or the build cannot produce a valid measurement (exit 2)."""


# ---------------------------------------------------------------------------
# Host and build
# ---------------------------------------------------------------------------

def read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cmake_cache(key):
    for line in read_text(BUILD / "CMakeCache.txt").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def host_facts():
    meminfo = dict(line.split(":", 1) for line in read_text("/proc/meminfo").splitlines() if ":" in line)
    cpu_model = next((line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), None)
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        compiler = out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else compiler
    git_sha = git_dirty = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True)
        if sha.returncode == 0:
            git_sha, git_dirty = sha.stdout.strip(), bool(status.stdout.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3": read_text("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or None,
        "mem_available_gb": int(meminfo.get("MemAvailable", "0 kB").split()[0]) / 2**20,
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_sha": git_sha,
        "git_dirty": git_dirty,
    }


def check_host():
    facts = host_facts()
    if facts["nproc"] < MIN_CPUS:
        raise Unusable(f"{facts['nproc']} usable CPUs, need {MIN_CPUS} (sharded_churn runs 4 shard threads)")
    if facts["mem_available_gb"] < MIN_MEM_AVAILABLE_GB:
        raise Unusable(f"MemAvailable {facts['mem_available_gb']:.1f} GB < {MIN_MEM_AVAILABLE_GB} GB")


def build():
    """Configures (once) and builds gcs_run and the probe in Release."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        raise Unusable(f"no simulator sources under {ROOT}")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(len(os.sched_getaffinity(0))),
                  "--target", "gcs_run", "gcs_bench_probe"])
    for cmd in steps:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            raise Unusable(f"{' '.join(cmd)} failed:\n{(out.stdout + out.stderr)[-3000:]}")
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise Unusable(f"CMAKE_BUILD_TYPE is {build_type!r}, not Release")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def campaign_path(workload):
    return SUITE / "workloads" / f"{workload}.json"


def overrides(workload, seed, smoke):
    """gcs_run --key=value flags: the seed axis from S, plus smoke scaling."""
    doc = json.loads(campaign_path(workload).read_text())
    count = doc["sweep"]["seeds"]["count"]
    flags = {}
    if smoke:
        flags = dict(WORKLOADS[workload]["smoke"])
        count = flags.pop("seed_count", count)
    flags["seeds"] = f"{seed}..{seed + count - 1}"
    return [f"--{k}={v}" for k, v in flags.items()]


def gcs_run(workload, seed, out_dir, smoke=False, extra=()):
    """One untraced gcs_run process over the workload, with --check.

    Launched through the probe's spawn mode, which reports the process's
    wall time, CPU time, peak RSS and the host-speed calibration time
    around it.  Failures are the cells gcs_run's
    audit flagged plus, for a run with no extra flags, the cells whose
    trajectory digest differs from the committed one."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    log_path = out_dir.parent / f"{out_dir.name}.log"
    args = [str(PROBE), "spawn", str(GCS_RUN), "--campaign", str(campaign_path(workload)),
            *overrides(workload, seed, smoke), *extra, "--check", "--quiet",
            "--jobs", str(WORKLOADS[workload]["jobs"]), "--out", str(out_dir)]
    with open(log_path, "w") as log:
        subprocess.run(args, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    lines = read_text(log_path).splitlines()
    spawn = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    summary_path = out_dir / "summary.json"
    if spawn.get("exit") not in (0, 1) or not summary_path.exists():
        raise Unusable(f"gcs_run on {workload} failed:\n" + "\n".join(lines[-30:]))
    docs = {}
    for path in sorted((out_dir / "cells").glob("*.json")):
        doc = json.loads(path.read_text())
        docs[doc["cell"]] = doc
    failures = [line.strip() for line in lines if line.startswith("  check: ")]
    if not extra:
        failures += check_digests(docs, workload, seed, smoke)
    return {
        "wall_s": spawn["wall_s"],
        "cpu_s": spawn["cpu_s"],
        "peak_rss_mb": spawn["peak_rss_kb"] / 1024.0,
        "calib_s": spawn["calib_s"],
        "cells": json.loads(summary_path.read_text())["cells"],
        "node_s": node_seconds(docs),
        "docs": docs,
        "failures": failures,
        "out_dir": out_dir,
    }


def probe(mode, workload, seed, smoke=False, spans=None):
    args = [str(PROBE), mode, "--campaign", str(campaign_path(workload)), *overrides(workload, seed, smoke)]
    if spans:
        args += ["--spans", str(spans)]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    if out.returncode not in (0, 1) or not out.stdout.strip():
        raise Unusable(f"gcs_bench_probe {mode} on {workload} exited {out.returncode}:\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Trajectory digests
# ---------------------------------------------------------------------------

def digest(doc):
    doc = copy.deepcopy(doc)
    for path, keys in DIGEST_STRIP.items():
        node = doc
        for key in path:
            node = node[key]
        for key in keys:
            node.pop(key, None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def expected_path(workload, seed):
    return SUITE / "expected" / f"{workload}.seed{seed}.json"


def digest_failures(docs, expected):
    """One message per cell whose digest differs from `expected` (or is missing)."""
    got = {label: digest(doc) for label, doc in docs.items()}
    return [f"digest: {label}: expected {want[:12]}, got {(got.get(label) or 'no cell')[:12]}"
            for label, want in sorted(expected.items()) if got.get(label) != want] + \
           [f"digest: {label}: unexpected cell" for label in sorted(set(got) - set(expected))]


def check_digests(docs, workload, seed, smoke):
    """Seed-1 runs at full scale are held to the committed digests."""
    path = expected_path(workload, seed)
    if smoke or not path.exists():
        return []
    return digest_failures(docs, json.loads(path.read_text())["cells"])


def failed_cells(messages):
    """Distinct cells named in one process's failure messages
    ("<kind>: <label>: ...")."""
    return len({m.split(": ")[1] for m in messages})


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    decl = {kind: {m["name"]: m for m in doc[kind]} for kind in ("end_to_end", "per_layer")}
    decl["run_seconds"] = doc["run_seconds"]
    return decl


def node_seconds(docs):
    return sum(d["config"]["n"] * d["config"]["horizon"] for d in docs.values())


def end_to_end(runs, setups):
    """Per-process samples of each end-to-end metric.  Times are scaled to
    the reference host speed: multiplied by CALIB_REFERENCE_S over the
    calibration time the probe measured around that process."""
    def scaled(item, key):
        return item[key] * CALIB_REFERENCE_S / item["calib_s"]

    return {
        "wall_s": [scaled(r, "wall_s") for r in runs],
        "node_s_per_s": [r["node_s"] / scaled(r, "wall_s") for r in runs],
        "cpu_s": [scaled(r, "cpu_s") for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "setup_s": [scaled(s, "setup_s") for s in setups],
    }


def raw_times(runs, setups):
    """The unscaled samples behind end_to_end(), kept in the results file."""
    return {
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "setup_s": [s["setup_s"] for s in setups],
        "calib_s": [r["calib_s"] for r in runs] + [s["calib_s"] for s in setups],
    }


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer(workload, run, twin, traced):
    """Layer metrics from the untraced run's cell documents (counters), its
    shards=1 twin (wall ratio) and the probe's traced pass (spans)."""
    docs = list(run["docs"].values())
    res = [d["result"] for d in docs]
    stats = [r["run_stats"] for r in res]
    eng = [r["engine_stats"] for r in res]
    spans = traced["spans"]
    cells = len(docs)

    def total(items, key):
        return sum(i[key] for i in items)

    def span_s(name):
        return spans[name]["total_s"]

    events = total(res, "events_executed")
    sent = total(stats, "messages_sent")
    cell_ms = [d["wall_ms"] for d in docs]
    files = [p for p in run["out_dir"].rglob("*") if p.is_file()]
    return {
        "sim.events": events,
        "sim.events_per_s": events / (sum(cell_ms) / 1e3),
        "sim.max_pending": max(e["max_pending"] for e in eng),
        "sim.calendar_scans_per_event": total(eng, "calendar_bucket_scans") / events,
        "sim.replay_mev_s.calendar": traced["sends"] / span_s("sim.replay.calendar") / 1e6,
        "sim.replay_mev_s.heap": traced["sends"] / span_s("sim.replay.heap") / 1e6,
        "sim.shard_windows": total(eng, "shard_windows"),
        "sim.shard_staged_events": total(eng, "shard_staged_events"),
        "sim.shards1_twin_ratio": twin["wall_s"] / run["wall_s"],
        "net.scenario_s": span_s("cli.instantiate"),
        "net.graph_build_s": span_s("net.to_dynamic_graph"),
        "net.audit_s": span_s("net.audit_interval_connectivity"),
        "net.windows_checked": total(stats, "connectivity_windows_checked"),
        "net.topology_events": total(stats, "topology_events_applied"),
        "net.link.packets": total(stats, "traffic_packets"),
        "net.link.dropped": total(stats, "traffic_dropped"),
        "net.link.marks": total(stats, "ecn_marks"),
        "net.link.sync_delay_mean_s": total(stats, "sync_delay_sum") / sent,
        "core.messages_delivered": total(stats, "messages_delivered"),
        "core.drop_frac": total(stats, "messages_dropped") / sent,
        "core.delivery_events_per_msg": total(stats, "delivery_events") / sent,
        "core.jumps": total(stats, "jumps"),
        "core.arena_bytes_per_node": total(stats, "arena_bytes") / sum(d["config"]["n"] for d in docs),
        "core.rss_attributed_frac": max(s["arena_bytes"] for s in stats) / (run["peak_rss_mb"] * 2**20),
        "core.build_s": span_s("core.build"),
        "harness.run_s": span_s("harness.run_experiment"),
        "harness.samples": total(res, "samples"),
        "harness.serialize_ms_per_cell": span_s("harness.serialize") * 1e3 / cells,
        "obs.trace_overhead": span_s("harness.run_experiment") / (sum(cell_ms) / 1e3),
        "cli.cell_ms_p50": nearest_rank(cell_ms, 0.5),
        "cli.cell_ms_p99": nearest_rank(cell_ms, 0.99),
        "cli.pool_busy_frac": sum(cell_ms) / 1e3 / (WORKLOADS[workload]["jobs"] * run["wall_s"]),
        "cli.artifact_mb": sum(p.stat().st_size for p in files) / 2**20,
        "cli.artifact_files": len(files),
        "cli.build_campaign_s": span_s("cli.build_campaign"),
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, out, smoke=False):
    """End-to-end pass: set-up probes, then gcs_run processes for `seconds`."""
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_PROCESSES or time.perf_counter() - start < SETUP_SECONDS:
        setups.append(probe("setup", workload, seed, smoke))
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_PROCESSES or time.perf_counter() - start < seconds:
        runs.append(without_docs(gcs_run(workload, seed, out / workload / "run", smoke)))
    return finish_e2e(runs, setups)


def without_docs(run):
    """Drops the parsed cell documents: every gcs_run process is launched
    from this interpreter, so its memory should stay small."""
    run.pop("docs")
    return run


def finish_e2e(runs, setups):
    per_process = [r["failures"] for r in runs] + [[f"setup: {m}" for m in s["failures"]] for s in setups]
    return {
        "attempted": sum(r["cells"] for r in runs) + sum(s["cells"] for s in setups),
        "failed": sum(failed_cells(f) for f in per_process),
        "failures": [m for f in per_process for m in f],
        "end_to_end": end_to_end(runs, setups),
        "raw": raw_times(runs, setups),
    }


def traced_pass(workload, seed, out, smoke=False):
    """Per-layer pass: an untraced run, its shards=1 twin, the traced probe."""
    run = gcs_run(workload, seed, out / workload / "run", smoke)
    twin = gcs_run(workload, seed, out / workload / "twin", smoke, extra=["--shards=1"])
    traced = probe("trace", workload, seed, smoke, spans=out / f"{workload}.spans.json")
    twin_failures = list(twin["failures"])
    if all(d["config"]["shards"] >= 1 for d in run["docs"].values()):
        # Every shard count >= 1 is one deterministic universe, so the
        # shards=1 twin must reproduce the run's trajectories exactly.
        twin_failures += [m.replace("digest:", "twin:", 1)
                          for m in digest_failures(twin["docs"], {k: digest(d) for k, d in run["docs"].items()})]
    per_process = [run["failures"], twin_failures, [f"probe: {m}" for m in traced["failures"]]]
    return {
        "attempted": run["cells"] + twin["cells"] + traced["cells"],
        "failed": sum(failed_cells(f) for f in per_process),
        "failures": [m for f in per_process for m in f],
        "per_layer": per_layer(workload, run, twin, traced),
    }


def summarize(result, decl):
    """Metric name -> {"value", "unit"}, checked against BENCHMARK.json."""
    kind = "end_to_end" if "end_to_end" in result else "per_layer"
    values = {name: statistics.median(v) if kind == "end_to_end" else v for name, v in result[kind].items()}
    if set(values) != set(decl[kind]):
        raise AssertionError(f"{kind} metrics {sorted(values)} != BENCHMARK.json {sorted(decl[kind])}")
    return {name: {"value": values[name], "unit": decl[kind][name]["unit"]} for name in decl[kind]}


def report(workload, result, metrics):
    for name, m in metrics.items():
        samples = result.get("end_to_end", {}).get(name)
        n = f" (n={len(samples)})" if samples else ""
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}{n}")
    for name, samples in result.get("raw", {}).items():
        print(f"{workload} unscaled {name} {statistics.median(samples):.6g} s (n={len(samples)})")
    for message in result["failures"]:
        print(f"{workload} FAILED {message}")


def write_results(path, seed, results):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"host": host_facts(), "seed": seed, "workloads": results}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def single(args):
    decl = declared()
    if args.trace:
        result = traced_pass(args.workload, args.seed, args.out, args.smoke)
    else:
        seconds = decl["run_seconds"] if args.seconds is None else args.seconds
        result = measure(args.workload, args.seed, seconds, args.out, args.smoke)
    metrics = summarize(result, decl)
    report(args.workload, result, metrics)
    write_results(args.out / f"{args.workload}.seed{args.seed}.trace{int(args.trace)}.json",
                  args.seed, {args.workload: result})
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["failed"] == 0 else 1


def suite(args, smoke=False):
    decl = declared()
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        raise SystemExit(f"run.py: unknown workload(s) {unknown}; known: {list(WORKLOADS)}")
    reps = 1 if smoke else args.reps
    runs = {w: [] for w in names}
    setups = {w: [] for w in names}
    # Round-robin, so host-load drift spreads over every workload alike.
    failed = 0
    for _ in range(reps):
        for w in names:
            setups[w].append(probe("setup", w, args.seed, smoke))
            run = gcs_run(w, args.seed, args.out / w / "run", smoke)
            if smoke:
                failed += smoke_digest_selftest(w, run)
            runs[w].append(without_docs(run))
    results = {}
    for w in names:
        e2e = finish_e2e(runs[w], setups[w])
        layers = traced_pass(w, args.seed, args.out, smoke)
        results[w] = {
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "failures": e2e["failures"] + layers["failures"],
            "end_to_end": e2e["end_to_end"],
            "raw": e2e["raw"],
            "per_layer": layers["per_layer"],
        }
        report(w, results[w], {**summarize(e2e, decl), **summarize(layers, decl)})
        failed += results[w]["failed"]
    if not smoke:
        stamp = time.strftime("%Y%m%dT%H%M%S")
        print(f"results: {write_results(args.out / f'results-seed{args.seed}-{stamp}.json', args.seed, results)}")
    return 0 if failed == 0 else 1


def smoke_digest_selftest(workload, run):
    """A doctored expected digest must be caught; returns 1 if it is not."""
    expected = {label: digest(doc) for label, doc in run["docs"].items()}
    label = sorted(expected)[0]
    expected[label] = "0" * 64
    if failed_cells(digest_failures(run["docs"], expected)) == 1:
        return 0
    print(f"{workload} FAILED smoke: a doctored digest for {label} was not caught")
    return 1


def regen_expected(args):
    seed = 1
    for w in WORKLOADS:
        run = gcs_run(w, seed, args.out / w / "run")
        checks = [m for m in run["failures"] if m.startswith("check: ")]
        if checks:
            print(f"{w}: refusing to write digests, --check failed:\n" + "\n".join(checks))
            return 1
        doc = {"workload": w, "seed": seed, "cells": {k: digest(d) for k, d in run["docs"].items()}}
        expected_path(w, seed).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"{w}: {len(doc['cells'])} digest(s) -> {expected_path(w, seed).relative_to(ROOT)}")
    return 0


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def verdict(base, head, bound, lower_is_better):
    """better / worse / unchanged / unresolved for two sample lists: a
    median that moved by more than the bound is better or worse, unless a
    side's quartile spread exceeds the bound and not every head sample
    beats every base sample, which is unresolved."""
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (hm - bm) / bm  # > 0 means worse
    all_better = all(sign * h < sign * b for h in head for b in base)
    if ((b3 - b1) / bm > bound or (h3 - h1) / hm > bound) and not all_better:
        return "unresolved", (b1, bm, b3), (h1, hm, h3)
    if change > bound:
        return "worse", (b1, bm, b3), (h1, hm, h3)
    if -change > bound:
        return "better", (b1, bm, b3), (h1, hm, h3)
    return "unchanged", (b1, bm, b3), (h1, hm, h3)


def compare(base_path, head_path):
    decl = declared()
    base = json.loads(Path(base_path).read_text())["workloads"]
    head = json.loads(Path(head_path).read_text())["workloads"]
    worse = 0
    print("workload metric base[q1 med q3 n] head[q1 med q3 n] bound verdict")
    for w in sorted(set(base) & set(head)):
        for name, m in decl["end_to_end"].items():
            if name not in base[w].get("end_to_end", {}) or name not in head[w].get("end_to_end", {}):
                continue
            b, h = base[w]["end_to_end"][name], head[w]["end_to_end"][name]
            v, bq, hq = verdict(b, h, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            print(f"{w} {name} [{bq[0]:.4g} {bq[1]:.4g} {bq[2]:.4g} {len(b)}] "
                  f"[{hq[0]:.4g} {hq[1]:.4g} {hq[2]:.4g} {len(h)}] {m['bound']} {v}")
        for name in decl["per_layer"]:
            if name not in base[w].get("per_layer", {}) or name not in head[w].get("per_layer", {}):
                continue
            b, h = base[w]["per_layer"][name], head[w]["per_layer"][name]
            v = ("same" if b == h else "differs") if name in EXACT_COUNTERS else "layer"
            worse += v == "differs"
            print(f"{w} {name} {b:.6g} {h:.6g} - {v}")
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare BASE.json HEAD.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--workloads", help="comma list (suite mode; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "results" / "bench")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 1 or args.reps < 1:
        parser.error("--seed and --reps must be >= 1")
    args.out = args.out.resolve()
    try:
        check_host()
        build()
        if args.regen_expected:
            return regen_expected(args)
        if args.workload:
            return single(args)
        return suite(args, smoke=args.smoke)
    except Unusable as e:
        print(f"run.py: unusable host or build: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
