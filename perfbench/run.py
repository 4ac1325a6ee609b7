#!/usr/bin/env python3
"""CellFi benchmark runner (see README.md in this directory).

  python3 perfbench/run.py --workload cellfi_256 --seed 3 --seconds 55 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/, then starts one
fresh cellfi_perfbench process per sample until --seconds have passed. The
last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--self-check runs every workload at tiny sizes and checks the metric names
against BENCHMARK.json and the per-layer sums against the traced totals.
--record rewrites expected.json (digests and work counts per input variant).
"""
import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "cellfi_perfbench"
EXPECTED = HERE / "expected.json"

# Workload name -> whether its traced run also measures the shard pool.
WORKLOADS = {"cellfi_256": True, "fig9_web": True, "paws_fleet": False}
# --seed picks one of this many input variants, so every seed has a recorded
# digest in expected.json.
VARIANTS = 16
# Environment knobs that change what a workload runs or how it is timed.
REFUSED_ENV = ("CELLFI_SHARD_THREADS", "CELLFI_AGG_LOAD", "CELLFI_CHAOS_PLAN",
               "CELLFI_SIMD_DISABLE")
REFUSED_PREFIXES = ("CELLFI_TRACE", "CELLFI_BENCH_")
# A workload run kills its child and stops once it is this old (not
# counting the build): a run must end within 180 s.
RUN_LIMIT_S = 170
run_deadline = math.inf  # set per workload run by run_workload()

# Per-layer metrics taken from a traced process's "times" and "counts".
LAYER_TIMES = (
    "scenario.topology_s", "radio.add_node_s", "lte.build_s", "core.build_s",
    "setup.other_s", "sim.step_p50_us", "sim.step_p99_us", "sim.step_max_ms",
    "core.cqi_s", "core.cqi_p99_us", "core.prach_s", "traffic.delivered_s",
    "lte.step_self_s", "tvws.server_s", "tvws.server_p50_us",
    "tvws.server_p99_us", "tvws.client_self_s", "chaos.barrier_s")
LAYER_COUNTS = (
    "radio.nodes", "radio.link_cache_bytes", "sim.steps", "sim.events",
    "core.cqi_reports", "core.prach_obs", "lte.dl_deliveries",
    "traffic.pages_completed", "tvws.requests", "tvws.request_bytes",
    "tvws.successes", "tvws.retries", "tvws.success_ratio",
    "chaos.invariant_checks", "chaos.faults_injected")
# Printed as a sanity check but not reported as a metric: it is 0 on every
# recorded input of every workload.
SANITY_COUNTS = ("tvws.failures",)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def refused_env():
    return sorted(k for k in os.environ
                  if k in REFUSED_ENV or k.startswith(REFUSED_PREFIXES))


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def run_child(workload, mode, seed, quick=False, shards=1):
    """One cellfi_perfbench process: its JSON line as a dict, or {"error": …}."""
    timeout = max(1.0, run_deadline - time.monotonic())
    cmd = [str(BINARY), "--workload", workload, "--mode", mode, "--seed", str(seed),
           "--shards", str(shards)]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode}: killed at the {RUN_LIMIT_S} s run limit"}
    if proc.returncode != 0:
        return {"error": f"{mode}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": f"{mode}: unreadable output"}


def output_errors(sample):
    """Sanity checks on the simulated outputs of a full or traced run."""
    out = sample["outputs"]
    if "violations" in out:
        errs = [] if out["violations"] == 0 else [f"{out['violations']:.0f} invariant violations"]
        if out["lease_confirms"] <= 0:
            errs.append("no lease confirmations")
        return errs
    errs = []
    if not out["throughput_mbps"] > 0:
        errs.append("zero throughput")
    if not out["connected_frac"] > 0:
        errs.append("no connected client")
    return errs


class Checker:
    """Counts attempted and failed processes; a process fails if it crashed,
    broke an output check, or disagreed with the recorded digest or counts
    (or with the other processes of this run)."""

    def __init__(self, expected):
        self.expected = expected  # {"digest": ..., "counts": {...}} or None
        self.attempted = 0
        self.failed = 0
        self.digests = {}  # mode -> first digest seen
        self.counts = None

    def check(self, sample, mode):
        self.attempted += 1
        errs = [sample["error"]] if "error" in sample else []
        if not errs:
            key = "setup" if mode == "setup" else "run"
            first = self.digests.setdefault(key, sample["digest"])
            if sample["digest"] != first:
                errs.append(f"{mode} digest {sample['digest']} != {first}")
            if mode != "setup":
                errs += output_errors(sample)
                if self.expected and sample["digest"] != self.expected["digest"]:
                    errs.append(f"{mode} digest {sample['digest']} != recorded "
                                f"{self.expected['digest']}")
            if mode == "traced":
                counts = sample["counts"]
                ref = self.expected["counts"] if self.expected else self.counts
                if ref is not None and counts != ref:
                    diff = sorted(k for k in set(counts) | set(ref)
                                  if counts.get(k) != ref.get(k))
                    errs.append(f"work counts differ: {', '.join(diff)}")
                self.counts = self.counts or counts
        if errs:
            self.failed += 1
            for e in errs:
                log(f"FAILED: {e}")
            return None
        return sample


def median(values):
    return statistics.median(values) if values else None


def describe(name, unit, values, reported):
    print(f"  {name:<24} {reported:>14.6g} {unit:<6} median of n={len(values)} "
          f"(min {min(values):.6g} max {max(values):.6g})")


def end_to_end(workload, seed, seconds, quick, checker):
    """Pairs of a fresh setup probe and a fresh full run, back to back, until
    the deadline: at least two pairs, then as many as fit."""
    deadline = time.monotonic() + seconds
    pairs = []
    cost = 0.0
    while (len(pairs) < 2 and not checker.failed
           or time.monotonic() + cost <= deadline):
        t0 = time.monotonic()
        setup = checker.check(run_child(workload, "setup", seed, quick), "setup")
        full = checker.check(run_child(workload, "full", seed, quick), "full")
        cost = time.monotonic() - t0
        if setup and full:
            pairs.append((setup, full))
    return pairs


def e2e_metrics(pairs):
    """Medians over the run's pairs of fresh processes, in process CPU
    seconds: name -> (value, unit, samples). run_s is the median of the
    per-pair differences full - setup."""
    if not pairs:
        return None
    setup_vals = [s["times"]["cpu_s"] for s, _ in pairs]
    run_vals = [f["times"]["cpu_s"] - s["times"]["cpu_s"] for s, f in pairs]
    rss_vals = [f["peak_rss_mb"] for _, f in pairs]
    return {
        "setup_s": (median(setup_vals), "s", setup_vals),
        "run_s": (median(run_vals), "s", run_vals),
        "peak_rss_mb": (median(rss_vals), "MB", rss_vals),
    }


def traced(workload, seed, seconds, quick, checker):
    """Pairs of a fresh untraced full run and a fresh traced run until the
    deadline (at least one), plus one sharded traced run where the workload
    has one."""
    deadline = time.monotonic() + seconds
    shards = os.cpu_count() or 1
    with_shards = WORKLOADS[workload] and shards > 1
    fulls, runs = [], []
    while True:
        t0 = time.monotonic()
        f = checker.check(run_child(workload, "full", seed, quick), "full")
        t = checker.check(run_child(workload, "traced", seed, quick), "traced")
        if not (f and t):
            break
        fulls.append(f)
        runs.append(t)
        cost = time.monotonic() - t0
        if time.monotonic() + cost * (1.5 if with_shards else 1) > deadline:
            break
    sharded = None
    if with_shards:
        sharded = checker.check(
            run_child(workload, "traced", seed, quick, shards=shards), "traced")
    if not runs:
        return None

    def med_time(name):
        return median([r["times"].get(name, 0.0) for r in runs])

    m = {}
    for name in LAYER_TIMES:
        m[name] = med_time(name)
    for name in LAYER_COUNTS:
        m[name] = runs[0]["counts"].get(name, 0.0)
    m["trace.setup_s"] = med_time("setup_s")
    m["trace.run_s"] = med_time("run_s")
    # CPU time of the entry point, traced over untraced, same pairs. It rests
    # on a few pairs and has no bound: informational.
    m["trace.overhead_frac"] = (med_time("cpu_s")
                                / median([f["times"]["cpu_s"] for f in fulls]) - 1.0)
    m["lte.shard_speedup"] = (m["trace.run_s"] / sharded["times"]["run_s"]
                              if sharded else 0.0)
    return m, runs[0], len(runs)


def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def print_box(sample):
    box = sample["box"]
    print(f"box: nproc={box['nproc']} build={box['build_type']} "
          f"compiler=gcc-{box['compiler']} simd={box['simd']}")


def print_outputs(sample):
    outs = " ".join(f"{k}={v:.6g}" for k, v in sorted(sample["outputs"].items()))
    print(f"output checks: {outs} digest={sample['digest']}")


def run_workload(workload, seed, seconds, trace, quick=False):
    """Returns the result object for the last stdout line, or None."""
    global run_deadline
    run_deadline = time.monotonic() + RUN_LIMIT_S
    variant = seed % VARIANTS
    expected = None
    if not quick and EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text()).get(workload, {}).get(str(variant))
    checker = Checker(expected)
    wseed = variant + 1
    layer_units = load_benchmark()[1]
    print(f"workload {workload} seed {seed} (input variant {variant}) "
          f"{'traced' if trace else 'untraced'}{' quick' if quick else ''}")
    metrics = {}
    if trace:
        got = traced(workload, wseed, seconds, quick, checker)
        if got:
            values, first, n = got
            print_box(first)
            print_outputs(first)
            print(f"per-layer (median of {n} traced processes; counts exact):")
            for name, v in values.items():
                unit = layer_units.get(name, "?")
                print(f"  {name:<24} {v:>14.6g} {unit}")
                metrics[name] = {"value": v, "unit": unit}
            for name in SANITY_COUNTS:
                print(f"  {name:<24} {first['counts'].get(name, 0.0):>14.6g} count "
                      "(sanity, not a metric)")
    else:
        pairs = end_to_end(workload, wseed, seconds, quick, checker)
        got = e2e_metrics(pairs)
        if got:
            print_box(pairs[0][1])
            print_outputs(pairs[0][1])
            print("end-to-end (fresh process per sample):")
            for name, (v, unit, values) in got.items():
                describe(name, unit, values, v)
                metrics[name] = {"value": v, "unit": unit}
    fail_share = checker.failed / max(1, checker.attempted)
    print(f"  {'fail_share':<24} {fail_share:>14.6g} share  "
          f"({checker.failed} failed of {checker.attempted} processes)")
    if not metrics:
        return None
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def self_check():
    """Tiny sizes, one seed: metric names and units match BENCHMARK.json and
    the per-layer times plus remainders add up to the traced totals."""
    e2e_units, layer_units = load_benchmark()
    problems = []
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            res = run_workload(workload, 0, 1, trace, quick=True)
            if res is None or not res["correct"]:
                problems.append(f"{workload} trace {trace}: run failed")
                continue
            m = {k: v["value"] for k, v in res["metrics"].items()}
            for k, v in res["metrics"].items():
                if units.get(k) != v["unit"]:
                    problems.append(f"{workload}: {k} [{v['unit']}] not in BENCHMARK.json")
            missing = set(units) - set(m)
            if missing:
                problems.append(f"{workload}: not printed: {sorted(missing)}")
            if trace:
                problems += sum_errors(workload, m)
    for p in problems:
        log(f"SELF-CHECK: {p}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def sum_errors(workload, m):
    """Layer times + named remainder == traced total; no part negative."""
    if workload == "paws_fleet":
        parts = {"trace.setup_s": ["setup.other_s"],
                 "trace.run_s": ["tvws.server_s", "chaos.barrier_s", "tvws.client_self_s"]}
    else:
        parts = {"trace.setup_s": ["scenario.topology_s", "radio.add_node_s", "lte.build_s",
                                   "core.build_s", "setup.other_s"],
                 "trace.run_s": ["core.cqi_s", "core.prach_s", "traffic.delivered_s",
                                 "lte.step_self_s"]}
    errs = []
    for total, names in parts.items():
        negative = [n for n in names if m[n] < 0]
        if negative:
            errs.append(f"{workload}: negative share {negative}")
        # Medians of parts need not sum to the median total, so allow 5 %.
        if abs(sum(m[n] for n in names) - m[total]) > 0.05 * m[total]:
            errs.append(f"{workload}: {'+'.join(names)} != {total}")
    return errs


def record():
    """Rewrite expected.json: for every workload and input variant, the
    full-run digest (checked equal to the traced one) and the work counts."""
    jobs = [(w, v) for w in WORKLOADS for v in range(VARIANTS)]

    def one(job):
        w, v = job
        full = run_child(w, "full", v + 1)
        tr = run_child(w, "traced", v + 1)
        if "error" in full or "error" in tr or full["digest"] != tr["digest"]:
            raise RuntimeError(f"{w} variant {v}: {full.get('error') or tr.get('error') or 'traced digest differs'}")
        log(f"recorded {w} variant {v}: {full['digest']}")
        return w, v, {"digest": full["digest"], "counts": tr["counts"]}

    out = {w: {} for w in WORKLOADS}
    with ThreadPoolExecutor(max_workers=3) as pool:
        for w, v, rec in pool.map(one, jobs):
            out[w][str(v)] = rec
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload in turn, one result line each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    refused = refused_env()
    if refused:
        log("refusing to run: these environment knobs change the workloads: "
            + ", ".join(refused) + ". Unset them and run again.")
        return 2
    try:
        build()
    except (RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_check:
        return self_check()
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        if res is None:
            log(f"{name}: no valid samples; no result")
            return 1
        ok = ok and res["correct"]
        print(json.dumps(res))
    return 0 if ok or len(names) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
