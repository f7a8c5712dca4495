#!/usr/bin/env python3
"""Noise study for the benchmark.

Runs the command in BENCHMARK.json once per seed on each workload, then
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance as a share of the median) beside the metric's
bound. With two seed ranges it also compares the second set's medians
with the first's, in the direction the metric gets worse.

    python3 perfbench/noise.py --workloads corpus,hunt --seeds 1-10 [--seeds 11-20]

Run it from the repository root. Raw results are appended as JSON lines
to `.bench_out/noise.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, elapsed_s=elapsed)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", action="append", required=True, type=seed_range)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(".bench_out", exist_ok=True)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = []
    with open(".bench_out/noise.jsonl", "a") as log:
        for seeds in args.seeds:
            runs = {}
            for w in args.workloads.split(","):
                for seed in seeds:
                    r = run_once(bench, w, seed, args.trace)
                    log.write(json.dumps(r) + "\n")
                    log.flush()
                    print(f"{w} seed {seed}: {r['elapsed_s']:.1f} s, correct={r['correct']} "
                          f"failed={r['failed']}/{r['attempted']}", file=sys.stderr)
                    runs.setdefault(w, []).append(r)
            sets.append(runs)
    for i, runs in enumerate(sets):
        print(f"\nset {i + 1}")
        print("| workload | metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---:|---:|---:|---:|---:|")
        for w, rs in runs.items():
            for name in rs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3, sp = spread(vals)
                bound = bounds.get(name, {}).get("bound", float("nan"))
                flag = "" if sp < bound / 3 else (" (over bound/3)" if sp <= bound else " (OVER BOUND)")
                print(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {sp:.3f}{flag} | {bound} |")
    if len(sets) == 2:
        print("\nsecond set against the first (positive = worse)")
        for w in sets[0]:
            for name in sets[0][w][0]["metrics"]:
                m = [statistics.median(r["metrics"][name]["value"] for r in s[w]) for s in sets]
                worse = (m[1] - m[0]) / m[0] if m[0] else 0.0
                if bounds.get(name, {}).get("better") == "higher":
                    worse = -worse
                bound = bounds.get(name, {}).get("bound", float("nan"))
                flag = " (OVER BOUND)" if worse > bound else ""
                print(f"{w} {name}: {worse:+.3f}{flag}")


if __name__ == "__main__":
    main()
