#!/usr/bin/env python3
"""Steadiness test of the benchmark itself: two sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed0 100]

For every workload in ``BENCHMARK.json`` it makes two sets of ``--runs``
untraced runs, each run with its own seed, and for every end-to-end metric
computes the spread of each set (the distance between the first and third
quartiles of ``statistics.quantiles(values, n=4)``, as a share of the
median) and how much worse the second set's median is than the first's.
It passes when every spread and every drift stays within the metric's
bound and every run is correct. Exit code 0 on pass, 1 on fail; the raw results go to
``.perfbench_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(first: list[float], second: list[float], better: str) -> float:
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seed0", type=int, default=100)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    results, ok = {}, True
    for w in names:
        sets = []
        for k in range(2):
            runs = []
            for i in range(args.runs):
                r = one_run(spec, w, args.seed0 + 1000 * k + i)
                print(f"{w} set {k} run {i}: " + ", ".join(
                    f"{m}={v['value']:.4g}" for m, v in r["metrics"].items()),
                      flush=True)
                ok &= r["correct"] and r["failed"] == 0
                runs.append(r)
            sets.append(runs)
        results[w] = sets
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in s]
                    for s in sets]
            sp = [spread(v) for v in vals]
            drift = worse_by(vals[0], vals[1], m["better"])
            good = drift <= m["bound"] and all(x <= m["bound"] for x in sp)
            ok &= good
            print(f"{w:24s} {m['name']:16s} bound {m['bound']:.2f} "
                  f"spread {' / '.join(f'{x:.3f}' for x in sp)} "
                  f"(third of bound {m['bound'] / 3:.3f}) "
                  f"second median worse by {drift:+.3f} "
                  f"{'ok' if good else 'FAIL'}", flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_work", "steady.json"), "w") as f:
        json.dump(results, f)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
