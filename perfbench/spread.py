#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seed0 1] [--seconds S]
                                [--workloads W ...]

Runs perfbench/run.py --trace 0 once per seed (seed0, seed0+1, ...) on
each workload and prints, per metric, the median of the runs and the
distance between the first and third quartile as a share of that
median (statistics.quantiles(values, n=4)), next to the metric's bound
in BENCHMARK.json.  A spread above a third of the bound is flagged.
Every run's result line is appended to .bench_work/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_work", exist_ok=True)
    log = open(os.path.join(".bench_work", "spread.jsonl"), "a")
    flagged = False
    for w in args.workloads:
        values = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            seed = args.seed0 + i
            t0 = time.time()
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            walls.append(time.time() - t0)
            if r.returncode != 0:
                print(r.stderr, file=sys.stderr)
                sys.exit(f"{w} seed {seed}: exit {r.returncode}")
            res = json.loads(r.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": w, "seed": seed, **res}) + "\n")
            log.flush()
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: gates failed")
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"== {w}: {args.runs} runs, {max(walls):.1f}s longest, "
              f"{sum(walls):.0f}s total")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bad = name != "setup_s" and spread > bounds[name] / 3
            flagged |= bad
            print(f"  {name:22s} median {med:14.6g}  spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}{'  <-- WIDE' if bad else ''}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
