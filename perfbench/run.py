#!/usr/bin/env python3
"""Build and run the elin benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first form builds `perfbench` and
`elin` from source (release profile, in .bench_build or
$CARGO_TARGET_DIR), runs one workload, and prints the binary's stamped
result row followed, as the last line, by the result object
{correct, attempted, failed, metrics}.  The second form runs every
workload and gate at a tiny size in a few seconds.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["mc_board", "mc_spill", "svc_small", "svc_check"]
WORK_DIR = ".bench_work"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SOURCES = ["dune-project", "bin", "lib", "perfbench"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_root():
    for path in ["dune-project", "bin/elin.ml", "lib", "perfbench/dune"]:
        if not os.path.exists(path):
            die(f"{path} not found: run from the root of an elin checkout")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Release build of the benchmark binary and `elin`; returns their paths."""
    bdir = build_dir()
    cmd = dune() + ["build", "--root", ".", "--build-dir", bdir,
                    "--profile", "release",
                    "perfbench/perfbench.exe", "bin/elin.exe"]
    # No shared build cache: everything the build writes stays here.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        die("build failed")
    return (os.path.join(bdir, "default", "perfbench", "perfbench.exe"),
            os.path.join(bdir, "default", "bin", "elin.exe"))


def source_rev():
    """The git revision, else a digest of the sources that were built."""
    if os.path.exists(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run_one(exe, elin, workload, seed, seconds, trace, tiny=False):
    """Run the benchmark binary once; returns its stdout lines."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--elin", elin, "--work", WORK_DIR,
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--rev", source_rev(), "--profile", "release"]
    if tiny:
        cmd.append("--tiny")
    # Own session, so a timeout takes the spawned servers down too.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die(f"{workload}: run did not finish within {RUN_TIMEOUT_S}s")
    if p.returncode != 0:
        die(f"{workload}: benchmark binary exited with {p.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        die(f"{workload}: no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die(f"{workload}: malformed result line")
    return lines


def catalogue():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def self_test(exe, elin):
    """Every workload and gate, traced and untraced, at a tiny size."""
    e2e, layers = catalogue()
    for w in WORKLOADS:
        for trace in (0, 1):
            lines = run_one(exe, elin, w, seed=1, seconds=1, trace=trace,
                            tiny=True)
            r = json.loads(lines[-1])
            names = list(r["metrics"])
            want = layers if trace else e2e
            problems = []
            if not r["correct"] or r["failed"] != 0:
                problems.append("gates failed")
            if names != want:
                problems.append(f"metrics {names} != BENCHMARK.json {want}")
            if not trace and any(m["value"] <= 0
                                 for m in r["metrics"].values()):
                problems.append("an end-to-end metric is not positive")
            if trace:
                path = os.path.join(WORK_DIR, f"trace-{w}-1.json")
                rep = subprocess.run([elin, "trace", "report", path],
                                     capture_output=True, timeout=60)
                if rep.returncode != 0:
                    problems.append("elin trace report rejects the trace")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {w} trace={trace}: {status}")
            if problems:
                sys.exit(1)
    print("self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    check_root()
    exe, elin = build()
    if args.self_test:
        self_test(exe, elin)
        return
    lines = run_one(exe, elin, args.workload, args.seed, args.seconds,
                    args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
