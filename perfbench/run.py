#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ssht --seed 0 --seconds 20 --trace 0

Builds perfbench/main.exe with dune, runs it, and prints as the last line
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; setup_s (process
start to the first job) is the median over 26 launches of the program,
each timed from just before the launch to the moment it would start its
first job.  With --trace 1 they are the per-layer ones.
Exits 1, without a result line, when the program cannot be built or
does not report; exits 1 after the result line when a job failed its
result check.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

EXE = "_build/default/perfbench/main.exe"
SETUP_LAUNCHES = 25
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")


def launch(args, timeout):
    """Run the program; return (launch time, exit code, stdout lines)."""
    t_launch = time.time()
    try:
        r = subprocess.run(
            [EXE] + args, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args)} did not finish: {e}")
    return t_launch, r.returncode, r.stdout.splitlines()


def last_json(lines):
    if not lines:
        fail("the program printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"the last line is not JSON: {lines[-1][:200]}")


def setup_time(common):
    t_launch, code, lines = launch(common + ["--setup-only"], timeout=60)
    if code != 0:
        fail(f"--setup-only exited with {code}")
    return last_json(lines)["first_job_unix"] - t_launch


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["ssht", "locks", "preempt"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    setups = []
    if not a.trace:
        setup_time(common)  # warm-up: the first launch after a build pays page-cache misses
        setups = [setup_time(common) for _ in range(SETUP_LAUNCHES)]
    t_launch, code, lines = launch(
        common + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
        timeout=a.seconds * 2 + RUN_MARGIN_S,
    )
    res = last_json(lines)
    if code not in (0, 1) or not {"correct", "attempted", "failed", "metrics"} <= res.keys():
        fail(f"the program exited with {code} without a result")
    metrics = res["metrics"]
    if not a.trace:
        setups.append(res["first_job_unix"] - t_launch)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    out = {
        "correct": bool(res["correct"]) and code == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
