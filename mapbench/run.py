#!/usr/bin/env python3
"""Builds the mapcomp benchmark from source and runs one workload.

    python3 mapbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under mapbench/; the first run configures and compiles the
library, later runs only check that it is up to date. After each build the
benchmark's self-test runs. The last line of standard output is the JSON
result of the workload; the exit code is non-zero when the build, the
self-test or any correctness check fails, or when the result does not carry
exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_hot", "verify_batch")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds; returns False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    steps.append([os.path.join(build_dir, "mapbench_selftest")])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"mapbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"mapbench: {' '.join(cmd)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, or None."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec.get(key, [])]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "mapbench")
    if not build(build_dir):
        return 1

    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "mapbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-dir", span_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("mapbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        print(f"mapbench: run exited {done.returncode}", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("mapbench: last line is not a JSON result", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace == 1)
    if want is None or sorted(want) != sorted(result["metrics"]):
        print("mapbench: result metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
