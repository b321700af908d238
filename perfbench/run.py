#!/usr/bin/env python3
"""Build and run the dynsnzi benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fib --seed 1 --seconds 10 --trace 0

The benchmark is the Rust package in this directory. This script builds
it (release, offline) into $CARGO_TARGET_DIR (default: .bench_build),
runs it, passes its metric lines through, and prints as the last line one
JSON object with the keys correct, attempted, failed and metrics. The
metrics are the `end_to_end` ones of BENCHMARK.json with --trace 0 and
the `per_layer` ones with --trace 1. The full record, including metrics
that are unavailable and why, is stored under the target directory.

Exits non-zero without a result line when the build or the benchmark
fails or a metric BENCHMARK.json names is missing, and non-zero after the
result line (with "correct": false) when a dag run or self-check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def output_of(cmd):
    """First line of a command's output, or None if it cannot run."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else None


def git_rev():
    """HEAD of the repository rooted here, or "unknown" (a plain checkout)."""
    top = output_of(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return output_of(["git", "rev-parse", "HEAD"]) or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: building the benchmark failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(target, "perfbench"),
        "--rustc", output_of(["rustc", "--version"]) or "unknown",
        "--git-rev", git_rev(),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    # Exit 1 with a record means some run or self-check failed; anything
    # else is a crash or a usage error.
    if run.returncode not in (0, 1) or not lines:
        print(f"run.py: the benchmark failed (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1

    try:
        record = json.loads(lines[-1])
    except ValueError:
        print("run.py: the benchmark printed no result record", file=sys.stderr)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            why = record["unavailable"].get(m["name"], {}).get("reason", "not reported")
            print(f"run.py: metric {m['name']} [{m['unit']}] missing: {why}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if record["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
