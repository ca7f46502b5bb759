#!/usr/bin/env python3
"""Runs one workload of the dirsim benchmark and prints its result.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Three steps, each its own process, each waited for:

1. build the benchmark package (perfbench/Cargo.toml) in release mode,
   into $CARGO_TARGET_DIR or perfbench/target;
2. build the seed's fixtures and oracle digests (skipped when already
   built for this seed), outside every metric;
3. measure. Its standard output is passed through; the last line is the
   result object {"correct", "attempted", "failed", "metrics"}.

Exits non-zero without printing a result if any step fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
STEP_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def capture(cmd):
    """First line a tool prints, or "unknown" when it is unavailable."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else "unknown"


def step(cmd, timeout, stdout):
    """Runs one step; subprocess.run kills and reaps it on timeout."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=stdout, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["corpus", "grid", "wide"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    build = step(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        sys.stderr,
    )
    if build is None or build.returncode != 0:
        return 1

    target = target_dir()
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]

    fixture = step([exe, "fixture", *common], STEP_TIMEOUT_S, sys.stderr)
    if fixture is None or fixture.returncode != 0:
        return 1

    commit = capture(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else "unknown"
    measure = step(
        [
            exe, "run", *common,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--rustc", capture(["rustc", "-V"]),
            "--commit", commit,
        ],
        STEP_TIMEOUT_S,
        subprocess.PIPE,
    )
    if measure is None or measure.returncode != 0:
        return 1
    sys.stdout.write(measure.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
