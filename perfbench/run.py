#!/usr/bin/env python3
"""Builds and runs one perfbench workload; the last stdout line is its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
repository's libraries plus the benchmark binary into .bench_build/ (a few
minutes); later calls only check the build is current. The binary runs with
its scratch files under .bench_build/ and removes them on exit; a traced run
(--trace 1) leaves its spans and library counters in
.bench_build/traces/<workload>-<seed>.json.

Exit codes: 0 = the run finished and printed its result (which may still say
"correct": false); anything else = no result.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
BUILD_JOBS = "3"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 3)
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}", 3)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}; run from a full checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS, "--target", "perfbench"],
                BUILD_TIMEOUT_S)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    scratch = BUILD_DIR / f"run-{os.getpid()}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--scratch", str(scratch)]
    if args.trace == "1":
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited {done.returncode} without a result", 5)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1][:200]}", 5)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}", 5)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared_metrics(args.trace == "1"):
        fail("reported metrics differ from BENCHMARK.json", 6)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
