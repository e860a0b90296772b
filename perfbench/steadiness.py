#!/usr/bin/env python3
"""Runs every workload N times with distinct seeds and records how steady it is.

    python3 perfbench/steadiness.py [--runs 10] [--repeat-seed]
                                    [--out perfbench/steadiness.json]

Seeds run from 1 to --runs.

For each end-to-end metric of each workload it reports the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json; it also
lists the work counts of every run. --repeat-seed adds one more run of the
first seed, whose work counts must equal the first run's. The record carries
a machine header (cores, build type, the git commit read from .git).
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def git_sha():
    """HEAD's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build_type():
    try:
        for line in (ROOT / ".bench_build" / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def run_once(workload, seed, seconds):
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    work = {}
    for line in lines:
        if line.startswith("work "):
            work = json.loads(line[5:])
    return json.loads(lines[-1]), work, wall


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--repeat-seed", action="store_true")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "machine": {"hw_cores": os.cpu_count(), "build_type": build_type(),
                    "git_sha": git_sha(), "platform": platform.platform()},
        "runs_per_workload": args.runs,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in names:
        seeds = list(range(1, args.runs + 1))
        results = []
        for seed in seeds:
            result, work, wall = run_once(workload, seed, spec["run_seconds"])
            results.append({"seed": seed, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "wall_s": round(wall, 2), "work": work,
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: wall {wall:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        entry = {"runs": results,
                 "metrics": {m: summarize([r["metrics"][m] for r in results], bounds[m])
                             for m in bounds}}
        if args.repeat_seed:
            _, work, _ = run_once(workload, seeds[0], spec["run_seconds"])
            entry["repeat_seed"] = {"seed": seeds[0], "work": work,
                                    "work_identical": work == results[0]["work"]}
        record["workloads"][workload] = entry
        for m, s in entry["metrics"].items():
            flag = "ok" if s["spread"] <= s["bound"] else "OVER BOUND"
            print(f"  {workload}/{m}: median {s['median']:.5g} spread {s['spread']:.3%} "
                  f"(bound {s['bound']:.0%}) {flag}", file=sys.stderr, flush=True)
    text = json.dumps(record, indent=1)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
