#!/usr/bin/env python3
"""Build and run one workload of the session benchmark.

    python3 bench/session/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Builds bench_session (Release) from the checkout's sources into
.bench_build/session, runs the workload for about <s> seconds of
measurement, and prints as its last line one JSON object:

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"backup_mbps": {"value": 1283.4, "unit": "MB/s"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics (the
untraced run); with --trace 1 they are its per_layer metrics (the traced
layer walk). Each value is the median over the run's reps; the full
per-rep samples and quartiles stay in the results file under
.bench_build/session/results/ for compare.py.

Exits 0 when every output check passed, 1 when a check failed (the JSON
line still says so), and 2 without a result when the benchmark cannot run
(for example outside a full checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "session"
# The run itself must finish inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def build() -> Path:
    """Configure once, then build incrementally; output goes to stderr so
    the last stdout line stays the result."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "bench_session",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "bench_session"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail("no src/ tree next to bench/session: run from a full "
                    "checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", str(out)]
    if args.trace:
        command.append("--layers")
    try:
        # Per-metric lines go to stderr; stdout carries only the result.
        proc = subprocess.run(command, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"bench_session ran past {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 1) or not out.is_file():
        return fail(f"bench_session exited {proc.returncode}")

    doc = json.loads(out.read_text(encoding="utf-8"))
    workload = doc["workloads"][args.workload]
    measured = workload["layers" if args.trace else "e2e"]["metrics"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in measured:
            return fail(f"{args.workload} did not report {name}")
        metrics[name] = {"value": measured[name]["median"],
                         "unit": measured[name]["unit"]}
    correct = bool(doc["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
