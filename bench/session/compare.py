#!/usr/bin/env python3
"""Compare two sets of bench_session end-to-end results against the bounds.

    python3 bench/session/compare.py --base A.json [A2.json ...] \\
        --new B.json [B2.json ...] [--benchmark BENCHMARK.json]

Each side is one or more results files written by `bench_session --out`
(or by run.py under .bench_build/session/results/). A side with one file
is summarized over that run's reps; a side with several files over their
per-run medians, so slow drift of the host between runs shows up as
spread. For every workload x end-to-end metric of BENCHMARK.json the
script prints both sides' median and quartiles, the change of the new
median relative to the base median, the metric's bound, and a verdict:

    unresolved     either side's quartile spread, as a share of its median,
                   exceeds the bound, so the medians cannot be told apart
    worse          the new median is worse than the base by more than the
                   bound
    better         the new median is better than the base by more than the
                   bound
    within bound   otherwise

Runs from hosts with a different hardware_threads, runs made with a
different worker_threads, and runs over different seeds are refused: their
numbers measure different things.

Exit status: 0 when no pairing is worse, 1 when one is, 2 when the inputs
cannot be compared. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent.parent / \
    "BENCHMARK.json"


def load(paths: list[str]) -> list[dict]:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    return docs


def context(doc: dict) -> tuple:
    return (doc["build"]["hardware_threads"], doc["worker_threads"])


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def values(docs: list[dict], workload: str, metric: str) -> list[float]:
    runs = []
    for doc in docs:
        run = doc["workloads"].get(workload, {}).get("e2e", {})
        if metric in run.get("metrics", {}):
            runs.append(run["metrics"][metric])
    if len(runs) == 1:
        return runs[0]["samples"]
    return [run["median"] for run in runs]


def spread(median: float, q1: float, q3: float) -> float:
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: tuple, new: tuple, better: str, bound: float) -> tuple:
    change = (new[0] - base[0]) / abs(base[0]) if base[0] else 0.0
    worsening = change if better == "lower" else -change
    if max(spread(*base), spread(*new)) > bound:
        return change, "unresolved"
    if worsening > bound:
        return change, "worse"
    if worsening < -bound:
        return change, "better"
    return change, "within bound"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare bench_session results within BENCHMARK.json "
                    "bounds.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = parser.parse_args()

    base, new = load(args.base), load(args.new)
    contexts = {context(doc) for doc in base + new}
    if len(contexts) != 1:
        print("compare.py: refusing to compare runs with different "
              f"(hardware_threads, worker_threads): {sorted(contexts)}",
              file=sys.stderr)
        return 2
    base_seeds = sorted(doc["seed"] for doc in base)
    new_seeds = sorted(doc["seed"] for doc in new)
    if base_seeds != new_seeds:
        print(f"compare.py: refusing to compare seeds {base_seeds} with "
              f"{new_seeds}", file=sys.stderr)
        return 2

    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    header = (f"{'workload':<24} {'metric':<21} {'base median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'change':>8} {'bound':>6}  "
              "verdict")
    print(header)
    worse = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = values(base, workload, name), values(new, workload, name)
            if not b or not n:
                continue
            bs, ns = summary(b), summary(n)
            change, word = verdict(bs, ns, metric["better"], metric["bound"])
            worse += word == "worse"
            fmt = "{:.5g} [{:.5g}, {:.5g}]".format
            print(f"{workload:<24} {name:<21} {fmt(*bs):>34} {fmt(*ns):>34} "
                  f"{change:>+8.2%} {metric['bound']:>6.0%}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
