#!/usr/bin/env python3
"""A/A check: two sets of runs of the same code must agree.

``python perf/aa.py [--runs N]`` runs the untraced set twice, the second
time in reverse workload order, with seeds 1..N in each set.  For every
end-to-end metric x workload it prints both medians, their relative gap
(positive = the second set is worse), each set's spread — the distance
between its quartiles as a share of its median, for N >= 4 — and the
bound from BENCHMARK.json; it exits 1 if a gap or a spread exceeds its
bound.  Then it runs the traced set twice at seed 1 and exits 1 if any
per-layer count differs.  ``--runs 10`` is the acceptance check the
benchmark's contract describes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def run(workload: str, seed: int, trace: int) -> Dict[str, float]:
    """One run through the contract's command line; metric name -> value."""
    command = MANIFEST["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(MANIFEST["run_seconds"]),
        "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:  # failed slots, a digest mismatch or a crash
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}: {done.stdout}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_set(order: List[str], seeds: List[int], trace: int):
    """values[workload][metric] = one value per seed."""
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in order}
    for seed in seeds:
        for workload in order:
            for name, value in run(workload, seed, trace).items():
                values[workload].setdefault(name, []).append(value)
            print(f"  ran {workload} seed {seed} trace {trace}", flush=True)
    return values


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="seeds per set")
    args = parser.parse_args()
    seeds = list(range(1, args.runs + 1))
    bad = 0

    first = run_set(WORKLOADS, seeds, trace=0)
    second = run_set(WORKLOADS[::-1], seeds, trace=0)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "aa.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "first": first, "second": second}, fh)
    print(
        f"{'workload':<18}{'metric':<14}{'first':>12}{'second':>12}"
        f"{'gap':>9}{'spread1':>9}{'spread2':>9}{'bound':>7}"
    )
    for workload in WORKLOADS:
        for metric in MANIFEST["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(first[workload][name])
            b = statistics.median(second[workload][name])
            gap = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spreads = [spread(first[workload][name]), spread(second[workload][name])]
            # the set-up time's spread is reported, only its medians are held
            # to the bound
            held = [gap] if name == "setup_s" else [gap] + spreads
            flag = "" if max(held) <= bound else "  EXCEEDS"
            bad += bool(flag)
            print(
                f"{workload:<18}{name:<14}{a:>12.5g}{b:>12.5g}{gap:>+9.2%}"
                f"{spreads[0]:>9.2%}{spreads[1]:>9.2%}{bound:>7.0%}{flag}"
            )

    counts = [m["name"] for m in MANIFEST["per_layer"] if m["unit"] == "count"]
    first = run_set(WORKLOADS, [1], trace=1)
    second = run_set(WORKLOADS[::-1], [1], trace=1)
    differing = [
        (workload, name, first[workload][name][0], second[workload][name][0])
        for workload in WORKLOADS
        for name in counts
        if first[workload][name] != second[workload][name]
    ]
    for row in differing:
        print("count differs: %s %s %s != %s" % row)
    print(
        f"traced: {len(counts)} counts x {len(WORKLOADS)} workloads, "
        f"{len(differing)} differ"
    )
    bad += len(differing)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
