#!/usr/bin/env python3
"""Run the benchmark: ``python perf/run.py [--workload W ...] [--seed S]``.

Every workload runs in a fresh child process of its own, one at a time,
so ``peak_rss_mb`` and ``setup_s`` belong to that workload and the load
is one process on one core.  Each workload prints its metrics by name
with unit, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace`` makes the separate traced run that yields the
per-layer metrics; ``--pin`` rewrites ``perf/digests.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# the script's own directory would shadow the stdlib ``trace`` module with
# perf/trace.py; the benchmark's modules are imported as ``perf.<name>``
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.curdir) != HERE]
sys.path.insert(0, ROOT)
if importlib.util.find_spec("repro") is None:
    sys.path.insert(1, os.path.join(ROOT, "src"))
    if importlib.util.find_spec("repro") is None:
        sys.exit("perf/run.py: the repro package is neither installed nor under src/")

CHILD_TIMEOUT_S = 170

# BENCHMARK.json declares the workloads and every metric with its unit; the
# harness prints exactly those, in that order
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}


# -- child side ---------------------------------------------------------------------


def child(args: argparse.Namespace) -> int:
    """One workload in this process; the result is the last line printed."""
    from perf import harness

    os.makedirs(OUT_DIR, exist_ok=True)
    # scratch cache directories and store files live inside the checkout and
    # go away on exit, also on failure; the repo's own .repro-cache/ and
    # .repro-results.jsonl are never touched
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        if args.child == "trace":
            result = harness.traced_run(args.workload[0], args.seed, tmp, OUT_DIR)
        else:
            result = harness.measure(
                args.workload[0], args.seed, args.seconds, args.t0, tmp
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


# -- parent side --------------------------------------------------------------------


def spawn(mode: str, workload: str, args: argparse.Namespace) -> dict:
    """Run one child to its end and return the result it printed."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child", mode,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--t0", repr(time.time()),
    ]  # fmt: skip
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child of {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def contract_line(result: dict, units: dict) -> str:
    """The result line of the builder's contract: every declared metric."""
    return json.dumps(
        {
            "correct": bool(result["digest_ok"]) and result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def print_checks(result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<16}{failed / attempted:<12.6g} ratio  ({failed} of {attempted})")
    print(f"  {'digest_ok':<16}{result['digest_ok']:<12} 0/1    ({result['digest'][:16]})")
    for line in result["failures"] + result["digest_problems"]:
        print(f"    ! {line}")


def run_untraced(workload: str, args: argparse.Namespace) -> dict:
    result = spawn("measure", workload, args)
    if not result["metrics"]:
        raise RuntimeError(f"{workload}: no slot succeeded: {result['failures']}")
    metrics, host = result["metrics"], result["host"]
    print(
        f"== {workload} (seed {args.seed}): {result['slots']} slots x "
        f"(1 warm-up + {result['passes'] - 1} timed passes)"
    )
    notes = {
        "setup_s": "child start to first timed slot",
        "trials_per_s": f"{result['trials_per_pass']} trials per pass, "
        f"pass_s {result['pass_s']:.4f} = sum of slot floors",
        "call_ms_p50": f"over n={result['slots']} slot floors",
        "peak_rss_mb": "ru_maxrss of the measured child",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<16}{metrics[name]:<12.6g} {unit:<6} ({notes[name]})")
    if result["call_ms_p90"] is not None:
        # no bound: only campaign-resume has ten calls beyond its p90
        print(
            f"  {'call_ms_p90':<16}{result['call_ms_p90']:<12.6g} ms     "
            f"(over n={result['calls']} timed calls, not gated)"
        )
    print_checks(result)
    print(
        f"  host: load1 {host['load1']:.2f} -> {host['load1_end']:.2f}, nproc "
        f"{host['nproc']}, python {host['python']}, numpy {host['numpy']}"
    )
    print(contract_line(result, END_TO_END))
    return result


def run_traced(workload: str, args: argparse.Namespace) -> dict:
    result = spawn("trace", workload, args)
    metrics = result["metrics"]
    print(
        f"== {workload} (seed {args.seed}), traced: pass_s {result['pass_s']:.4f} "
        f"against {result['untraced_pass_s']:.4f} untraced"
    )
    self_total = sum(metrics[k] for k in PER_LAYER if k.endswith(".self_s"))
    for name, unit in PER_LAYER.items():
        value, share = metrics[name], ""
        if name.endswith(".self_s") and result["pass_s"]:
            share = f"({value / result['pass_s']:.1%} of the traced pass)"
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<36}{shown:<14} {unit:<6} {share}")
    print(
        f"  layers' self_s sum to {self_total:.4f} s of the {result['pass_s']:.4f} s "
        "pass; what Simulator.run hands to no wrapped callee is in sim.engine.self_s"
    )
    print_checks(result)
    print(f"  spans: {os.path.relpath(result['trace_file'], ROOT)}")
    print(contract_line(result, PER_LAYER))
    return result


def pin(args: argparse.Namespace) -> int:
    """Regenerate perf/digests.json from a default-seed run of every workload."""
    from perf import harness
    from perf.workloads import DEFAULT_SEED

    args.seed, args.seconds = DEFAULT_SEED, 0.0
    pins = {"seed": DEFAULT_SEED, "stack": harness.numeric_stack(), "workloads": {}}
    for workload in WORKLOADS:
        result = spawn("measure", workload, args)
        if result["failed"] or not result["digest_stable"]:
            print(f"{workload}: not pinned: {result['failures']} {result['digest_problems']}")
            return 1
        pins["workloads"][workload] = {
            "digest": result["digest"],
            "trials_per_pass": result["trials_per_pass"],
            "slot_digests": result["slot_digests"],
        }
        print(f"{workload}: {result['digest'][:16]} {result['trials_per_pass']} trials per pass")
    with open(harness.PIN_FILE, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="generates the inputs")
    parser.add_argument(
        "--seconds",
        type=float,
        default=MANIFEST["run_seconds"],
        help="timed span of a run",
    )
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--pin", action="store_true", help="rewrite perf/digests.json")
    parser.add_argument("--child", choices=("measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args)
    if args.pin:
        return pin(args)
    run = run_traced if args.trace else run_untraced
    clean = True
    for workload in args.workload or WORKLOADS:
        result = run(workload, args)
        clean = clean and bool(result["digest_ok"]) and result["failed"] == 0
    if not clean:
        print("perf/run.py: failed slots or digest mismatches above", file=sys.stderr)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
