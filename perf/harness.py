"""Pass runner and metric arithmetic of the benchmark.

A run is one warm-up pass plus a fixed number of timed passes over a
workload's slot list, closed loop, one client, no threads.  Every gated
timing metric derives from the *slot floors*: for each slot, the shortest
of its timed durations.  ``pass_s`` is the sum of the floors, correct for
slots of different cost; the latency median is taken over the floors.

Why the floor and not the median of a slot's durations: the shared host
slows down in phases that only ever add time and that a calibration loop
does not follow, so the floor is what repeats (perf/README.md has the
measurements).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.api as api

from perf import trace as tracing
from perf.workloads import (
    BUILDERS,
    COLD_EXPERIMENTS,
    DEFAULT_SEED,
    PASS_SECONDS,
    Plan,
)

MIN_TIMED_PASSES = 3
PIN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: The exec-layer probe of the traced figure-cold run (ROADMAP 3d).
PROBE_BACKENDS = (
    ("exec.serial.trials_per_s", "serial"),
    ("exec.process2.trials_per_s", "process:2"),
    ("exec.shard2.trials_per_s", "shard:2"),
)


# -- arithmetic -------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than ten samples beyond."""
    if not samples or not 0.0 < q < 1.0:
        raise ValueError("percentile needs samples and 0 < q < 1")
    rank = max(1, math.ceil(q * len(samples)))
    if len(samples) - rank < 10:
        raise ValueError(
            f"p{round(q * 100)} of {len(samples)} samples has "
            f"{len(samples) - rank} beyond it; ten are needed"
        )
    return sorted(samples)[rank - 1]


def timed_passes(name: str, seconds: float) -> int:
    """How many timed passes a run of ``seconds`` makes of workload ``name``.

    Fixed by the workload's pass length on the reference host, not by a
    clock: a floor over more samples reads lower, so a count that followed
    the speed of the code under test would flatter every speed-up.
    """
    return max(MIN_TIMED_PASSES, round(seconds / PASS_SECONDS[name]))


def slot_floors(passes: Sequence[Sequence[Optional[float]]]) -> List[float]:
    """Shortest duration of each slot over the passes in which it succeeded."""
    floors = []
    for durations in zip(*passes):
        good = [d for d in durations if d is not None]
        if good:
            floors.append(min(good))
    return floors


def pass_seconds(passes: Sequence[Sequence[Optional[float]]]) -> float:
    return sum(slot_floors(passes))


# -- results ----------------------------------------------------------------------


def canonical(result: object) -> object:
    """What of a slot's result is digested: no provenance, no run id."""
    if hasattr(result, "columns") and hasattr(result, "rows"):
        return {
            "columns": list(result.columns),
            "rows": [list(row.values()) for row in result.rows],
        }
    return result


def slot_digest(result: object) -> str:
    text = json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def combined_digest(digests: Sequence[Optional[str]]) -> str:
    return hashlib.sha256(
        "\n".join(d or "failed" for d in digests).encode("utf-8")
    ).hexdigest()


def check_result(result: object) -> Optional[str]:
    """Why a slot's result is wrong, or None."""
    plain = canonical(result)
    if isinstance(plain, dict) and "rows" in plain:
        cells = [("cell", v) for row in plain["rows"] for v in row]
    elif isinstance(plain, dict):
        cells = list(plain.items())
    else:
        return f"unexpected result type {type(result).__name__}"
    for name, value in cells:
        if isinstance(value, float) and not math.isfinite(value):
            return f"non-finite {name}: {value!r}"
    ratio = plain.get("delivery_ratio") if "rows" not in plain else None
    if ratio is not None and not 0.0 <= ratio <= 1.0:
        return f"delivery_ratio {ratio!r} outside [0, 1]"
    return None


# -- passes -----------------------------------------------------------------------


@dataclass
class PassRecord:
    durations: List[Optional[float]] = field(default_factory=list)
    digests: List[Optional[str]] = field(default_factory=list)
    trials: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return min(len(self.failures), len(self.durations))


def run_pass(plan: Plan, tracer: Optional[tracing.Tracer] = None) -> PassRecord:
    """Run every slot once; a failing slot is recorded and the pass goes on."""
    record = PassRecord()
    results: List[object] = []
    plan.begin_pass()
    gc.collect()
    for index, slot in enumerate(plan.slots):
        span = tracer.slot(index, slot.name) if tracer else nullcontext()
        try:
            with span:
                started = time.perf_counter()
                result = slot.call()
                elapsed = time.perf_counter() - started
            problem = check_result(result)
        except Exception as exc:  # the run continues past a failed slot
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is None:
            record.durations.append(elapsed)
            record.digests.append(slot_digest(result))
            results.append(result)
        else:
            record.failures.append(f"{slot.name}: {problem}")
            record.durations.append(None)
            record.digests.append(None)
            results.append(None)
    record.trials, problems = plan.end_pass(results)
    record.failures.extend(problems)
    return record


def load_pins() -> Dict[str, object]:
    try:
        with open(PIN_FILE, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def numeric_stack() -> Dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def unstable_digests(plan: Plan, passes: Sequence[PassRecord]) -> List[str]:
    """Where a later pass disagrees with the first."""
    problems = []
    first = passes[0]
    for number, record in enumerate(passes[1:], start=1):
        for slot, a, b in zip(plan.slots, first.digests, record.digests):
            if a != b:
                problems.append(f"pass {number}: slot {slot.name} digest differs from pass 0")
                break
        if record.trials != first.trials:
            problems.append(
                f"pass {number}: {record.trials} trials, pass 0 had {first.trials}"
            )
    return problems


def unpinned_digests(
    name: str, seed: int, plan: Plan, first: PassRecord
) -> List[str]:
    """Where the default seed's results differ from ``perf/digests.json``.

    A speed-up of the simulator must leave every simulated statistic
    identical; this is the check.
    """
    if seed != DEFAULT_SEED:
        return []
    problems = []
    pins = load_pins()
    pinned = pins.get("workloads", {}).get(name)
    if pinned is None:
        return [f"no pinned digest for {name}; run perf/run.py --pin"]
    if combined_digest(first.digests) != pinned["digest"]:
        short = [d[:12] if d else None for d in first.digests]
        diverged = [
            slot.name
            for slot, got, want in zip(plan.slots, short, pinned["slot_digests"])
            if got != want
        ]
        problems.append(f"digest differs from the pinned one at slots {diverged}")
    if first.trials != pinned["trials_per_pass"]:
        problems.append(
            f"{first.trials} trials per pass != pinned {pinned['trials_per_pass']}"
        )
    if problems and pins.get("stack") != numeric_stack():
        # digests are a function of (code, seed, numeric stack)
        problems.append(f"pin taken under {pins.get('stack')}, this is {numeric_stack()}")
    return problems


def summarize(
    name: str, seed: int, plan: Plan, passes: Sequence[PassRecord]
) -> Dict[str, object]:
    """Correctness fields shared by the untraced and the traced run."""
    unstable = unstable_digests(plan, passes)
    problems = unstable + unpinned_digests(name, seed, plan, passes[0])
    failures = [f for record in passes for f in record.failures]
    return {
        "workload": name,
        "seed": seed,
        "slots": len(plan.slots),
        "passes": len(passes),
        "attempted": sum(len(record.durations) for record in passes),
        "failed": sum(record.failed for record in passes),
        "failures": failures[:10],
        "digest_ok": 0 if problems else 1,
        "digest_stable": not unstable,
        "digest_problems": problems[:10],
        "digest": combined_digest(passes[0].digests),
        "slot_digests": [d[:12] if d else None for d in passes[0].digests],
        "trials_per_pass": passes[0].trials,
    }


def host_info() -> Dict[str, object]:
    return {
        "load1": os.getloadavg()[0],
        "nproc": os.cpu_count(),
        **numeric_stack(),
    }


def measure(
    name: str, seed: int, seconds: float, t0: float, tmp: str
) -> Dict[str, object]:
    """The untraced run: set-up, warm-up pass, timed passes, metrics."""
    host = host_info()
    plan = BUILDERS[name](seed, tmp)
    warm = run_pass(plan)
    # child-process start -> first timed slot: imports, spec building, cache
    # pre-fill and the warm-up pass, so work moved into set-up shows here
    setup_s = time.time() - t0
    timed = [run_pass(plan) for _ in range(timed_passes(name, seconds))]
    floors = slot_floors([record.durations for record in timed])
    out = summarize(name, seed, plan, [warm] + timed)
    if not floors:
        out.update({"metrics": {}, "host": host})
        return out
    pass_s = sum(floors)
    # information, not a gate: the tail over every timed call, where ten
    # calls lie beyond it (campaign-resume only)
    calls = [d for record in timed for d in record.durations if d is not None]
    try:
        p90_ms = percentile(calls, 0.9) * 1e3
    except ValueError:
        p90_ms = None
    out.update(
        {
            "pass_s": pass_s,
            "calls": len(calls),
            "call_ms_p90": p90_ms,
            "metrics": {
                "setup_s": setup_s,
                "trials_per_s": out["trials_per_pass"] / pass_s,
                "call_ms_p50": statistics.median(floors) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
            },
            "host": {**host, "load1_end": os.getloadavg()[0]},
        }
    )
    return out


def traced_run(
    name: str, seed: int, tmp: str, out_dir: str
) -> Dict[str, object]:
    """The traced run: a warm-up pass, an untraced pass, a traced pass.

    The untraced pass is the base of ``trace.overhead_ratio``; the warm-up
    pass would not do, it also pays for whatever is set up lazily.
    """
    plan = BUILDERS[name](seed, tmp)
    warm = run_pass(plan)
    plain = run_pass(plan)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(plan, tracer)
    finally:
        tracer.uninstall()
    out = summarize(name, seed, plan, [warm, plain, traced])
    metrics = tracing.layer_metrics(tracer)
    footprint = plan.footprint()
    metrics["util.cache.bytes"] = footprint["cache_bytes"]
    metrics["results.store.bytes"] = footprint["store_bytes"]
    untraced_s = pass_seconds([plain.durations])
    traced_s = pass_seconds([traced.durations])
    metrics["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    metrics.update({metric: 0.0 for metric, _ in PROBE_BACKENDS})
    if name == "figure-cold":
        metrics.update(backend_probe(plan, traced.trials))
    os.makedirs(out_dir, exist_ok=True)
    trace_file = os.path.join(out_dir, f"trace-{name}.json")
    tracer.write(
        trace_file,
        {"workload": name, "seed": seed, "traced_pass_s": traced_s, "metrics": metrics},
    )
    out.update(
        {
            "pass_s": traced_s,
            "untraced_pass_s": untraced_s,
            "trace_file": trace_file,
            "metrics": metrics,
        }
    )
    return out


def backend_probe(plan: Plan, trials: int) -> Dict[str, float]:
    """Trials per second of the cold experiments on three backends, no cache.

    Layer probes, not end-to-end metrics: two workers on two shared cores
    do not repeat within a tenth.
    """
    rates = {}
    for metric, backend in PROBE_BACKENDS:
        started = time.perf_counter()
        for experiment in COLD_EXPERIMENTS:
            api.run_experiment(
                experiment, scale="quick", params=plan.params[experiment], backend=backend
            )
        rates[metric] = trials / (time.perf_counter() - started)
    return rates
