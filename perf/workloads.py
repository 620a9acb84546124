"""The five benchmark workloads: fixed, ordered slot lists built from a seed.

A *slot* is one call into the program through a public function.  The
seed only generates inputs — trial indices, the swept probability values
of the experiment params — and never reaches the program itself.  Calls
go through module attributes (``api.run_experiment`` rather than a
``from`` import) so the traced run's rebinding of those names is seen.

Sizes are cut from ISSUE 11's table to fit the driver's time cap (114
runs in 3420 s on a 2-core shared host): a pass is 0.9-3.9 s, so set-up
plus 16 s of timed passes stay near 21 s per run.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.api as api
from repro.experiments.runner import current_scale, scaled
from repro.kvstore import trial as kv_trial
from repro.kvstore.workload import KVWorkloadParams
from repro.scenario import trial as scenario_trial
from repro.scenario.registry import build_scenario
from repro.util.cache import TrialCache

DEFAULT_SEED = 1

#: Length of one pass on the reference host (2 shared cores, Python 3.11)
#: when the benchmark was defined.  ``--seconds`` divided by it is the run's
#: number of timed passes, the same on every later commit and on any host.
PASS_SECONDS = {
    "adaptive-scenario": 1.45,
    "transport-scale": 2.4,
    "figure-cold": 3.15,
    "campaign-resume": 0.9,
    "kv-causal": 3.9,
}

COLD_EXPERIMENTS = ("figure4a", "figure4b", "heterogeneous")
RESUME_EXPERIMENTS = COLD_EXPERIMENTS + ("table1", "figure1")
RESUME_REPETITIONS = 20
TRANSPORT_PROTOCOLS = ("gossip-pv", "flooding-pv", "gossip", "flooding", "two-phase")
KV_PROTOCOLS = ("gossip", "flooding", "two-phase")


@dataclass(frozen=True)
class Slot:
    name: str
    call: Callable[[], object]


class Plan:
    """A workload's slots plus the untimed bookkeeping around each pass."""

    def __init__(self, slots: Sequence[Slot]) -> None:
        self.slots: List[Slot] = list(slots)

    def begin_pass(self) -> None:
        """Untimed preparation before a pass."""

    def end_pass(self, results: Sequence[object]) -> Tuple[int, List[str]]:
        """Trials the pass stands for, and the output checks that failed."""
        return len(self.slots), []

    def footprint(self) -> Dict[str, int]:
        """Bytes the last pass left on disk (cache directory, store file)."""
        return {"cache_bytes": 0, "store_bytes": 0}


def _trial_index(seed: int, i: int) -> int:
    return 100 * seed + i


def adaptive_scenario(seed: int, tmp: str) -> Plan:
    spec = build_scenario("partition-heal", current_scale("quick"))
    t = _trial_index(seed, 0)
    return Plan(
        [
            Slot(
                f"partition-heal/adaptive/{t}",
                lambda: scenario_trial.run_scenario_trial(spec, "adaptive", t),
            )
        ]
    )


def transport_scale(seed: int, tmp: str) -> Plan:
    spec = build_scenario("churn-storm", scaled(current_scale("quick"), n=250))
    t = _trial_index(seed, 0)
    return Plan(
        [
            Slot(
                f"churn-storm/{p}/{t}",
                lambda p=p: scenario_trial.run_scenario_trial(spec, p, t),
            )
            for p in TRANSPORT_PROTOCOLS
        ]
    )


def kv_causal(seed: int, tmp: str, ops: int = 500, indices: int = 3) -> Plan:
    # the registry default of 48 ops leaves the hold-back buffer idle.  The
    # hold-back cost follows the schedule's deepest causal gap, so one trial
    # index per protocol makes the pass vary by 15 % from seed to seed;
    # three indices bring that to 7 %
    spec = build_scenario("hot-key-storm", current_scale("default"))
    workload = KVWorkloadParams(
        ops=ops, surge_ops=(3 * ops) // 10, keys=64, write_ratio=0.3
    )
    return Plan(
        [
            Slot(
                f"hot-key-storm/{p}/{t}",
                lambda p=p, t=t: kv_trial.run_kv_trial(spec, p, t, workload=workload),
            )
            for p in KV_PROTOCOLS
            for t in (_trial_index(seed, i) for i in range(indices))
        ]
    )


def experiment_params(seed: int) -> Dict[str, Optional[Dict[str, object]]]:
    """Swept probability values per experiment; registry defaults at seed 1."""
    if seed == DEFAULT_SEED:
        return {name: None for name in RESUME_EXPERIMENTS}
    shift = round(random.Random(f"perf-{seed}").uniform(-1e-3, 1e-3), 6)
    values = tuple(round(v + shift, 6) for v in (0.01, 0.03, 0.05, 0.07))
    return {
        "figure4a": {"crash": values},
        "figure4b": {"loss": values},
        "heterogeneous": {"loss": round(0.05 + shift, 6)},
        "table1": None,
        "figure1": None,
    }


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


class _ExperimentPlan(Plan):
    """Slots that run registered experiments against a cache and a store."""

    def __init__(self, seed: int, tmp: str) -> None:
        super().__init__([])
        self.params = experiment_params(seed)
        self.cache_dir = os.path.join(tmp, "cache")
        self.store_path = os.path.join(tmp, "store.jsonl")

    def run(self, experiment: str) -> object:
        return api.run_experiment(
            experiment,
            scale="quick",
            params=self.params[experiment],
            backend=f"serial+cache={self.cache_dir}",
            store=self.store_path,
        )

    def _slot(self, experiment: str) -> Slot:
        return Slot(experiment, lambda: self.run(experiment))

    def footprint(self) -> Dict[str, int]:
        return {
            "cache_bytes": _dir_bytes(self.cache_dir),
            "store_bytes": (
                os.path.getsize(self.store_path)
                if os.path.exists(self.store_path)
                else 0
            ),
        }


class FigureCold(_ExperimentPlan):
    """Every pass writes a fresh cache directory and a fresh store file."""

    def __init__(self, seed: int, tmp: str) -> None:
        super().__init__(seed, tmp)
        self.slots = [self._slot(e) for e in COLD_EXPERIMENTS]

    def begin_pass(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if os.path.exists(self.store_path):
            os.unlink(self.store_path)

    def end_pass(self, results: Sequence[object]) -> Tuple[int, List[str]]:
        # a trial here is one TrialSpec executed: one new cache entry
        return len(TrialCache(self.cache_dir)), []


class CampaignResume(_ExperimentPlan):
    """The cache is filled once during set-up; timed calls only read it."""

    def __init__(self, seed: int, tmp: str) -> None:
        super().__init__(seed, tmp)
        self._prefill = {e: self.run(e) for e in RESUME_EXPERIMENTS}
        self._entries = len(TrialCache(self.cache_dir))
        self.slots = [
            self._slot(e)
            for _ in range(RESUME_REPETITIONS)
            for e in RESUME_EXPERIMENTS
        ]

    def begin_pass(self) -> None:
        # the store scan grows with appends; every pass starts from empty
        open(self.store_path, "w").close()

    def end_pass(self, results: Sequence[object]) -> Tuple[int, List[str]]:
        problems = []
        created = len(TrialCache(self.cache_dir)) - self._entries
        if created:
            problems.append(f"resume created {created} cache entries")
        for slot, result in zip(self.slots, results):
            first = self._prefill[slot.name]
            if result is not None and (result.columns, result.rows) != (
                first.columns,
                first.rows,
            ):
                problems.append(f"{slot.name}: rows differ from the pre-fill's")
        # a trial here is one TrialSpec resolved from the cache
        return RESUME_REPETITIONS * self._entries, problems


BUILDERS: Dict[str, Callable[[int, str], Plan]] = {
    "adaptive-scenario": adaptive_scenario,
    "transport-scale": transport_scale,
    "figure-cold": FigureCold,
    "campaign-resume": CampaignResume,
    "kv-causal": kv_causal,
}
