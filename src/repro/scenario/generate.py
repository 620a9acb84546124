"""Seeded scenario generation inside explicit validity envelopes.

:class:`ScenarioGenerator` turns ``(seed, scale, index)`` into a
:class:`~repro.scenario.schema.ScenarioSpec`.  Every sampled parameter is
drawn from an explicit envelope chosen so the spec is *valid by
construction* — construction runs the schema's ``__post_init__``
validators, so an envelope bug surfaces as a hard error, never as a
silently-clamped spec.  The envelopes:

==================  ==========================================================
process count       ``n`` in ``[6, min(scale.n, 48)]`` (the registry's cap)
topology            all ten generator kinds, with per-kind parameter bounds
                    (even ``degree < n`` for circulants, ``attach`` in 1..3,
                    2..4 clusters, ``beta`` in ``[0, 0.5]``)
environment         ``crash`` in ``[0, 0.12]``, ``loss`` in ``[0, 0.25]``,
                    any crash model; ``wan_loss`` in ``[loss, 0.5]`` on
                    two-tier topologies; Markov sojourns of 2..10 ticks
duration            ``[180, 420] x`` the registry's per-scale stretch
workload            2..6 broadcasts placed strictly inside the run, optional
                    flash-crowd surge of 3..8 extras, any origin policy
timeline            0..5 typed events at strictly increasing times inside
                    ``(0.05 x duration, 0.95 x duration)`` — strictly before
                    the duration, as the schema requires; leaves are paired
                    with a later rejoin when the coin lands that way
==================  ==========================================================

Determinism contract: a generated spec is a pure function of
``(seed, scale.name, index)``.  In particular the envelope reads the
*preset* registered under ``scale.name`` — never the possibly-overridden
scale instance — so campaign workers that rebuild a scale with an ``n``
override regenerate bit-identical specs.

Generated specs are addressable through the registry as
``gen:<seed>:<index>`` (see :func:`repro.scenario.registry.build_scenario`),
which makes them spawn-safe campaign parameters: workers rebuild the spec
from the name alone.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import ValidationError
from repro.experiments.runner import ExperimentScale, current_scale
from repro.scenario.registry import MAX_SCENARIO_N, _stretch
from repro.scenario.schema import (
    BurstToggle,
    CrashBurst,
    EnvironmentSpec,
    Heal,
    LinkDegrade,
    LinkRestore,
    Partition,
    ProcessJoin,
    ProcessLeave,
    ScenarioSpec,
    TimelineEvent,
    TopologySpec,
    WorkloadSpec,
)
from repro.util.rng import RandomSource

#: Seeds become path- and name-safe parts of ``gen:<seed>:<index>``.
_SEED_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Lower bound on generated system size: small enough for quick smoke
#: runs, large enough that partitions and churn have two real sides.
MIN_GENERATED_N = 6

#: Events per generated timeline (inclusive upper bound).
MAX_TIMELINE_EVENTS = 5


def check_generator_seed(seed: str) -> str:
    """Validate (and return) a generator seed string.

    Seeds embed into ``gen:<seed>:<index>`` scenario names and file
    stems, so they are restricted to ``[A-Za-z0-9_.-]``.
    """
    seed = str(seed)
    if not _SEED_RE.match(seed):
        raise ValidationError(
            f"generator seed {seed!r} must match [A-Za-z0-9_.-]+ "
            "(it becomes part of the gen:<seed>:<index> scenario name)"
        )
    return seed


def generated_name(seed: str, index: int) -> str:
    """The registry name of a generated scenario."""
    return f"gen:{check_generator_seed(seed)}:{int(index)}"


def parse_generated_name(name: str) -> Optional[Tuple[str, int]]:
    """``(seed, index)`` if ``name`` is ``gen:<seed>:<index>``, else None."""
    parts = name.split(":")
    if len(parts) != 3 or parts[0] != "gen":
        return None
    seed, index = parts[1], parts[2]
    if not _SEED_RE.match(seed) or not index.isdigit():
        return None
    return seed, int(index)


class ScenarioGenerator:
    """Deterministic scenario sampler for one ``(seed, scale)`` pair."""

    __slots__ = ("_seed", "_scale")

    def __init__(
        self, seed: str = "0", scale: Optional[ExperimentScale] = None
    ) -> None:
        self._seed = check_generator_seed(seed)
        # Resolve through the preset registered under the scale's *name*:
        # generation must not depend on per-run overrides (e.g. the n
        # override campaign workers apply when rebuilding their scale).
        self._scale = current_scale((scale or current_scale()).name)

    @property
    def seed(self) -> str:
        return self._seed

    @property
    def scale(self) -> ExperimentScale:
        return self._scale

    def generate(self, index: int) -> ScenarioSpec:
        """The ``index``-th scenario of this generator's stream."""
        index = int(index)
        if index < 0:
            raise ValidationError(f"index must be >= 0, got {index}")
        root = RandomSource(
            "repro-scenario-generator", self._seed, self._scale.name, index
        )
        topology = self._topology(root.child("topology"), index)
        environment = self._environment(root.child("environment"), topology)
        duration = self._duration(root.child("duration"))
        workload = self._workload(root.child("workload"), duration)
        timeline = self._timeline(
            root.child("timeline"), topology, environment, duration
        )
        return ScenarioSpec(
            name=generated_name(self._seed, index),
            description=(
                f"generated scenario (seed={self._seed}, index={index}, "
                f"scale={self._scale.name})"
            ),
            topology=topology,
            environment=environment,
            timeline=timeline,
            workload=workload,
            duration=duration,
            k_target=self._scale.k_target,
        )

    def specs(self, count: int, start: int = 0) -> List[ScenarioSpec]:
        """``count`` consecutive scenarios starting at index ``start``."""
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        return [self.generate(start + i) for i in range(count)]

    # -- component samplers ---------------------------------------------------------

    def _topology(self, rng: RandomSource, index: int) -> TopologySpec:
        max_n = max(MIN_GENERATED_N, min(self._scale.n, MAX_SCENARIO_N))
        n = rng.integer(MIN_GENERATED_N, max_n + 1)
        kind = str(rng.choice(TopologySpec._KINDS))
        degree = 4
        clusters = 4
        beta = 0.1
        if kind in ("k_regular", "small_world"):
            degree = int(rng.choice([d for d in (2, 4, 6, 8) if d < n]))
            if kind == "small_world":
                beta = rng.random() * 0.5
        elif kind == "scale_free":
            degree = rng.integer(1, 4)  # the attach count; n >= 6 > 3
        elif kind == "two_tier":
            clusters = rng.integer(2, 5)
            n = clusters * max(2, n // clusters)
        return TopologySpec(
            kind=kind,
            n=n,
            degree=degree,
            clusters=clusters,
            beta=beta,
            seed=f"gen-{self._seed}-{index}",
        )

    def _environment(
        self, rng: RandomSource, topology: TopologySpec
    ) -> EnvironmentSpec:
        crash_model = str(rng.choice(("none", "iid", "markov")))
        crash = 0.0 if crash_model == "none" else rng.random() * 0.12
        loss = rng.random() * 0.25
        wan_loss = None
        if topology.kind == "two_tier":
            wan_loss = loss + rng.random() * (0.5 - loss)
        mean_down_ticks = 5.0
        if crash_model == "markov":
            mean_down_ticks = 2.0 + rng.random() * 8.0
        return EnvironmentSpec(
            crash=crash,
            loss=loss,
            wan_loss=wan_loss,
            crash_model=crash_model,
            mean_down_ticks=mean_down_ticks,
        )

    def _duration(self, rng: RandomSource) -> float:
        return (180.0 + rng.random() * 240.0) * _stretch(self._scale)

    def _workload(self, rng: RandomSource, duration: float) -> WorkloadSpec:
        count = rng.integer(2, 7)
        start = 5.0 + rng.random() * (0.15 * duration)
        period = (duration - start) / (count + 1)
        origin = str(rng.choice(("rotate", "fixed", "random")))
        surge_at = None
        surge_count = 0
        if rng.bernoulli(0.3):
            surge_count = rng.integer(3, 9)
            span = max(0.0, duration - start - surge_count - 1.0)
            surge_at = start + rng.random() * span
        return WorkloadSpec(
            period=period,
            start=start,
            count=count,
            origin=origin,
            surge_at=surge_at,
            surge_count=surge_count,
        )

    def _timeline(
        self,
        rng: RandomSource,
        topology: TopologySpec,
        environment: EnvironmentSpec,
        duration: float,
    ) -> Tuple[TimelineEvent, ...]:
        count = rng.integer(0, MAX_TIMELINE_EVENTS + 1)
        times: List[float] = []
        previous = 0.0
        for u in sorted(rng.random_array(count).tolist()):
            at = 0.05 * duration + u * (0.90 * duration)
            if at <= previous:  # enforce strictly increasing instants
                at = previous + 1e-6
            times.append(at)
            previous = at

        kinds = ["link-degrade", "partition", "burst-toggle", "process-leave",
                 "heal", "link-restore"]
        if environment.crash_model != "none":
            kinds.append("crash-burst")

        events: List[TimelineEvent] = []
        departed: List[int] = []
        for at in times:
            if departed and rng.bernoulli(0.5):
                events.append(ProcessJoin(at=at, process=departed.pop(0)))
                continue
            kind = str(rng.choice(kinds))
            if kind == "link-degrade":
                selectors = ["all", "random"]
                if topology.kind == "two_tier":
                    selectors.append("wan")
                selector = str(rng.choice(selectors))
                fraction = 1.0
                if selector == "random":
                    fraction = 0.1 + rng.random() * 0.5
                events.append(
                    LinkDegrade(
                        at=at,
                        loss=0.2 + rng.random() * 0.8,
                        selector=selector,
                        fraction=fraction,
                    )
                )
            elif kind == "partition":
                events.append(
                    Partition(at=at, fraction=0.25 + rng.random() * 0.5)
                )
            elif kind == "crash-burst":
                events.append(
                    CrashBurst(
                        at=at,
                        crash=0.2 + rng.random() * 0.7,
                        fraction=0.1 + rng.random() * 0.4,
                    )
                )
            elif kind == "burst-toggle":
                events.append(
                    BurstToggle(
                        at=at,
                        model=str(rng.choice(("markov", "iid"))),
                        mean_down_ticks=2.0 + rng.random() * 6.0,
                    )
                )
            elif kind == "process-leave":
                process = rng.integer(topology.n)
                departed.append(process)
                events.append(ProcessLeave(at=at, process=process))
            elif kind == "heal":
                departed.clear()  # a heal restores departed processes too
                events.append(Heal(at=at))
            else:  # link-restore
                events.append(LinkRestore(at=at, selector="all"))
        return tuple(events)


__all__ = [
    "MAX_TIMELINE_EVENTS",
    "MIN_GENERATED_N",
    "ScenarioGenerator",
    "check_generator_seed",
    "generated_name",
    "parse_generated_name",
]
