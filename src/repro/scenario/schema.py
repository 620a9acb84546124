"""The scenario schema: JSON-able dataclasses describing a dynamic trial.

A :class:`ScenarioSpec` composes five declarative parts:

1. a :class:`TopologySpec` — which graph generator to run, from scalars;
2. an :class:`EnvironmentSpec` — the *base* crash/loss probabilities and
   crash model (the ``C`` the environment returns to after a heal);
3. a **dynamics timeline** — typed events at simulated times, applied by
   :class:`repro.sim.dynamics.DynamicsDriver`;
4. a :class:`WorkloadSpec` — when and from where application broadcasts
   are issued;
5. a duration plus protocol-facing knobs (``k_target``, the gossip round
   budget, the re-convergence tolerance).

Everything round-trips through plain JSON (``to_json`` / ``from_json``),
so scenarios can be stored, diffed and handed to worker processes as
data.  Every event implements ``apply(driver)`` against the
:class:`~repro.sim.dynamics.DynamicsDriver` overlay API; events never
touch the network directly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.topology.configuration import Configuration
from repro.topology.generators import (
    clique,
    grid,
    k_regular,
    line,
    random_tree,
    ring,
    scale_free,
    small_world,
    star,
    two_tier,
)
from repro.topology.graph import Graph
from repro.types import Link
from repro.util.rng import RandomSource
from repro.util.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_probability,
)

LinkPair = Tuple[int, int]


def _check_at(at: float) -> None:
    if not at >= 0.0:  # also rejects NaN
        raise ValidationError(f"event time must be >= 0, got {at}")


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must be in (0, 1], got {fraction}")


# -- topology ------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """A graph generator plus its scalar parameters.

    Attributes:
        kind: one of ``ring``, ``line``, ``star``, ``clique``, ``grid``,
            ``k_regular``, ``random_tree``, ``small_world``,
            ``scale_free``, ``two_tier``.
        n: process count (for ``two_tier``: ``clusters * (n // clusters)``
            processes — ``n`` must divide evenly).
        degree: ``k`` for ``k_regular``/``small_world``, ``attach`` for
            ``scale_free``; ignored elsewhere.
        clusters: cluster count for ``two_tier``.
        beta: rewiring probability for ``small_world``.
        seed: seed label for the randomised generators (``random_tree``,
            ``small_world``, ``scale_free``) — topology is part of the
            scenario, not of the trial, so it does *not* vary per trial.
    """

    kind: str
    n: int
    degree: int = 4
    clusters: int = 4
    beta: float = 0.1
    seed: str = "topology"

    _KINDS = (
        "ring",
        "line",
        "star",
        "clique",
        "grid",
        "k_regular",
        "random_tree",
        "small_world",
        "scale_free",
        "two_tier",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValidationError(
                f"unknown topology kind {self.kind!r}; "
                f"choose from {', '.join(self._KINDS)}"
            )
        if self.n < 2:
            raise ValidationError(f"topology needs n >= 2, got {self.n}")

    def build(self) -> Graph:
        return self.build_with_tiers()[0]

    def build_with_tiers(self) -> Tuple[Graph, Dict[str, Tuple[Link, ...]]]:
        """Build the graph plus named link tiers (``two_tier`` only)."""
        rng = RandomSource("scenario-topology", self.seed, self.kind, self.n)
        if self.kind == "ring":
            return ring(self.n), {}
        if self.kind == "line":
            return line(self.n), {}
        if self.kind == "star":
            return star(self.n), {}
        if self.kind == "clique":
            return clique(self.n), {}
        if self.kind == "grid":
            # rows = largest divisor <= sqrt(n), so rows * cols == n
            # exactly (a prime n degrades to the 1 x n path)
            rows = max(
                d for d in range(1, math.isqrt(self.n) + 1) if self.n % d == 0
            )
            return grid(rows, self.n // rows), {}
        if self.kind == "k_regular":
            return k_regular(self.n, self.degree), {}
        if self.kind == "random_tree":
            return random_tree(self.n, rng), {}
        if self.kind == "small_world":
            return small_world(self.n, self.degree, self.beta, rng), {}
        if self.kind == "scale_free":
            return scale_free(self.n, self.degree, rng), {}
        # two_tier
        if self.n % self.clusters != 0:
            raise ValidationError(
                "two_tier needs n divisible by clusters, "
                f"got n={self.n}, clusters={self.clusters}"
            )
        graph, lan_links, wan_links = two_tier(
            self.clusters, self.n // self.clusters
        )
        return graph, {"lan": tuple(lan_links), "wan": tuple(wan_links)}

    def to_json(self) -> Dict[str, object]:
        return dict(asdict(self))


# -- base environment ----------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentSpec:
    """The base (pre-dynamics) failure environment.

    Attributes:
        crash: uniform crash probability ``P``.
        loss: uniform link loss probability ``L``.
        wan_loss: loss override for the ``"wan"`` tier (``two_tier``
            topologies); ``None`` leaves the uniform value.
        crash_model: ``"iid"`` (per-step, the paper's model), ``"markov"``
            (bursty sojourns) or ``"none"``.
        mean_down_ticks: Markov mean down sojourn.
    """

    crash: float = 0.0
    loss: float = 0.0
    wan_loss: Optional[float] = None
    crash_model: str = "iid"
    mean_down_ticks: float = 5.0

    def __post_init__(self) -> None:
        check_probability(self.crash, "crash")
        check_probability(self.loss, "loss")
        if self.wan_loss is not None:
            check_probability(self.wan_loss, "wan_loss")
        if self.crash_model not in ("none", "iid", "markov"):
            raise ValidationError(
                f"unknown crash model {self.crash_model!r}"
            )

    def base_configuration(
        self, graph: Graph, tiers: Dict[str, Tuple[Link, ...]]
    ) -> Configuration:
        config = Configuration.uniform(graph, crash=self.crash, loss=self.loss)
        if self.wan_loss is not None and "wan" in tiers:
            config = config.with_loss(
                {link: self.wan_loss for link in tiers["wan"]}
            )
        return config

    def to_json(self) -> Dict[str, object]:
        return dict(asdict(self))


# -- workload ------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """When application broadcasts are issued, and from where.

    Attributes:
        period: interval between regular broadcasts.
        start: time of the first broadcast (lets knowledge warm up).
        count: number of regular broadcasts.
        origin: ``"rotate"`` (round-robin over processes, offset by the
            trial index), ``"fixed"`` (always process 0) or ``"random"``
            (drawn from the trial's workload stream).
        surge_at: optional flash-crowd instant — ``surge_count`` extra
            broadcasts from distinct origins, spaced one time unit apart.
        surge_count: size of the surge (0 disables it).
    """

    period: float = 40.0
    start: float = 20.0
    count: int = 5
    origin: str = "rotate"
    surge_at: Optional[float] = None
    surge_count: int = 0

    def __post_init__(self) -> None:
        check_positive(self.period, "period")
        check_non_negative(self.start, "start")
        check_non_negative_int(self.count, "count")
        if self.origin not in ("rotate", "fixed", "random"):
            raise ValidationError(f"unknown origin policy {self.origin!r}")
        check_non_negative_int(self.surge_count, "surge_count")
        if self.surge_count and self.surge_at is None:
            raise ValidationError("surge_count needs surge_at")

    def broadcast_times(self) -> List[float]:
        times = [self.start + i * self.period for i in range(self.count)]
        if self.surge_at is not None:
            times.extend(self.surge_at + float(i) for i in range(self.surge_count))
        return sorted(times)

    def to_json(self) -> Dict[str, object]:
        return dict(asdict(self))


# -- dynamics timeline ----------------------------------------------------------------


@dataclass(frozen=True)
class LinkDegrade:
    """Raise the loss probability of a link selection at time ``at``.

    ``links`` (explicit pairs) wins over ``selector``; ``selector`` is
    ``"all"``, ``"random"`` (a ``fraction`` of all links) or a tier name
    (``"wan"`` / ``"lan"`` on two-tier topologies).
    """

    KIND = "link-degrade"

    at: float
    loss: float
    selector: str = "all"
    fraction: float = 1.0
    links: Tuple[LinkPair, ...] = ()

    def __post_init__(self) -> None:
        _check_at(self.at)
        check_probability(self.loss, "loss")
        _check_fraction(self.fraction)

    def apply(self, driver) -> None:
        driver.set_loss(
            driver.select_links(self.selector, self.fraction, self.links),
            self.loss,
        )


@dataclass(frozen=True)
class LinkRestore:
    """Return a link selection to its base loss probability.

    A ``"random"`` selector draws its *own* selection (keyed by this
    event's timeline position), which will not match an earlier random
    degrade — undo random degradations with :class:`Heal` instead.
    """

    KIND = "link-restore"

    at: float
    selector: str = "all"
    fraction: float = 1.0
    links: Tuple[LinkPair, ...] = ()

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_fraction(self.fraction)

    def apply(self, driver) -> None:
        driver.restore_loss(
            driver.select_links(self.selector, self.fraction, self.links)
        )


@dataclass(frozen=True)
class Partition:
    """Cut the system in two: links crossing the split become loss-1.

    Side A is the first ``round(n * fraction)`` process ids, so the cut
    is deterministic and trial-independent.
    """

    KIND = "partition"

    at: float
    fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_at(self.at)
        if not 0.0 < self.fraction < 1.0:
            raise ValidationError(
                f"partition fraction must be in (0, 1), got {self.fraction}"
            )

    def apply(self, driver) -> None:
        driver.set_loss(driver.cut_links(self.fraction), 1.0)


@dataclass(frozen=True)
class Heal:
    """Clear every overlay: the environment returns to its base state."""

    KIND = "heal"

    at: float

    def __post_init__(self) -> None:
        _check_at(self.at)

    def apply(self, driver) -> None:
        driver.restore_all()


@dataclass(frozen=True)
class CrashBurst:
    """Raise the crash probability of a process selection.

    Keep ``crash < 1`` so the event stays valid under a Markov crash
    model (which has no stationary state at ``P = 1``).
    """

    KIND = "crash-burst"

    at: float
    crash: float
    fraction: float = 0.25
    processes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_at(self.at)
        if not 0.0 <= self.crash < 1.0:
            raise ValidationError(
                f"burst crash must be in [0, 1), got {self.crash}"
            )
        _check_fraction(self.fraction)
        if any(p < 0 for p in self.processes):
            raise ValidationError("process ids must be >= 0")

    def apply(self, driver) -> None:
        driver.set_crash(
            driver.select_processes(self.fraction, self.processes), self.crash
        )


@dataclass(frozen=True)
class ProcessLeave:
    """Process churn: a process leaves (its incident links go loss-1).

    Modelling departure at the link layer keeps every crash model valid
    and makes the process count ``n`` stable, exactly as the paper
    assumes ``Pi`` known throughout.
    """

    KIND = "process-leave"

    at: float
    process: int

    def __post_init__(self) -> None:
        _check_at(self.at)
        if self.process < 0:
            raise ValidationError(f"process id must be >= 0, got {self.process}")

    def apply(self, driver) -> None:
        graph = driver.network.graph
        driver.set_loss(
            [Link.of(self.process, q) for q in graph.neighbors(self.process)],
            1.0,
        )


@dataclass(frozen=True)
class ProcessJoin:
    """Process churn: a departed process rejoins (links restored)."""

    KIND = "process-join"

    at: float
    process: int

    def __post_init__(self) -> None:
        _check_at(self.at)
        if self.process < 0:
            raise ValidationError(f"process id must be >= 0, got {self.process}")

    def apply(self, driver) -> None:
        graph = driver.network.graph
        driver.restore_loss(
            [Link.of(self.process, q) for q in graph.neighbors(self.process)]
        )


@dataclass(frozen=True)
class BurstToggle:
    """Switch the crash model kind (iid <-> markov burst mode)."""

    KIND = "burst-toggle"

    at: float
    model: str = "markov"
    mean_down_ticks: float = 5.0

    def __post_init__(self) -> None:
        _check_at(self.at)
        if self.model not in ("none", "iid", "markov"):
            raise ValidationError(f"unknown crash model {self.model!r}")
        if check_positive(self.mean_down_ticks, "mean_down_ticks") < 1.0:
            raise ValidationError(
                f"mean_down_ticks must be >= 1, got {self.mean_down_ticks}"
            )

    def apply(self, driver) -> None:
        driver.set_crash_model(self.model, self.mean_down_ticks)


EVENT_TYPES = {
    cls.KIND: cls
    for cls in (
        LinkDegrade,
        LinkRestore,
        Partition,
        Heal,
        CrashBurst,
        ProcessLeave,
        ProcessJoin,
        BurstToggle,
    )
}


def event_to_json(event) -> Dict[str, object]:
    payload: Dict[str, object] = {"kind": type(event).KIND}
    data = asdict(event)
    for key, value in data.items():
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        payload[key] = value
    return payload


def event_from_json(payload: Dict[str, object]):
    """Rebuild a timeline event from its :func:`event_to_json` form."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValidationError(f"unknown timeline event kind {kind!r}")
    if "links" in data:
        data["links"] = tuple(tuple(pair) for pair in data["links"])
    if "processes" in data:
        data["processes"] = tuple(data["processes"])
    return cls(**data)


# -- the scenario --------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete declarative scenario.

    Attributes:
        name: registry name (also the seed of the dynamics selection
            streams — see :class:`~repro.sim.dynamics.DynamicsDriver`).
        description: one-line human summary.
        topology / environment / workload: see the respective specs.
        timeline: dynamics events, applied in ``at`` order.
        duration: simulated run length; must cover the whole timeline.
        k_target: reliability target ``K`` handed to every protocol.
        gossip_rounds: fixed round budget for the gossip baseline
            (scenario runs compare protocols under stress, they do not
            re-calibrate per environment snapshot).
        reconv_tolerance: point tolerance of the re-convergence check
            (the estimator keeps full history, so post-disruption
            estimates approach the truth asymptotically; 0.1 detects
            "re-tracking" without waiting for the tail).
    """

    name: str
    description: str
    topology: TopologySpec
    environment: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    timeline: Tuple[object, ...] = ()
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    duration: float = 600.0
    k_target: float = 0.95
    gossip_rounds: int = 6
    reconv_tolerance: float = 0.1

    def __post_init__(self) -> None:
        check_positive(self.duration, "duration")
        if not 0.0 < self.k_target < 1.0:
            raise ValidationError(
                f"k_target must be in (0,1), got {self.k_target}"
            )
        if self.gossip_rounds < 1:
            raise ValidationError("gossip_rounds must be >= 1")
        check_probability(self.reconv_tolerance, "reconv_tolerance")
        for event in self.timeline:
            if type(event).__name__ not in {
                cls.__name__ for cls in EVENT_TYPES.values()
            }:
                raise ValidationError(
                    f"unknown timeline event {event!r}"
                )
            if float(event.at) >= self.duration:
                # An event at exactly t == duration would technically fire
                # (the engine's ``run(until=)`` is inclusive) but with zero
                # observable effect and a zero-length reconvergence window,
                # so it is rejected rather than silently dropped.
                raise ValidationError(
                    f"timeline event at t={event.at} must land strictly "
                    f"before duration={self.duration}"
                )

    @property
    def last_event_time(self) -> float:
        if not self.timeline:
            return 0.0
        return max(float(e.at) for e in self.timeline)

    def with_overrides(
        self,
        loss: Optional[float] = None,
        crash: Optional[float] = None,
        duration: Optional[float] = None,
    ) -> "ScenarioSpec":
        """Derive a spec with the base environment / duration replaced."""
        spec = self
        if loss is not None or crash is not None:
            env = spec.environment
            if loss is not None:
                env = replace(env, loss=float(loss))
            if crash is not None:
                env = replace(env, crash=float(crash))
            spec = replace(spec, environment=env)
        if duration is not None:
            if spec.timeline and float(duration) <= spec.last_event_time:
                raise ValidationError(
                    f"duration={duration} would truncate the timeline "
                    f"(last event at t={spec.last_event_time} must land "
                    f"strictly before the duration)"
                )
            spec = replace(spec, duration=float(duration))
        return spec

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "topology": self.topology.to_json(),
            "environment": self.environment.to_json(),
            "timeline": [event_to_json(e) for e in self.timeline],
            "workload": self.workload.to_json(),
            "duration": self.duration,
            "k_target": self.k_target,
            "gossip_rounds": self.gossip_rounds,
            "reconv_tolerance": self.reconv_tolerance,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        return cls(
            name=str(payload["name"]),
            description=str(payload["description"]),
            topology=TopologySpec(**payload["topology"]),
            environment=EnvironmentSpec(**payload["environment"]),
            timeline=tuple(
                event_from_json(e) for e in payload.get("timeline", [])
            ),
            workload=WorkloadSpec(**payload["workload"]),
            duration=float(payload["duration"]),
            k_target=float(payload["k_target"]),
            gossip_rounds=int(payload["gossip_rounds"]),
            reconv_tolerance=float(payload["reconv_tolerance"]),
        )

    def describe(self) -> str:
        """Multi-line human-readable rendering (``repro scenario describe``)."""
        lines = [
            f"{self.name} — {self.description}",
            f"  topology:    {self.topology.kind} "
            f"(n={self.topology.n}"
            + (
                f", degree={self.topology.degree}"
                if self.topology.kind in ("k_regular", "small_world", "scale_free")
                else ""
            )
            + (
                f", clusters={self.topology.clusters}"
                if self.topology.kind == "two_tier"
                else ""
            )
            + ")",
            f"  environment: P={self.environment.crash:g} "
            f"L={self.environment.loss:g}"
            + (
                f" (wan L={self.environment.wan_loss:g})"
                if self.environment.wan_loss is not None
                else ""
            )
            + f", crash model {self.environment.crash_model}",
            f"  workload:    {self.workload.count} broadcasts every "
            f"{self.workload.period:g} from t={self.workload.start:g} "
            f"({self.workload.origin})"
            + (
                f", surge of {self.workload.surge_count} at "
                f"t={self.workload.surge_at:g}"
                if self.workload.surge_count
                else ""
            ),
            f"  duration:    {self.duration:g}  (K={self.k_target:g}, "
            f"gossip rounds={self.gossip_rounds})",
            "  timeline:",
        ]
        if not self.timeline:
            lines.append("    (static environment)")
        for event in sorted(self.timeline, key=lambda e: float(e.at)):
            fields = {
                k: v
                for k, v in asdict(event).items()
                if k != "at" and v not in ((), None)
            }
            args = ", ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(f"    t={float(event.at):7g}  {type(event).KIND}"
                         + (f"  ({args})" if args else ""))
        return "\n".join(lines)
