"""Deterministic application of scenario timelines to a running network.

A *dynamics timeline* is a sequence of environment-change events (link
degradation, partitions, crash bursts, process churn, crash-model
toggles) stamped with absolute simulated times.  The
:class:`DynamicsDriver` schedules each event through the simulation
engine at :data:`~repro.sim.events.DYNAMICS_PRIORITY`, so at any instant
the environment changes *before* timers and deliveries run, and the
whole trial stays a pure function of its scalar seeds:

* events execute in ``(time, priority, insertion)`` order like every
  other callback — no wall clock, no hidden state;
* event *selections* (which links a brownout hits, which processes a
  crash burst fells) draw from a :class:`~repro.util.rng.RandomSource`
  child stream keyed only by the scenario name and the event's index in
  the timeline, so the same scenario always perturbs the same elements,
  in every trial and in every worker process;
* configuration changes compose as an *overlay* over the base
  configuration — each event edits the overlay and the driver installs
  ``base + overlay`` via :meth:`Network.replace_configuration`, so
  overlapping events (a partition during a brownout) resolve
  deterministically and a ``Heal`` restores the exact base environment.

The driver lives in the sim layer and knows nothing about scenario
schemas: events are any objects with an ``at`` attribute and an
``apply(driver)`` method (see :mod:`repro.scenario.schema` for the
declarative event types built on this contract).
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.errors import ValidationError
from repro.sim.events import DYNAMICS_PRIORITY
from repro.sim.network import Network
from repro.types import Link, ProcessId
from repro.util.rng import RandomSource

if TYPE_CHECKING:
    from repro.topology.configuration import Configuration


class DynamicsDriver:
    """Applies a timeline of environment events to a live :class:`Network`.

    Args:
        network: the network to perturb (its configuration at
            construction time becomes the *base* every restore returns
            to).
        timeline: event objects, each with an ``at`` time (>= 0) and an
            ``apply(driver)`` method.  Events are applied in ``at`` order
            (ties broken by timeline position).
        name: scenario label — the seed of the deterministic selection
            streams handed to events.
        tiers: optional named link groups (e.g. ``{"wan": [...],
            "lan": [...]}``) that events may select by name.

    Call :meth:`install` once (before or after ``network.start()``) to
    schedule the events; the engine then applies them at their times.
    """

    __slots__ = (
        "_network",
        "_base",
        "_base_options",
        "_graph",
        "_name",
        "_tiers",
        "_timeline",
        "_loss_overlay",
        "_crash_overlay",
        "_applied",
        "_installed",
        "_event_index",
    )

    def __init__(
        self,
        network: Network,
        timeline: Sequence[object],
        name: str = "scenario",
        tiers: Optional[Mapping[str, Sequence[Link]]] = None,
    ) -> None:
        self._network = network
        self._base = network.config
        self._base_options = network.options
        self._graph = network.graph
        self._name = name
        self._tiers: Dict[str, Tuple[Link, ...]] = {
            key: tuple(Link.of(*link) for link in links)
            for key, links in (tiers or {}).items()
        }
        for event in timeline:
            at = float(getattr(event, "at"))
            if at < 0.0:
                raise ValidationError(f"timeline event at t={at} is in the past")
        self._timeline: List[object] = sorted(
            timeline, key=lambda e: float(e.at)
        )
        self._loss_overlay: Dict[Link, float] = {}
        self._crash_overlay: Dict[ProcessId, float] = {}
        self._applied: List[Tuple[float, str]] = []
        self._installed = False

    # -- introspection -------------------------------------------------------------

    @property
    def network(self) -> Network:
        return self._network

    @property
    def base_configuration(self) -> "Configuration":
        """The configuration every :class:`Heal`-style restore returns to."""
        return self._base

    @property
    def applied_events(self) -> List[Tuple[float, str]]:
        """``(time, event class name)`` for every event applied so far."""
        return list(self._applied)

    @property
    def last_event_time(self) -> float:
        """The ``at`` of the final timeline event (0.0 for empty timelines)."""
        if not self._timeline:
            return 0.0
        return float(self._timeline[-1].at)

    # -- scheduling ----------------------------------------------------------------

    def install(self) -> None:
        """Schedule every timeline event on the network's simulator."""
        if self._installed:
            raise ValidationError("DynamicsDriver.install() called twice")
        self._installed = True
        for index, event in enumerate(self._timeline):
            self._network.sim.schedule_at(
                float(event.at),
                lambda e=event, i=index: self._fire(e, i),
                name=f"dynamics:{type(event).__name__}",
                priority=DYNAMICS_PRIORITY,
            )

    def _fire(self, event: object, index: int) -> None:
        self._event_index = index
        event.apply(self)
        self._applied.append((self._network.sim.now, type(event).__name__))

    # -- selection helpers (used by events) ------------------------------------------

    def selection_rng(self) -> RandomSource:
        """The deterministic stream for the event currently being applied.

        Keyed by ``(scenario name, event index)`` only — independent of
        the trial seed, so the same scenario perturbs the same elements
        in every trial.
        """
        return RandomSource("scenario-dynamics", self._name, self._event_index)

    def select_links(
        self,
        selector: str = "all",
        fraction: float = 1.0,
        links: Sequence[Tuple[int, int]] = (),
    ) -> Tuple[Link, ...]:
        """Resolve a link selection deterministically.

        ``links`` (explicit pairs) wins over ``selector``; ``selector``
        is ``"all"``, a tier name, or ``"random"`` (a ``fraction`` of all
        links drawn from :meth:`selection_rng`).
        """
        if links:
            return tuple(Link.of(*link) for link in links)
        if selector == "all":
            return tuple(self._graph.links)
        if selector == "random":
            pool = list(self._graph.links)
            count = max(1, min(len(pool), round(fraction * len(pool))))
            return tuple(self.selection_rng().sample(pool, count))
        if selector in self._tiers:
            return self._tiers[selector]
        raise ValidationError(
            f"unknown link selector {selector!r}; "
            f"expected 'all', 'random' or one of {sorted(self._tiers)}"
        )

    def select_processes(
        self, fraction: float = 0.0, processes: Sequence[int] = ()
    ) -> Tuple[ProcessId, ...]:
        """Resolve a process selection (explicit ids or a random fraction)."""
        if processes:
            return tuple(int(p) for p in processes)
        pool = list(self._graph.processes)
        count = max(1, min(len(pool), round(fraction * len(pool))))
        return tuple(self.selection_rng().sample(pool, count))

    def cut_links(self, fraction: float = 0.5) -> Tuple[Link, ...]:
        """The links crossing a two-sided split of the process ids.

        Side A is the first ``round(n * fraction)`` process ids (at
        least 1, at most n-1) — a deterministic, topology-independent
        cut.
        """
        n = self._graph.n
        size = max(1, min(n - 1, round(n * float(fraction))))
        side = set(range(size))
        return tuple(
            link
            for link in self._graph.links
            if (link.u in side) != (link.v in side)
        )

    # -- overlay mutation (used by events) --------------------------------------------

    def set_loss(self, links: Iterable[Link], loss: float) -> None:
        """Override the loss probability of ``links`` (until restored)."""
        for link in links:
            self._loss_overlay[Link.of(*link)] = float(loss)
        self._reconfigure()

    def restore_loss(self, links: Iterable[Link]) -> None:
        """Drop the loss overrides of ``links`` (back to base values)."""
        for link in links:
            self._loss_overlay.pop(Link.of(*link), None)
        self._reconfigure()

    def set_crash(self, processes: Iterable[ProcessId], crash: float) -> None:
        """Override the crash probability of ``processes``."""
        for p in processes:
            self._crash_overlay[int(p)] = float(crash)
        self._reconfigure()

    def restore_all(self) -> None:
        """Return the whole environment to its base state.

        Clears every loss/crash overlay and, if a burst toggle switched
        the crash model since the driver was built, reverts the model to
        the base kind as well.
        """
        self._loss_overlay.clear()
        self._crash_overlay.clear()
        self._reconfigure()
        current = self._network.options
        if (
            current.crash_model != self._base_options.crash_model
            or current.markov_mean_down_ticks
            != self._base_options.markov_mean_down_ticks
        ):
            self._network.set_crash_model(
                self._base_options.crash_model,
                self._base_options.markov_mean_down_ticks,
            )

    def set_crash_model(
        self, kind: str, mean_down_ticks: Optional[float] = None
    ) -> None:
        """Switch the network's crash model (burst-mode toggles)."""
        self._network.set_crash_model(kind, mean_down_ticks)

    def _reconfigure(self) -> None:
        config = self._base
        if self._loss_overlay:
            config = config.with_loss(dict(self._loss_overlay))
        if self._crash_overlay:
            config = config.with_crash(dict(self._crash_overlay))
        self._network.replace_configuration(config)
