"""``VectorView`` against the literal Algorithm 4 on generated scenarios.

``tests/test_viewtable.py`` drives both views through random event
schedules.  Here the schedules come from whole adaptive-protocol runs:
every adaptive process gets a :class:`TeeView`, which forwards each
event its ``VectorView`` receives — heartbeats, piggybacked snapshots,
staleness sweeps, up-ticks and downtimes — to a shadow
:class:`~tests.conformance.reference.knowledge.ProcessView`.  Snapshots
travel in pairs, so each shadow receives its neighbour's shadow
snapshot.  After every event of a *watched* process both views must
answer every query alike (:func:`tests.test_viewtable.assert_equivalent`);
every other process checks the merge invariant after each event and the
full equivalence once the run ends.  A divergence anywhere reaches a
watched process through the snapshots it adopts.

The scenarios are :class:`~repro.scenario.generate.ScenarioGenerator`
draws at quick scale, shortened with ``with_overrides``: crashes,
partitions, link degradations, departures and joins all reach the
views through the protocol, not through a hand-written schedule.  A
heartbeat period of ``DELTA`` and ``U = 20`` intervals keep the event
count and the cost of the object-form reference small; Algorithm 4 does
not depend on either value.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.adaptive as adaptive_module
from repro.core.viewtable import VectorSnapshot, VectorView
from repro.experiments.runner import current_scale
from repro.scenario.generate import ScenarioGenerator
from repro.scenario.trial import run_scenario_trial
from tests.conformance.reference.knowledge import ProcessView
from tests.test_viewtable import assert_equivalent, assert_invariant

#: Heartbeat and self-tick period of the teed runs.
DELTA = 5.0
#: Simulated time each scenario keeps past its last timeline event.
TAIL = 25.0
#: Duration of a scenario with an empty timeline.
SHORT = 60.0
#: Event kinds a run can feed a view.
KINDS = ("emit", "receive", "piggyback", "sweep", "up-tick", "downtime")


class TeeSnapshot(VectorSnapshot):
    """A ``VectorSnapshot`` carrying the shadow view's snapshot with it."""

    __slots__ = ("shadow",)


class TeeView:
    """A process's ``VectorView`` plus a shadow ``ProcessView``.

    Every event goes to both views; every query is answered by the
    ``VectorView``.  A ``watched`` tee checks full equivalence after each
    event, any other tee the merge invariant.
    """

    def __init__(self, pid, graph, params, now, *, watched, events):
        self.vector = VectorView(pid, graph, params, now=now)
        self.shadow = ProcessView(
            pid, graph.n, graph.neighbors(pid), self.vector.params, now=now
        )
        self.watched = watched
        self.events = events

    def __getattr__(self, name):
        return getattr(self.vector, name)

    def check(self):
        assert_equivalent(self.vector.graph, self.shadow, self.vector)

    def _after(self, kind):
        self.events[kind] += 1
        assert_invariant(self.vector)
        if self.watched:
            self.check()

    @staticmethod
    def _pair(snapshot, shadow):
        tee = TeeSnapshot(
            snapshot.sender, snapshot.sender_seq, snapshot.rec, snapshot.d
        )
        tee.shadow = shadow
        return tee

    def emit_heartbeat(self, now):
        snapshot = self._pair(
            self.vector.emit_heartbeat(now), self.shadow.emit_heartbeat(now)
        )
        self._after("emit")
        return snapshot

    def peek_snapshot(self, now):
        snapshot = self._pair(
            self.vector.peek_snapshot(now), self.shadow.peek_snapshot(now)
        )
        self._after("piggyback")
        return snapshot

    def handle_heartbeat(self, snapshot, now):
        self.vector.handle_heartbeat(snapshot, now)
        self.shadow.handle_heartbeat(snapshot.shadow, now)
        self._after("receive")

    def staleness_sweep(self, now):
        suspected = self.vector.staleness_sweep(now)
        assert self.shadow.staleness_sweep(now) == suspected
        self._after("sweep")
        return suspected

    def record_up_tick(self):
        self.vector.record_up_tick()
        self.shadow.record_up_tick()
        self._after("up-tick")

    def record_downtime(self, ticks):
        self.vector.record_downtime(ticks)
        self.shadow.record_downtime(ticks)
        self._after("downtime")


def run_teed(monkeypatch, spec, piggyback, watched):
    """One adaptive trial of ``spec`` with every view teed; event counts.

    The processes in ``watched`` are checked after each of their events;
    every view is checked once more when the run ends.
    """
    events: Counter = Counter()
    tees = []

    def make_view(pid, graph, params=None, now=0.0):
        tee = TeeView(
            pid, graph, params, now, watched=pid in watched, events=events
        )
        tees.append(tee)
        return tee

    monkeypatch.setattr(adaptive_module, "VectorView", make_view)
    params = {
        "delta": DELTA,
        "tick": DELTA,
        "intervals": 20,
        "piggyback_knowledge": piggyback,
    }
    run_scenario_trial(spec, "adaptive", trial=0, params={"adaptive": params})
    assert len(tees) == spec.topology.n
    for tee in tees:
        tee.check()
    return events


def shortened(spec):
    """``spec`` cut to ``TAIL`` past its last event (``SHORT`` if none)."""
    end = spec.last_event_time + TAIL if spec.timeline else SHORT
    return spec.with_overrides(duration=min(spec.duration, end))


def differential(monkeypatch, indices):
    """Run every generated scenario in ``indices``; summed event counts.

    Even indices piggyback knowledge on data messages, odd ones do not.
    Scenario ``index`` watches process ``index mod n``.
    """
    generator = ScenarioGenerator("view-differential", current_scale("quick"))
    total: Counter = Counter()
    for index in indices:
        spec = shortened(generator.generate(index))
        watched = {index % spec.topology.n}
        total += run_teed(monkeypatch, spec, index % 2 == 0, watched)
    return total


def test_vector_view_matches_reference_on_generated_scenarios(monkeypatch):
    events = differential(monkeypatch, range(10))
    for kind in KINDS:
        assert events[kind] > 0, (kind, events)


@pytest.mark.slow
def test_vector_view_matches_reference_on_more_scenarios(monkeypatch):
    events = differential(monkeypatch, range(10, 20))
    for kind in KINDS:
        assert events[kind] > 0, (kind, events)
