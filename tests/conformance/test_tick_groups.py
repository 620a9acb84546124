"""Tick groups against one queue entry per firing, on random programs.

Two simulators run the same random program.  On one every periodic
chain is a :meth:`~repro.sim.engine.Simulator.periodic` tick-group
member; on the other it is the oracle chain of
:mod:`tests.conformance.reference.periodic`, one event re-pushed per
firing.  A program mixes 1-3 periods, chains armed at different times
(interleaved with one-shot items of 1-3 priorities queued for the same
instants, so a chain meets items that sort before, with and after it),
and reactions run from inside callbacks: cancels, same-name
re-arms, new chains, parked toggles, ``stop()``, and one-shots queued
for now or for exactly one period on (``schedule`` and ``schedule_at``).
It is driven by a random mix of ``run(until=...)``, ``run(max_events=...)``
and ``step()`` loops.  Both sides must produce the same engine trace,
the same callback log (with the ``seq`` every armed or scheduled event
got, and ``executed_events``/``pending_events`` seen from inside each
callback), and the same counts after every segment.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Tuple

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import Event
from tests.conformance.reference import periodic as reference

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

NAMES = ("a", "b", "c", "d")
END = 9.0
Op = Tuple


class World:
    """One side of the comparison: a simulator, its chains and a log."""

    def __init__(self, arm_chain: Callable[..., Event], program: dict) -> None:
        self.sim = Simulator(trace=True)
        self.arm_chain = arm_chain
        self.program = program
        self.chains: Dict[str, Event] = {}
        self.periods: Dict[str, float] = {}
        self.generation: Counter = Counter()
        self.firings: Counter = Counter()
        self.log: List[tuple] = []

    def arm(self, name: str, period: float) -> None:
        old = self.chains.pop(name, None)
        if old is not None:
            old.cancel()
        self.generation[name] += 1
        label = f"{name}#{self.generation[name]}"
        event = self.arm_chain(self.sim, period, lambda: self.fire(name, label), label)
        self.chains[name] = event
        self.periods[name] = period
        self.log.append(("arm", self.sim.now, label, event.seq))

    def fire(self, name: str, label: str) -> None:
        k = self.firings[label]
        self.firings[label] += 1
        sim = self.sim
        self.log.append(
            ("fire", sim.now, label, sim.executed_events, sim.pending_events)
        )
        for op in self.program["reactions"].get((name, k), ()):
            self.apply(op, self.periods[name])

    def once(self, label: str, ops: Tuple[Op, ...]) -> None:
        sim = self.sim
        self.log.append(("once", sim.now, label, sim.executed_events))
        for op in ops:
            self.apply(op, 1.0)

    def apply(self, op: Op, own_period: float) -> None:
        sim, kind = self.sim, op[0]
        if kind == "cancel":
            event = self.chains.pop(op[1], None)
            if event is not None:
                event.cancel()
        elif kind == "arm":
            self.arm(*op[1:])
        elif kind == "park":
            event = self.chains.get(op[1])
            if event is not None:
                event.parked = op[2]
        elif kind == "stop":
            sim.stop()
        elif kind == "echo":  # a one-shot for exactly one period on
            _, priority, absolute = op
            label = f"echo@{sim.now}"
            if absolute:
                event = sim.schedule_at(
                    sim.now + own_period, lambda: self.once(label, ()),
                    name=label, priority=priority,
                )  # fmt: skip
            else:
                event = sim.schedule(
                    own_period, lambda: self.once(label, ()),
                    name=label, priority=priority,
                )  # fmt: skip
            self.log.append(("queued", sim.now, label, event.seq))
        elif kind == "now":  # a one-shot at this very instant
            label = f"now@{sim.now}"
            event = sim.schedule(0.0, lambda: self.once(label, ()), name=label, priority=op[1])
            self.log.append(("queued", sim.now, label, event.seq))

    def setup(self) -> None:
        for step in self.program["setup"]:
            if step[0] == "arm":
                self.arm(*step[1:])
            else:
                _, time, priority, ops = step
                label = f"item@{time}/{priority}"
                event = self.sim.schedule_at(
                    time, lambda label=label, ops=ops: self.once(label, ops),
                    name=label, priority=priority,
                )  # fmt: skip
                self.log.append(("queued", 0.0, label, event.seq))

    def drive(self) -> List[tuple]:
        sim, checkpoints = self.sim, []
        until = 0.0
        for kind, amount in self.program["segments"] + [("until", END)]:
            if kind == "until":
                until = min(END, until + amount)
                sim.run(until=until)
            elif kind == "max":
                sim.run(max_events=amount)
            else:
                for _ in range(amount):
                    sim.step()
            checkpoints.append(
                (kind, sim.now, sim.executed_events, sim.pending_events)
            )
        return checkpoints


@st.composite
def programs(draw) -> dict:
    periods = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=3, unique=True))
    priorities = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=3, unique=True))
    names = st.sampled_from(NAMES)
    period = st.sampled_from(periods)
    priority = st.sampled_from(priorities)
    arm = st.tuples(st.just("arm"), names, period)
    op = st.one_of(
        st.tuples(st.just("cancel"), names),
        arm,
        st.tuples(st.just("park"), names, st.booleans()),
        st.tuples(st.just("stop")),
        st.tuples(st.just("echo"), priority, st.booleans()),
        st.tuples(st.just("now"), priority),
    )
    ops = st.lists(op, max_size=2).map(tuple)
    instant = st.integers(0, 12).map(lambda k: k / 2)
    item = st.tuples(st.just("item"), instant, priority, ops)
    setup = draw(st.lists(st.one_of(arm, item), min_size=1, max_size=8))
    reactions = draw(
        st.dictionaries(st.tuples(names, st.integers(0, 4)), ops, max_size=8)
    )
    segment = st.tuples(st.sampled_from(["until", "max", "step"]), st.integers(1, 12))
    segments = draw(st.lists(segment, max_size=4))
    return {"setup": setup, "reactions": reactions, "segments": segments}


def play(arm_chain, program):
    world = World(arm_chain, program)
    world.setup()
    checkpoints = world.drive()
    trace = [(record.time, record.detail) for record in world.sim.trace]
    return trace, world.log, checkpoints


def group_chain(sim, period, callback, name):
    return sim.periodic(period, callback, name=name)


@settings(max_examples=300)
@given(programs())
def test_tick_groups_replay_one_entry_per_firing(program):
    grouped = play(group_chain, program)
    expected = play(reference.periodic, program)
    assert grouped[0] == expected[0]  # engine trace: (time, name)
    assert grouped[1] == expected[1]  # callbacks, seqs, in-callback counts
    assert grouped[2] == expected[2]  # now / executed / pending per segment
