"""A periodic chain as one queue entry per firing: the tick-group oracle.

This is the chain :meth:`repro.sim.engine.Simulator.periodic` replaces:
one :class:`~repro.sim.events.Event` from ``schedule``, whose callback
runs the action (unless the event is parked) and then, while the event
is not cancelled, re-pushes the same event through ``_push`` one period
later.  Every firing is its own heap pop and its own push, so chains
that fire at the same instant order themselves by nothing but
``(time, priority, seq)``; the tick groups must reproduce that order,
the engine trace, the event counts and every ``seq`` exactly.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Simulator
from repro.sim.events import Event


def periodic(
    sim: Simulator,
    period: float,
    callback: Callable[[], None],
    name: str = "",
) -> Event:
    """Run ``callback`` every ``period`` from one period from now until
    the returned event is cancelled; a parked event skips the call."""

    def tick() -> None:
        if not event.parked:
            callback()
        if not event.cancelled:
            event.time = time = sim.now + period
            event.seq = sim._push(time, event.priority, event)

    event = sim.schedule(period, tick, name=name)
    return event
