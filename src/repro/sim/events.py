"""Event records for the simulation kernel.

Events are ordered by ``(time, priority, seq)``: earlier time first, then
explicit priority, then insertion order — so simultaneous events run in a
deterministic, insertion-stable order, which keeps seeded experiments
exactly reproducible.

Hot-path note: the engine's heap stores plain ``(time, priority, seq,
item)`` tuples, so ``heapq`` compares native tuples and never calls into
the item during push/pop.  A queue item is anything with ``cancelled``,
``name`` and ``callback()``: :class:`Event` is the general one, and the
network queues its own per-message delivery object without an ``Event``.
The one other queue item is the engine's tick group, which stands for
every periodic chain due at one instant with one period; each chain is an
``Event`` member of it (see :mod:`repro.sim.engine`).
``Event`` itself is a ``__slots__`` record (no per-instance dict, no
dataclass machinery); it is what ``Simulator.schedule`` returns, and it
still defines the full ``(time, priority, seq)`` ordering protocol for
direct ``sorted()`` use in tests and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

#: Default event priority; lower runs first among simultaneous events.
DEFAULT_PRIORITY = 0

#: Priority used for message deliveries (after timers at the same instant,
#: so periodic protocol timers observe a consistent pre-delivery state).
DELIVERY_PRIORITY = 10

#: Priority used for scenario dynamics (environment changes apply *before*
#: any timer or delivery scheduled at the same instant, so every callback
#: at time t observes the post-change configuration).
DYNAMICS_PRIORITY = -10


class Event:
    """One scheduled callback.

    Only the ``(time, priority, seq)`` key participates in ordering; the
    callback and metadata are comparison-excluded so arbitrary callables
    can be scheduled.

    ``parked`` applies to a periodic chain only: a parked member of a tick
    group is counted, traced and re-armed as usual but its callback is not
    called.  Park a chain only while its callback provably does nothing.
    """

    __slots__ = ("time", "priority", "seq", "callback", "name", "cancelled", "parked")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        name: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.name = name
        self.cancelled = False
        self.parked = False

    @property
    def key(self) -> Tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def cancel(self) -> None:
        """Mark the event so the engine skips it (O(1), lazy removal).

        Its callback goes too: it may hold what holds the event (a
        process's periodic chain holds the process).
        """
        self.cancelled = True
        self.callback = None

    # ordering protocol on the sort key (mirrors the former
    # ``@dataclass(order=True)`` semantics, including unhashability)
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.key == other.key

    __hash__ = None  # type: ignore[assignment]

    def __lt__(self, other: "Event") -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.key < other.key

    def __le__(self, other: "Event") -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.key <= other.key

    def __gt__(self, other: "Event") -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.key > other.key

    def __ge__(self, other: "Event") -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.key >= other.key

    def __repr__(self) -> str:  # pragma: no cover - debug sugar
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.4g}, name={self.name!r}, {state})"


@dataclass(frozen=True)
class TraceRecord:
    """One entry of the optional engine trace (see ``Simulator.trace``)."""

    time: float
    kind: str
    detail: Any
