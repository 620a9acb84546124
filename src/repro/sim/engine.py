"""The discrete-event simulation kernel.

A classic calendar-queue-free design: a binary heap of plain
``(time, priority, seq, item)`` tuples ordered by their first three
fields.  Storing native tuples (rather than rich event objects) keeps
every ``heappush``/``heappop`` comparison inside CPython's C tuple
comparator — no Python-level ``__lt__`` calls on the hot path.
Cancellation is lazy (items are flagged and skipped on pop), which keeps
both scheduling and cancelling O(log n) / O(1).

The queue item is a contract, not a class: anything with ``cancelled``,
``name`` (read only by the trace) and ``callback()``.  ``schedule`` queues
and returns an :class:`~repro.sim.events.Event`; a network delivery and a
periodic re-arm push their own item through ``_push``, which alone
allocates ``seq``.

Determinism: given the same push calls in the same order, the engine
executes callbacks in exactly the same order — simultaneous items tie-break
on priority then insertion sequence, and ``seq`` is unique per simulator so
tuple comparison never reaches the (incomparable) item slot.  All
randomness lives in the protocols' :class:`repro.util.rng.RandomSource`
streams, never in the engine.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import DEFAULT_PRIORITY, Event, TraceRecord

_INF = math.inf

#: One queued entry: ``(time, priority, seq, item)``.
QueueEntry = Tuple[float, int, int, Any]


class Simulator:
    """Virtual-time event loop.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [2.0]
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_running",
        "_stopped",
        "_executed",
        "_trace_enabled",
        "_trace",
    )

    def __init__(self, trace: bool = False) -> None:
        self._now = 0.0
        self._queue: List[QueueEntry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._executed = 0
        self._trace_enabled = trace
        self._trace: List[TraceRecord] = []

    # -- time ---------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of callbacks executed so far.

        Inside :meth:`run` the count is folded in when the loop exits, so
        a callback reading this property mid-run sees the value as of the
        loop's entry; :meth:`step` updates it per event.
        """
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    @property
    def trace(self) -> List[TraceRecord]:
        """Engine trace records (only populated when ``trace=True``)."""
        return self._trace

    # -- scheduling ---------------------------------------------------------------

    def _push(self, time: float, priority: int, item: Any) -> int:
        """Queue ``item`` and return its ``seq``.  ``time`` is unchecked:
        callers validate it (or the latency/period it derives from)."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, priority, seq, item))
        return seq

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        name: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Returns the queued :class:`Event` (``time``, ``active``, ``cancel()``).

        Raises:
            SchedulingError: on negative, NaN or infinite delay.
        """
        # `delay != delay` is the NaN test
        if delay < 0.0 or delay != delay or delay == _INF:
            raise SchedulingError(f"invalid delay {delay!r}")
        time = self._now + delay
        if time == _INF:
            raise SchedulingError(
                f"cannot schedule at t={time!r} (now={self._now!r})"
            )
        event = Event(time, priority, -1, callback, name)
        event.seq = self._push(time, priority, event)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        name: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` at an absolute virtual time.

        Raises:
            SchedulingError: if ``time`` is in the past or not finite.
        """
        if time < self._now or time != time or time == _INF:
            raise SchedulingError(
                f"cannot schedule at t={time!r} (now={self._now!r})"
            )
        event = Event(time, priority, -1, callback, name)
        event.seq = self._push(time, priority, event)
        return event

    # -- execution ----------------------------------------------------------------

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this callback."""
        self._stopped = True

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns:
            ``True`` if an event ran, ``False`` if the queue was empty.
        """
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            item = entry[3]
            if item.cancelled:
                continue
            self._now = entry[0]
            if self._trace_enabled:
                self._trace.append(TraceRecord(self._now, "exec", item.name))
            self._executed += 1
            item.callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` callbacks have executed.

        ``until`` is inclusive: events at exactly ``until`` execute, and on
        return ``now`` is advanced to ``until`` even if the queue drained
        earlier (so periodic statistics line up).

        Raises:
            SimulationError: on re-entrant ``run`` calls.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        # the hot loop: everything loop-invariant is a local, the heap
        # entry is unpacked positionally, and the trace branch reduces to
        # one predictable jump when tracing is off.  `remaining` counts
        # down to 0; -1 (no limit) decrements forever without triggering.
        queue = self._queue
        pop = heapq.heappop
        limit = _INF if until is None else until
        # a negative budget means "none left" (matches the old `> 0`
        # guard): clamp to 0 so the loop below runs nothing
        remaining = -1 if max_events is None else max(0, max_events)
        tracing = self._trace_enabled
        trace_append = self._trace.append
        executed = 0
        try:
            while queue and remaining != 0 and not self._stopped:
                entry = queue[0]
                item = entry[3]
                if item.cancelled:
                    pop(queue)
                    continue
                time = entry[0]
                if time > limit:
                    break
                pop(queue)
                self._now = time
                if tracing:
                    trace_append(TraceRecord(time, "exec", item.name))
                executed += 1
                item.callback()
                remaining -= 1
        finally:
            self._executed += executed
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Drain the queue entirely (bounded by ``max_events``).

        Raises:
            SimulationError: if the bound is hit, which almost always means
                a runaway periodic timer.
        """
        self.run(max_events=max_events)
        if self.pending_events:
            raise SimulationError(
                f"run_until_idle exhausted {max_events} events with "
                f"{self.pending_events} still pending"
            )
