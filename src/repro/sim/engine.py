"""The discrete-event simulation kernel.

A classic calendar-queue-free design: a binary heap of plain
``(time, priority, seq, item)`` tuples ordered by their first three
fields.  Storing native tuples (rather than rich event objects) keeps
every ``heappush``/``heappop`` comparison inside CPython's C tuple
comparator — no Python-level ``__lt__`` calls on the hot path.
Cancellation is lazy (items are flagged and skipped on pop), which keeps
both scheduling and cancelling O(log n) / O(1).

A queue item is one of two things:

* anything with ``cancelled``, ``name`` (read only by the trace) and
  ``callback()``: ``schedule`` queues and returns an
  :class:`~repro.sim.events.Event`, and a network delivery pushes its own
  item through ``_push``;
* a tick group: every periodic chain (:meth:`Simulator.periodic`) is a
  member of one, and the chains of a group share their firing instant and
  period, so one heap entry ``(time, DEFAULT_PRIORITY, seq of its first
  due member, group)`` stands for all of them.

A group replays exactly what one entry per chain would do:

* **seq reservation** — after its callback a member takes the next
  ``seq``, where a lone chain would have re-pushed itself, so the
  counter and every later ``seq`` are what they would be;
* **yield** — before each member the group compares the member's
  ``(time, priority, seq)`` with the heap top and, if a queued item sorts
  first, re-pushes itself under that member's ``seq``;
* **join** — a new chain joins a group only if the group's next instant
  is the chain's first and the period is the same; otherwise it starts a
  group of its own.  A group mid-firing is never joined: its instant is
  ``now``, and a chain's first instant is strictly later;
* **per-member accounting** — ``executed_events``, the ``max_events``
  budget, ``stop()``, ``step()``, the trace and ``pending_events`` all
  count members; a cancelled member is dropped without taking a ``seq``.

A member whose :attr:`~repro.sim.events.Event.parked` flag is set is
counted, traced and given its ``seq`` but its callback is not called.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import DEFAULT_PRIORITY, Event, TraceRecord

_INF = math.inf

#: One queued entry: ``(time, priority, seq, item)``.
QueueEntry = Tuple[float, int, int, Any]


class _TickGroup:
    """The periodic chains due at one instant: one queue item.

    ``due[pos:]`` are the members still to fire at ``time``; ``fired``
    are the ones that already fired there and wait for ``time + period``.
    Both lists are in ``seq`` order.
    """

    __slots__ = ("time", "period", "due", "pos", "fired")

    #: a group is never cancelled as a whole: its members are
    cancelled = False

    def __init__(self, time: float, period: float) -> None:
        self.time = time
        self.period = period
        self.due: List[Event] = []
        self.pos = 0
        self.fired: List[Event] = []

    def pending(self) -> int:
        """Members not cancelled and not firing right now."""
        members = self.due[self.pos :] + self.fired
        return sum(1 for event in members if not event.cancelled)


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
        "_groups",
        "_firing",
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
        # the group a new chain of a period may join
        self._groups: Dict[float, _TickGroup] = {}
        # the group whose member is running (popped, so not in the queue)
        self._firing: Optional[_TickGroup] = None

    # -- time ---------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of callbacks executed so far (tick-group members each
        count once, parked ones included)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events (tick-group members
        each count once)."""
        count = 0
        for entry in self._queue:
            item = entry[3]
            if item.__class__ is _TickGroup:
                count += item.pending()
            elif not item.cancelled:
                count += 1
        if self._firing is not None:
            count += self._firing.pending()
        return count

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

    def periodic(
        self,
        period: float,
        callback: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Run ``callback`` every ``period`` time units, first one period
        from now, until the returned :class:`Event` is cancelled.

        The event's ``time`` and ``seq`` are those of its next firing; set
        its ``parked`` flag to skip the callback while it would do nothing.

        Raises:
            SchedulingError: on a period that is not positive and finite,
                or too small to advance ``now``.
        """
        if not 0.0 < period < _INF:  # NaN fails too
            raise SchedulingError(f"invalid period {period!r}")
        time = self._now + period
        if not self._now < time < _INF:
            raise SchedulingError(
                f"cannot schedule at t={time!r} (now={self._now!r})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, DEFAULT_PRIORITY, seq, callback, name)
        group = self._groups.get(period)
        if group is None or group.time != time:
            group = self._groups[period] = _TickGroup(time, period)
            heapq.heappush(self._queue, (time, DEFAULT_PRIORITY, seq, group))
        group.due.append(event)
        return event

    def close(self) -> None:
        """Drop every queued item unrun (see :meth:`Network.close`)."""
        self._queue.clear()
        self._groups.clear()

    # -- tick groups ----------------------------------------------------------------

    def _fire(self, group: _TickGroup, budget: int) -> int:
        """Run ``group``'s due members in ``seq`` order; return how many ran.

        At most ``budget`` run (a negative budget is unlimited).  The group
        stops before a member when the budget is spent, :meth:`stop` was
        called, or a queued item sorts before that member; it is then
        re-queued under that member's ``seq``.
        """
        queue = self._queue
        time = group.time
        due = group.due
        fired = group.fired
        next_time = time + group.period
        tracing = self._trace_enabled
        outer = self._firing
        self._firing = group
        ran = 0
        pos = group.pos
        try:
            while pos < len(due):
                event = due[pos]
                if event.cancelled:
                    pos += 1
                    continue
                if ran and (ran == budget or self._stopped):
                    break
                if queue:
                    top = queue[0]
                    if top[0] <= time and top < (time, DEFAULT_PRIORITY, event.seq):
                        break
                pos += 1
                group.pos = pos
                self._now = time
                if tracing:
                    self._trace.append(TraceRecord(time, "exec", event.name))
                self._executed += 1
                ran += 1
                if not event.parked:
                    event.callback()
                if not event.cancelled:
                    event.time = next_time
                    event.seq = self._seq
                    self._seq += 1
                    fired.append(event)
        finally:
            # a member whose callback raised is not re-armed: a lone
            # chain skipped its re-push too
            group.pos = pos
            self._firing = outer
            self._requeue(group)
        return ran

    def _requeue(self, group: _TickGroup) -> None:
        """Queue ``group`` under its next due member, or drop it if empty."""
        due = group.due
        if group.pos < len(due):
            heapq.heappush(
                self._queue, (group.time, DEFAULT_PRIORITY, due[group.pos].seq, group)
            )
        elif group.fired:
            group.time += group.period
            group.due = due = group.fired
            group.fired = []
            group.pos = 0
            heapq.heappush(self._queue, (group.time, DEFAULT_PRIORITY, due[0].seq, group))
        elif self._groups.get(group.period) is group:
            del self._groups[group.period]

    # -- execution ----------------------------------------------------------------

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this callback."""
        self._stopped = True

    def step(self) -> bool:
        """Execute the single next pending event (one tick-group member).

        Returns:
            ``True`` if an event ran, ``False`` if the queue was empty.
        """
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            item = entry[3]
            if item.cancelled:
                continue
            if item.__class__ is _TickGroup:
                if self._fire(item, 1):
                    return True
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
        group_type = _TickGroup
        fire = self._fire
        limit = _INF if until is None else until
        # a negative budget means "none left" (matches the old `> 0`
        # guard): clamp to 0 so the loop below runs nothing
        remaining = -1 if max_events is None else max(0, max_events)
        tracing = self._trace_enabled
        trace_append = self._trace.append
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
                if item.__class__ is group_type:
                    remaining -= fire(item, remaining)
                    continue
                self._now = time
                if tracing:
                    trace_append(TraceRecord(time, "exec", item.name))
                self._executed += 1
                item.callback()
                remaining -= 1
        finally:
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
