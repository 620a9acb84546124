"""Base class for simulated protocol processes.

A :class:`SimProcess` owns a process id, its timers and convenience
wrappers around the network/engine: ``send`` and ``set_periodic``.
Protocol implementations (optimal, adaptive, gossip, ...) subclass it
and override the ``on_*`` hooks.

A periodic timer is one :class:`~repro.sim.events.Event` for its whole
life, a member of one of the engine's tick groups (the queue item that
fires every chain due at the same instant with one period; see
:mod:`repro.sim.engine`).  (Re-)arming a name cancels its chain first,
so a name has at most one chain.

Crash semantics: *step* crashes (message-level) are applied by the
network.  *Burst* crashes (Markov model) additionally call
:meth:`handle_crash` / :meth:`handle_recovery`, which mark the process
down or up and notify the subclass, letting protocols exercise the
paper's crash-recovery path (Event 4 of Algorithm 4).  A protocol keeps
its own state in its own attributes; what a crash loses is the
protocol's choice, made in :meth:`on_crash`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.network import Network
from repro.sim.trace import MessageCategory
from repro.types import ProcessId
from repro.util.validation import check_positive


class SimProcess:
    """One protocol process attached to a network.

    Subclasses override:

    * :meth:`on_start` — called once when the network starts.
    * :meth:`on_message` — called per delivered message.
    * :meth:`on_crash` / :meth:`on_recovery` — burst-crash notifications.
    """

    __slots__ = (
        "pid",
        "network",
        "neighbors",
        "_timers",
        "_down",
    )
    # NOTE: protocol subclasses deliberately do NOT declare __slots__ —
    # they keep a normal __dict__ for their own state (and tests may
    # monkeypatch hooks on instances); only the base-class plumbing
    # fields above are slotted.

    def __init__(self, pid: ProcessId, network: Network) -> None:
        self.pid = pid
        self.network = network
        self._timers: Dict[str, Event] = {}
        self._down = False
        network.register(self)
        #: The ``neighbors(p_k)`` of the paper (the topology never changes).
        self.neighbors: Tuple[ProcessId, ...] = network.graph.neighbors(pid)

    # -- environment --------------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    @property
    def now(self) -> float:
        return self.network.sim.now

    @property
    def is_down(self) -> bool:
        """Whether the process is inside a burst-crash down period."""
        return self._down

    # -- communication ------------------------------------------------------------

    def send(
        self,
        receiver: ProcessId,
        payload: Any,
        category: MessageCategory = MessageCategory.DATA,
    ) -> bool:
        """Send one message to a neighbour (no-op while down)."""
        if self._down:
            return False
        return self.network.send(self.pid, receiver, payload, category)

    def send_copies(
        self,
        receiver: ProcessId,
        payload: Any,
        copies: int,
        category: MessageCategory = MessageCategory.DATA,
    ) -> int:
        """Send ``copies`` independent transmissions of the same payload.

        This is the ``repeat m_j[i] times: send`` of Algorithm 1, line 11;
        each copy is a separate step with independent crash/loss draws.
        """
        sent = 0
        for _ in range(copies):
            if self.send(receiver, payload, category):
                sent += 1
        return sent

    # -- timers -------------------------------------------------------------------

    def timer_active(self, name: str) -> bool:
        return name in self._timers

    def set_periodic(
        self, period: float, name: str, action: Callable[[], None]
    ) -> Event:
        """(Re-)arm ``action`` every ``period`` time units until cancelled.

        The first firing happens one full period from now; re-arming a
        name cancels its running chain first.  A down process skips
        firings but the schedule keeps ticking (the process resumes its
        periodic activity on recovery).  Returns the chain's
        :class:`~repro.sim.events.Event`, whose ``parked`` flag the
        caller may set while ``action`` provably does nothing.
        """
        check_positive(period, "period")
        self.cancel_periodic(name)

        def tick() -> None:
            if not self._down:
                action()

        event = self.sim.periodic(period, tick, name=f"periodic:{self.pid}:{name}")
        self._timers[name] = event
        return event

    def cancel_periodic(self, name: str) -> None:
        event = self._timers.pop(name, None)
        if event is not None:
            event.cancel()

    def cancel_all_timers(self) -> None:
        for event in self._timers.values():
            event.cancel()
        self._timers.clear()

    # -- crash plumbing (called by the network's crash model) ----------------------

    def handle_crash(self, when: float) -> None:
        """Burst crash began: mark the process down, notify subclass."""
        self._down = True
        self.on_crash()

    def handle_recovery(self, when: float, down_ticks: int) -> None:
        """Burst crash ended after ``down_ticks`` ticks: notify subclass."""
        self._down = False
        self.on_recovery(down_ticks)

    # -- subclass hooks -----------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the network starts."""

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        """Called for each message delivered to this process."""

    def on_crash(self) -> None:
        """Called when a burst crash begins (the process is already down)."""

    def on_recovery(self, down_ticks: int) -> None:
        """Called when the process recovers after ``down_ticks`` ticks down."""

    def __repr__(self) -> str:  # pragma: no cover - debug sugar
        return f"{type(self).__name__}(pid={self.pid})"
