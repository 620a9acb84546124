"""Run-time monitors: delivery tracking, convergence and invariants.

* :class:`BroadcastMonitor` records which processes delivered each
  broadcast message, yielding per-broadcast delivery ratios — the
  empirical counterpart of the reliability ``K``.
* :class:`ConvergenceMonitor` polls a predicate at a fixed period and
  records the first time it holds — used for "all processes learned the
  reliability probabilities" in Figures 5 and 6.
* :class:`InvariantMonitor` instruments a network's accounting and crash
  model to assert structural simulation invariants (no delivery to a
  crashed process, partition-respecting delivery, sane record times) on
  every transmission — the checker behind the generated-scenario
  invariant smoke tests.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.sim.crash import CrashModel
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.sim.network import Network
    from repro.topology.configuration import Configuration
from repro.sim.events import DYNAMICS_PRIORITY
from repro.sim.trace import DropReason, MessageCategory, MessageStats
from repro.types import Link, ProcessId
from repro.util.validation import check_positive

#: Epoch probes run after the dynamics events of the same instant
#: (``DYNAMICS_PRIORITY``) but before any ordinary callback, so they
#: snapshot the post-change configuration at the event time itself.
EPOCH_PROBE_PRIORITY = (DYNAMICS_PRIORITY + 0) // 2


class BroadcastMonitor:
    """Tracks ``deliver(m)`` events per broadcast id.

    Protocol processes call :meth:`delivered` from their deliver path; the
    experiment reads ratios once the run finishes.
    """

    __slots__ = ("_n", "_deliveries", "_first_delivery_time", "_last_delivery_time")

    def __init__(self, n: int) -> None:
        self._n = n
        self._deliveries: Dict[Hashable, Set[ProcessId]] = {}
        self._first_delivery_time: Dict[Hashable, float] = {}
        self._last_delivery_time: Dict[Hashable, float] = {}

    def delivered(self, message_id: Hashable, pid: ProcessId, now: float) -> None:
        group = self._deliveries.get(message_id)
        if group is None:
            group = self._deliveries[message_id] = set()
        if pid not in group:
            group.add(pid)
            self._first_delivery_time.setdefault(message_id, now)
            self._last_delivery_time[message_id] = now

    def delivery_count(self, message_id: Hashable) -> int:
        return len(self._deliveries.get(message_id, ()))

    def delivery_ratio(self, message_id: Hashable) -> float:
        return self.delivery_count(message_id) / self._n

    def fully_delivered(self, message_id: Hashable) -> bool:
        """Whether every process delivered this broadcast."""
        return self.delivery_count(message_id) == self._n

    def broadcast_ids(self) -> List[Hashable]:
        return list(self._deliveries)

    def all_fully_delivered(self) -> bool:
        return all(self.fully_delivered(mid) for mid in self._deliveries)

    def completion_time(self, message_id: Hashable) -> Optional[float]:
        """Time of the last (n-th) delivery, or None if incomplete."""
        if not self.fully_delivered(message_id):
            return None
        return self._last_delivery_time[message_id]


class ConvergenceMonitor:
    """Polls ``predicate()`` every ``period`` and remembers first success.

    The predicate is evaluated outside any process (omniscient observer),
    so polling consumes no simulated messages.
    """

    __slots__ = (
        "_sim",
        "_predicate",
        "_period",
        "_stop",
        "_deadline",
        "_converged_at",
        "_polls",
    )

    def __init__(
        self,
        sim: Simulator,
        predicate: Callable[[], bool],
        period: float = 1.0,
        stop_when_converged: bool = False,
        deadline: Optional[float] = None,
    ) -> None:
        self._sim = sim
        self._predicate = predicate
        self._period = check_positive(period, "period")
        self._stop = stop_when_converged
        self._deadline = deadline
        self._converged_at: Optional[float] = None
        self._polls = 0
        self._schedule()

    def _schedule(self) -> None:
        self._sim.schedule(self._period, self._poll, name="convergence-poll")

    def _poll(self) -> None:
        self._polls += 1
        if self._predicate():
            self._converged_at = self._sim.now
            if self._stop:
                self._sim.stop()
            return
        if self._deadline is not None and self._sim.now >= self._deadline:
            if self._stop:
                self._sim.stop()
            return
        self._schedule()

    @property
    def converged(self) -> bool:
        return self._converged_at is not None

    @property
    def converged_at(self) -> float:
        """Time of first success (+inf if never converged)."""
        return math.inf if self._converged_at is None else self._converged_at

    @property
    def polls(self) -> int:
        return self._polls


class InvariantViolation(AssertionError):
    """A structural simulation invariant was broken."""


class _CheckingStats(MessageStats):
    """A :class:`MessageStats` that routes every record through a checker.

    Subclassing keeps the real counters accumulating in ``super()``, so
    an instrumented trial reports exactly the metrics it would have
    reported unmonitored.
    """

    __slots__ = ("_monitor",)

    def __init__(self, monitor: "InvariantMonitor", trace: bool = False) -> None:
        super().__init__(trace=trace)
        self._monitor = monitor

    def record(
        self,
        time: float,
        sender: ProcessId,
        receiver: ProcessId,
        category: MessageCategory,
        delivered: bool,
        drop_reason: Optional[DropReason] = None,
    ) -> None:
        self._monitor._check_record(
            time, sender, receiver, delivered, drop_reason
        )
        super().record(time, sender, receiver, category, delivered, drop_reason)


class _CheckingCrashModel(CrashModel):
    """Delegating crash-model wrapper that remembers the last step draw.

    Pure delegation — it consumes no RNG of its own — but records each
    ``crashed_step`` outcome so the monitor can verify that every
    delivery was preceded by an up-step draw for its receiver *at the
    delivery instant*.
    """

    __slots__ = ("_inner", "_last_step")

    def __init__(self, inner: CrashModel) -> None:
        self._inner = inner
        self._last_step: Dict[ProcessId, Tuple[float, bool]] = {}

    def crashed_step(self, p: ProcessId, now: float) -> bool:
        crashed = self._inner.crashed_step(p, now)
        self._last_step[p] = (now, crashed)
        return crashed

    def is_down(self, p: ProcessId, now: float) -> bool:
        return self._inner.is_down(p, now)

    def __getattr__(self, name: str) -> Any:
        # force_recover_all and model-specific surface pass through
        return getattr(self._inner, name)


class InvariantMonitor:
    """Asserts structural invariants on every network transmission.

    Attach it to a :class:`~repro.protocols.trial.Trial` after the
    scenario's :class:`~repro.sim.dynamics.DynamicsDriver` is installed
    but before ``network.start()``; the trial closes it on exit::

        t, driver = scenario_trial(spec, proto, "repro-scenario", 0)
        with t:
            checker = t.attach(InvariantMonitor(
                t.sim, t.network, event_times=[e.at for e in spec.timeline]))
            t.network.start()
            t.sim.run(until=spec.duration)
        assert checker.records_checked > 0

    Checked on every :meth:`MessageStats.record`:

    * **sane record times** — no record stamped in the future or before
      t=0 (delivery records carry their send time, which must not exceed
      the current instant);
    * **delivered xor dropped** — a transmission is delivered or carries
      a drop reason, never both or neither;
    * **real links only** — transmissions only cross links of the graph;
    * **no delivery to a crashed process** — a delivery must be preceded
      by a crash-model step draw for its receiver at the delivery
      instant that came up "up" (and a receiver-crash drop by one that
      came up "crashed");
    * **partition-respecting delivery** — a delivered message's link had
      transmissible loss (< 1) in the configuration epoch of its *send*
      time: messages already in flight may legitimately land after a cut,
      but nothing transmitted across a severed link may ever arrive.

    Configuration epochs are snapshotted by probe events at the supplied
    timeline instants, at a priority after the dynamics events of the
    same instant; the probes also re-instrument the crash model, which
    dynamics events may have replaced.  The monitor draws no RNG of its
    own and leaves the trial's metrics bit-identical.
    """

    __slots__ = ("_sim", "_network", "_epochs", "_checked")

    def __init__(
        self,
        sim: Simulator,
        network: "Network",
        event_times: Iterable[float] = (),
    ) -> None:
        self._sim = sim
        self._network = network
        self._epochs: List[Tuple[float, "Configuration"]] = [(0.0, network.config)]
        self._checked = 0
        stats = _CheckingStats(self, trace=network.stats._trace_enabled)
        network._stats = stats
        self._wrap_crash_model()
        for at in sorted({float(t) for t in event_times}):
            sim.schedule_at(
                at,
                self._probe,
                name="invariant-probe",
                priority=EPOCH_PROBE_PRIORITY,
            )

    @property
    def records_checked(self) -> int:
        """Transmission records inspected so far."""
        return self._checked

    def close(self) -> None:
        """Let go of the network, whose stats hold this monitor (a cycle)."""
        del self._network

    def _wrap_crash_model(self) -> None:
        inner = self._network._crash_model
        if not isinstance(inner, _CheckingCrashModel):
            self._network._crash_model = _CheckingCrashModel(inner)

    def _probe(self) -> None:
        # runs after this instant's dynamics applied (less urgent
        # priority), so the snapshot is the settled post-event config
        self._epochs.append((self._sim.now, self._network.config))
        self._wrap_crash_model()

    def _config_at(self, time: float) -> "Configuration":
        config = self._epochs[0][1]
        for at, snapshot in self._epochs:
            if at > time:
                break
            config = snapshot
        return config

    def _fail(self, message: str) -> None:
        raise InvariantViolation(f"t={self._sim.now:g}: {message}")

    def _check_record(
        self,
        time: float,
        sender: ProcessId,
        receiver: ProcessId,
        delivered: bool,
        drop_reason: Optional[DropReason],
    ) -> None:
        self._checked += 1
        now = self._sim.now
        if not 0.0 <= time <= now:
            self._fail(
                f"transmission record stamped at t={time} outside [0, now]"
            )
        if delivered and drop_reason is not None:
            self._fail(
                f"record {sender}->{receiver} both delivered and "
                f"dropped ({drop_reason})"
            )
        if not delivered and drop_reason is None:
            self._fail(
                f"record {sender}->{receiver} neither delivered nor "
                "carries a drop reason"
            )
        graph = self._network.graph
        if not graph.has_link(sender, receiver):
            self._fail(
                f"transmission {sender}->{receiver} crosses a "
                "non-existent link"
            )
        model = self._network._crash_model
        last = (
            model._last_step.get(receiver)
            if isinstance(model, _CheckingCrashModel)
            else None
        )
        if delivered:
            if last != (now, False):
                self._fail(
                    f"delivery to {receiver} without an up-step crash "
                    f"draw at the delivery instant (last draw: {last})"
                )
            link = Link.of(sender, receiver)
            loss = self._config_at(time).loss_probability(link)
            if loss >= 1.0:
                self._fail(
                    f"delivery {sender}->{receiver} of a message sent "
                    f"at t={time:g} across a severed link (loss={loss})"
                )
        elif drop_reason is DropReason.RECEIVER_CRASH and last != (now, True):
            self._fail(
                f"receiver-crash drop at {receiver} without a crashed "
                f"step draw at this instant (last draw: {last})"
            )
