"""The simulated network: processes + links + crash/loss semantics.

``Network`` wires protocol processes (subclasses of
:class:`repro.sim.process.SimProcess`) onto a topology and delivers their
messages with the paper's probabilistic semantics:

1. the *send step* fails if the sender draws a crashed step,
2. the link drops the message with probability ``L``,
3. the *receive step* fails if the receiver draws a crashed step.

A transmission therefore succeeds with ``(1-P_s)(1-L)(1-P_r)`` — exactly
the success probability the ``reach`` function (Eq. 1/2) optimises for.
Every attempt is counted in :class:`repro.sim.trace.MessageStats`.
A message surviving steps 1–2 is one ``_Delivery`` on the engine's heap,
itself the queue item (no ``Event``); step 3 runs when it is popped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.errors import SimulationError, ValidationError
from repro.sim.crash import CrashModel, IidCrashModel, NoCrashModel
from repro.sim.engine import Simulator
from repro.sim.events import DELIVERY_PRIORITY
from repro.sim.link import LatencyModel, LossyLinkLayer
from repro.sim.trace import DropReason, MessageCategory, MessageStats
from repro.topology.configuration import Configuration
from repro.topology.graph import Graph
from repro.types import Link, ProcessId
from repro.util.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import SimProcess


@dataclass(frozen=True)
class NetworkOptions:
    """Tunable knobs of the network substrate."""

    latency: LatencyModel = field(default_factory=LatencyModel)
    trace_messages: bool = False
    crash_model: str = "iid"
    markov_mean_down_ticks: float = 5.0


class _Delivery:
    """One message in flight, queued on the engine's heap as it is.

    It meets the engine's queue-item contract itself — a delivery is
    never cancelled, and its ``name`` is rendered only when the engine
    trace reads it — so the send path allocates exactly one small object
    per in-flight message.  The receive-side crash draw + stats recording
    happen when the engine calls :meth:`callback` at delivery time.
    ``send_time`` is the *send* timestamp — transmission records are
    stamped with when the attempt was made, matching the original
    accounting.
    """

    __slots__ = ("network", "send_time", "sender", "receiver", "category", "payload")

    cancelled = False

    def __init__(
        self,
        network: "Network",
        send_time: float,
        sender: ProcessId,
        receiver: ProcessId,
        category: MessageCategory,
        payload: Any,
    ) -> None:
        self.network = network
        self.send_time = send_time
        self.sender = sender
        self.receiver = receiver
        self.category = category
        self.payload = payload

    @property
    def name(self) -> str:
        return f"deliver:{self.sender}->{self.receiver}"

    def callback(self) -> None:
        network = self.network
        receiver = self.receiver
        if network._crash_model.crashed_step(receiver, network._sim.now):
            network._stats.record(
                self.send_time,
                self.sender,
                receiver,
                self.category,
                False,
                DropReason.RECEIVER_CRASH,
            )
            return
        network._stats.record(
            self.send_time, self.sender, receiver, self.category, True
        )
        network._processes[receiver].on_message(self.sender, self.payload)


class Network:
    """Simulated message-passing substrate over a graph + configuration.

    Args:
        sim: the event engine driving the run.
        config: topology + true crash/loss probabilities.
        rng: root random stream; the network derives independent child
            streams for link losses, crash draws and latency jitter.
        options: see :class:`NetworkOptions`.
    """

    __slots__ = (
        "_sim",
        "_config",
        "_graph",
        "_options",
        "_rng",
        "_links",
        "_latency_rng",
        "_latency_base",
        "_latency_jitter",
        "_stats",
        "_processes",
        "_started",
        "_crash_model",
    )

    def __init__(
        self,
        sim: Simulator,
        config: Configuration,
        rng: RandomSource,
        options: Optional[NetworkOptions] = None,
    ) -> None:
        self._sim = sim
        self._config = config
        self._graph = config.graph
        self._options = options or NetworkOptions()
        self._rng = rng.child("network")
        self._links = LossyLinkLayer(config, self._rng)
        self._latency_rng = self._rng.child("latency")
        # the latency model is immutable for the network's lifetime
        # (reconfiguration keeps options); cache its fields so the send
        # path samples without attribute chains or a method call
        self._latency_base = self._options.latency.base
        self._latency_jitter = self._options.latency.jitter
        self._stats = MessageStats(trace=self._options.trace_messages)
        self._processes: Dict[ProcessId, "SimProcess"] = {}
        self._started = False
        self._crash_model = self._make_crash_model()

    def _make_crash_model(self) -> CrashModel:
        kind = self._options.crash_model
        crash_vec = self._config.crash_vector
        if kind == "none" or not crash_vec.any():
            return NoCrashModel()
        if kind == "iid":
            return IidCrashModel(crash_vec, self._rng)
        if kind == "markov":
            from repro.sim.crash import MarkovCrashModel

            return MarkovCrashModel(
                crash_vec,
                self._rng,
                mean_down_ticks=self._options.markov_mean_down_ticks,
                on_crash=self._on_process_crash,
                on_recover=self._on_process_recover,
                start_time=self._sim.now,
            )
        raise ValidationError(f"unknown crash model {kind!r}")

    def _retire_crash_model(self) -> None:
        """Recover anything the outgoing crash model holds down.

        A replacement model starts all-up; without this, a process that
        happened to be mid-sojourn when the model was swapped would keep
        its down flag forever and never send, receive or fire timers
        again.
        """
        retire = getattr(self._crash_model, "force_recover_all", None)
        if retire is not None:
            retire(self._sim.now)

    def _on_process_crash(self, p: ProcessId, when: float) -> None:
        proc = self._processes.get(p)
        if proc is not None:
            proc.handle_crash(when)

    def _on_process_recover(self, p: ProcessId, when: float, down_ticks: int) -> None:
        proc = self._processes.get(p)
        if proc is not None:
            proc.handle_recovery(when, down_ticks)

    # -- wiring -------------------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def config(self) -> Configuration:
        return self._config

    @property
    def stats(self) -> MessageStats:
        return self._stats

    @property
    def crash_model(self) -> CrashModel:
        return self._crash_model

    @property
    def options(self) -> NetworkOptions:
        """The current substrate options (crash model kind included)."""
        return self._options

    def register(self, process: "SimProcess") -> None:
        """Attach a protocol process; ids must be unique and in the graph."""
        pid = process.pid
        if not 0 <= pid < self._graph.n:
            raise ValidationError(f"process id {pid} outside graph")
        if pid in self._processes:
            raise SimulationError(f"process {pid} registered twice")
        self._processes[pid] = process

    def process(self, pid: ProcessId) -> "SimProcess":
        return self._processes[pid]

    @property
    def processes(self) -> List["SimProcess"]:
        return [self._processes[p] for p in sorted(self._processes)]

    def start(self) -> None:
        """Invoke ``on_start`` on every registered process (once)."""
        if self._started:
            raise SimulationError("network already started")
        if len(self._processes) != self._graph.n:
            raise SimulationError(
                f"{len(self._processes)} processes registered for a graph "
                f"of {self._graph.n}"
            )
        self._started = True
        for pid in sorted(self._processes):
            self._processes[pid].on_start()

    # -- dynamic environments -------------------------------------------------------

    def replace_configuration(self, config: Configuration) -> None:
        """Swap the true failure configuration mid-run.

        Models the dynamic environments of the paper's introduction
        ("the dynamic nature of a large system would render [a-priori
        information] obsolete quickly"): the topology must be unchanged,
        but crash/loss probabilities may shift.  Link-loss and crash
        draws continue from fresh streams under the new probabilities;
        protocol state is untouched — the adaptive protocol is expected
        to *re-converge* to the new configuration (tested in
        tests/test_dynamic.py).
        """
        if config.graph != self._graph:
            raise ValidationError(
                "replace_configuration requires an identical topology"
            )
        self._retire_crash_model()
        self._config = config
        self._rng = self._rng.child("reconfigured")
        self._links = LossyLinkLayer(config, self._rng)
        self._crash_model = self._make_crash_model()

    def set_crash_model(
        self, kind: str, mean_down_ticks: Optional[float] = None
    ) -> None:
        """Switch the crash model mid-run (scenario burst-mode toggles).

        The current configuration's crash vector is kept; only the model
        *kind* (``"none"`` / ``"iid"`` / ``"markov"``) and, optionally, the
        Markov mean down sojourn change.  The rebuilt model draws from a
        fresh child stream, so toggling is deterministic per seed and a
        toggle never replays the replaced model's draws.  Markov crash and
        recovery callbacks stay wired to the registered processes.
        """
        if kind not in ("none", "iid", "markov"):
            # validate BEFORE touching any state: a bad kind must not
            # retire the live model or poison self._options (which every
            # later replace_configuration would rebuild from)
            raise ValidationError(f"unknown crash model {kind!r}")
        self._retire_crash_model()
        options = replace(self._options, crash_model=kind)
        if mean_down_ticks is not None:
            options = replace(options, markov_mean_down_ticks=mean_down_ticks)
        self._options = options
        self._rng = self._rng.child("crash-model", kind)
        self._crash_model = self._make_crash_model()

    # -- transmission -------------------------------------------------------------

    def send(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        payload: Any,
        category: MessageCategory = MessageCategory.DATA,
    ) -> bool:
        """Attempt one message transmission; returns whether it will deliver.

        The attempt is always counted as *sent*.  Loss/crash outcomes are
        drawn immediately (they are per-transmission Bernoulli events);
        successful messages are delivered after the latency delay with
        :data:`~repro.sim.events.DELIVERY_PRIORITY`.
        """
        sim = self._sim
        now = sim.now
        if self._crash_model.crashed_step(sender, now):
            self._stats.record(
                now, sender, receiver, category, False, DropReason.SENDER_CRASH
            )
            return False
        if not self._links.transmit(sender, receiver):
            self._stats.record(
                now, sender, receiver, category, False, DropReason.LINK_LOSS
            )
            return False
        delay = self._latency_base
        if self._latency_jitter != 0.0:
            delay += self._latency_jitter * self._latency_rng.random()
        sim._push(
            now + delay,
            DELIVERY_PRIORITY,
            _Delivery(self, now, sender, receiver, category, payload),
        )
        return True

    def broadcast_to_neighbors(
        self,
        sender: ProcessId,
        payload: Any,
        category: MessageCategory = MessageCategory.DATA,
    ) -> int:
        """Send ``payload`` to every neighbour of ``sender``; returns count."""
        send = self.send
        count = 0
        for q in self._graph.neighbors(sender):
            send(sender, q, payload, category)
            count += 1
        return count
