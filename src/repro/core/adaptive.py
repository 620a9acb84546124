"""The adaptive probabilistic reliable broadcast (Section 4).

Two activities run side by side, exactly as the paper's modular design
prescribes:

1. **Broadcast activity** — Algorithm 1 verbatim, but over the process's
   *approximated* topology ``Lambda_k`` and configuration ``C_k`` instead
   of the true ``(G, C)``.
2. **Knowledge activity** — Algorithm 4: periodic heartbeats carrying
   ``(Lambda_k, C_k)``, staleness sweeps (Event 2), and self-reliability
   ticks (Events 3/4), all feeding the Bayesian estimates.

If the system stays stable long enough, ``(Lambda_k, C_k)`` converges to
``(G, C)`` and the broadcast plans coincide with the optimal algorithm's —
the adaptiveness property of Definition 2 (integration-tested).

Knowledge is modelled as held in stable storage: per-step crashes drop the
messages of the affected step but do not erase ``C_k`` (see DESIGN.md §3
note 2 — wiping all estimates at every crashed step would make convergence
under ``P > 0`` impossible, and the paper's stable storage exists for
precisely this kind of state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.core.broadcast import DataMessage, MessageId, ReliableBroadcastProcess
from repro.core.knowledge import HeartbeatSnapshot, KnowledgeParameters, ProcessView
from repro.core.mrt import maximum_reliability_tree, reachable_processes
from repro.core.optimize import OptimizeResult, optimize
from repro.core.tree import SpanningTree
from repro.core.viewtable import VectorSnapshot, VectorView
from repro.errors import ValidationError
from repro.sim.monitors import BroadcastMonitor
from repro.sim.network import Network
from repro.sim.trace import MessageCategory
from repro.types import ProcessId

ViewType = Union[ProcessView, VectorView]


@dataclass(frozen=True)
class HeartbeatMessage:
    """Wrapper for the ``(Lambda_j, C_j)`` snapshot on the wire.

    One message object goes to every neighbour of the sender; a
    ``VectorSnapshot``'s arrays are read-only for that reason.
    """

    snapshot: Union[HeartbeatSnapshot, VectorSnapshot]


@dataclass(frozen=True)
class PiggybackedData:
    """A data message carrying the sender's knowledge snapshot.

    Section 4.1: *"although nodes keep exchanging information with their
    neighbors, this data can also be opportunistically piggybacked in
    gossip messages, saving communication bandwidth."*  When
    ``AdaptiveParameters.piggyback_knowledge`` is set, every forwarded
    application message doubles as a heartbeat for the receiving
    neighbour (data always travels along tree links, which are direct
    links, so Event 1's neighbour requirement holds).
    """

    data: DataMessage
    snapshot: Union[HeartbeatSnapshot, VectorSnapshot]


@dataclass(frozen=True)
class AdaptiveParameters:
    """Tunables of the adaptive protocol.

    Attributes:
        knowledge: heartbeat period, interval count, tick period.
        view_impl: "vector" (NumPy tables, default — what every
            registry deployment runs) or "object": the literal
            Algorithm 4 :class:`ProcessView`, kept as the differential
            reference ``VectorView`` is tested against
            (``tests/test_viewtable.py``, ``test_adaptive.py``,
            ``test_determinism.py``).  This is the only place it is
            selectable; no protocol params class forwards it.
        recompute_at_receiver: re-run ``optimize`` at every hop as in
            Algorithm 1 line 9 (same result, more CPU).
        piggyback_knowledge: attach the sender's ``(Lambda, C)`` snapshot
            to every forwarded data message (Section 4.1's bandwidth
            optimisation) so application traffic doubles as heartbeats.
    """

    knowledge: KnowledgeParameters = field(default_factory=KnowledgeParameters)
    view_impl: str = "vector"
    recompute_at_receiver: bool = False
    piggyback_knowledge: bool = False

    def __post_init__(self) -> None:
        if self.view_impl not in ("vector", "object"):
            raise ValidationError(
                f"view_impl must be 'vector' or 'object', got {self.view_impl!r}"
            )


class AdaptiveBroadcast(ReliableBroadcastProcess):
    """Adaptive reliable broadcast process (broadcast + knowledge activities).

    Args:
        pid: process id.
        network: simulated network (only its *topology neighbourhood* is
            consulted for wiring; reliability knowledge is learned).
        monitor: delivery monitor.
        k_target: reliability target ``K``.
        params: see :class:`AdaptiveParameters`.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        monitor: BroadcastMonitor,
        k_target: float = 0.99,
        params: Optional[AdaptiveParameters] = None,
    ) -> None:
        super().__init__(pid, network, monitor, k_target)
        self.params = params or AdaptiveParameters()
        kp = self.params.knowledge
        if self.params.view_impl == "vector":
            self.view: ViewType = VectorView(pid, network.graph, kp, now=self.now)
        else:
            self.view = ProcessView(
                pid, network.graph.n, self.neighbors, kp, now=self.now
            )
        self._heartbeats_sent = 0

    # -- lifecycle -----------------------------------------------------------------

    def on_start(self) -> None:
        kp = self.params.knowledge
        self.set_periodic(kp.delta, "heartbeat", self._heartbeat_round)
        self.set_periodic(kp.tick, "self-tick", self._self_tick)

    # -- knowledge activity ----------------------------------------------------------

    def _heartbeat_round(self) -> None:
        """One ``delta``: Event 2 sweep, then lines 14-17 (emit heartbeats)."""
        self.view.staleness_sweep(self.now)
        snapshot = self.view.emit_heartbeat(self.now)
        message = HeartbeatMessage(snapshot)
        for q in self.neighbors:
            self.send(q, message, category=MessageCategory.HEARTBEAT)
            self._heartbeats_sent += 1

    def _self_tick(self) -> None:
        """Events 3/4 under the step-crash model.

        Each ``delta_tick`` the process checks whether the tick-step was a
        crashed step: an up tick increases its self-reliability belief, a
        crashed one decreases it (the paper's clock-in-stable-storage
        mechanism: a missed interval is a recorded crash).  Burst (Markov)
        crashes are instead accounted on recovery via :meth:`on_recovery`.
        """
        model = self.network.crash_model
        crashed = model.crashed_step(self.pid, self.now)
        if crashed:
            if not model.is_down(self.pid, self.now):
                self.view.record_downtime(1)
            # burst models account the whole outage in on_recovery
        else:
            self.view.record_up_tick()

    def on_recovery(self, down_ticks: int) -> None:
        """Event 4 for burst crashes: ``n`` missed ticks at once."""
        self.view.record_downtime(down_ticks)

    @property
    def heartbeats_sent(self) -> int:
        return self._heartbeats_sent

    # -- broadcast activity ------------------------------------------------------------

    def build_plan(self) -> OptimizeResult:
        """``(mrt_k, ~m)`` from the *current approximation* ``(Lambda_k, C_k)``."""
        tree = self.plan_tree()
        return optimize(tree, self.k_target, self.view)

    def plan_tree(self) -> SpanningTree:
        """The MRT over the currently known topology.

        Spans only the processes reachable through ``Lambda_k`` — early in
        an execution the approximation may cover a fragment of the system;
        as knowledge converges the tree spans everything.
        """
        known = self.view.known_links
        subgraph = self.network.graph.subgraph_links(known)
        reachable = reachable_processes(self.network.graph, known, self.pid)
        return maximum_reliability_tree(
            subgraph, self.view, root=self.pid, restrict_to=reachable
        )

    def plan_signature(self) -> tuple:
        """Hashable fingerprint of the current plan (tree links + counts).

        Re-convergence instrumentation for dynamic-environment scenarios:
        the plan changes while the environment is disturbed (the tree
        shrinks to the reachable fragment, copy counts inflate) and
        settles back once ``(Lambda_k, C_k)`` re-tracks ``(G, C)`` —
        comparing signatures across checkpoints detects both phases
        without holding protocol internals.
        """
        tree = self.plan_tree()
        counts = optimize(tree, self.k_target, self.view).counts
        return (
            tuple(sorted(tuple(link) for link in tree.links())),
            tuple(sorted(counts.items())),
        )

    def broadcast(self, payload: Any) -> MessageId:
        """Algorithm 1 over the approximated knowledge."""
        tree = self.plan_tree()
        result = optimize(tree, self.k_target, self.view)
        mid = self.next_message_id()
        message = DataMessage(
            mid=mid,
            payload=payload,
            tree=tree,
            counts=result.counts,
            k_target=self.k_target,
        )
        self._propagate(message)
        self.deliver(mid, payload)
        return mid

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, HeartbeatMessage):
            self.view.handle_heartbeat(payload.snapshot, self.now)
            return
        if isinstance(payload, PiggybackedData):
            # the snapshot rides along application traffic (Section 4.1);
            # data travels tree links, so the sender is a direct neighbour
            self.view.handle_heartbeat(payload.snapshot, self.now)
            payload = payload.data
        if isinstance(payload, DataMessage):
            if self.has_delivered(payload.mid):
                return
            self._propagate(payload)
            self.deliver(payload.mid, payload.payload)

    def _propagate(self, message: DataMessage) -> None:
        """Forward down the received tree from this process's position."""
        tree = message.tree
        if not tree.contains(self.pid):
            return
        counts = (
            optimize(tree, message.k_target, self.view).counts
            if self.params.recompute_at_receiver
            else message.counts
        )
        outgoing: Any = message
        if self.params.piggyback_knowledge:
            # unsequenced snapshot: a piggybacked copy is not a heartbeat,
            # bumping the sequencer here would make neighbours that only
            # see the periodic heartbeats count phantom losses
            outgoing = PiggybackedData(
                data=message, snapshot=self.view.peek_snapshot(self.now)
            )
        for child in tree.children(self.pid):
            self.send_copies(
                child, outgoing, counts.get(child, 1), category=MessageCategory.DATA
            )
