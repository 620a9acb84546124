"""Partial-view broadcast protocols over the peer-sampling layer.

Each variant embeds a :class:`~repro.membership.sampler.PeerSampler` and
fans out over the *sampled view* instead of the full neighbour set:

* ``flooding-pv`` — forward-once flooding over the current view;
* ``gossip-pv`` — the Section 5 baseline with ACK suppression, but each
  step targets the sampled peers;
* ``adaptive-pv`` — the adaptive protocol whose knowledge activity
  (heartbeats) flows through the sampled view, so ``(Lambda_k, C_k)`` is
  learned through the membership overlay rather than assumed over the
  full configuration.

Views only ever contain link-neighbours (see ``repro.membership``), so
every send below respects the link layer's adjacency contract.  The
membership exchange shares the host's message stream but travels as
``MessageCategory.CONTROL`` and is handled before protocol payloads.

All three protocols are registered in ``repro.protocols.registry`` with
flattened frozen params (membership knobs + protocol knobs in one
dataclass), so ``--sweep gossip-pv.view_size=8,16,32`` flows through the
standard param/sweep/cache machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.adaptive import (
    AdaptiveBroadcast,
    AdaptiveParameters,
    HeartbeatMessage,
)
from repro.core.broadcast import MessageId, ReliableBroadcastProcess
from repro.core.knowledge import KnowledgeParameters
from repro.membership.sampler import MembershipParams, PeerSampler, ViewExchange
from repro.protocols.flooding import FloodData
from repro.protocols.gossip import GossipAck, GossipData, _GossipState
from repro.sim.monitors import BroadcastMonitor
from repro.sim.network import Network
from repro.sim.trace import MessageCategory
from repro.types import ProcessId
from repro.util.rng import RandomSource
from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class FloodingPVParams(MembershipParams):
    """Flooding over the sampled view: membership knobs only."""


@dataclass(frozen=True)
class GossipPVParams(MembershipParams):
    """Gossip-over-view tunables: the Section 5 knobs plus membership."""

    rounds: int = 5
    step_period: float = 1.0
    fanout: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive_int(self.rounds, "rounds")
        check_positive(self.step_period, "step_period")
        if self.fanout is not None:
            check_positive_int(self.fanout, "fanout")


@dataclass(frozen=True)
class AdaptivePVParams(MembershipParams):
    """Adaptive-over-view tunables: knowledge knobs plus membership."""

    delta: float = 1.0
    intervals: int = 50
    tick: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self.delta, "delta")
        check_positive_int(self.intervals, "intervals")
        check_positive(self.tick, "tick")

    def to_adaptive_parameters(self) -> AdaptiveParameters:
        return AdaptiveParameters(
            knowledge=KnowledgeParameters(
                delta=self.delta, intervals=self.intervals, tick=self.tick
            )
        )


class _SamplerHost:
    """Mixin plumbing shared by the partial-view hosts.

    Assumes the concrete class is a :class:`~repro.sim.process.SimProcess`
    and has ``self.sampler`` / ``self.membership`` set before ``on_start``.
    """

    sampler: PeerSampler
    membership: MembershipParams

    def start_membership(self) -> None:
        self.set_periodic(  # type: ignore[attr-defined]
            self.membership.exchange_period,
            "membership-exchange",
            self._membership_exchange,
        )

    def _membership_exchange(self) -> None:
        self.sampler.begin_exchange(self._send_membership)

    def _send_membership(self, peer: ProcessId, message: ViewExchange) -> bool:
        return self.send(  # type: ignore[attr-defined]
            peer, message, category=MessageCategory.CONTROL
        )

    def handle_membership(self, sender: ProcessId, payload: Any) -> bool:
        """Route a membership payload into the sampler; False otherwise."""
        if not isinstance(payload, ViewExchange):
            return False
        return self.sampler.handle(sender, payload, self._send_membership)

    @property
    def sampled_peers(self):
        return self.sampler.view_peers()


class FloodingPVBroadcast(_SamplerHost, ReliableBroadcastProcess):
    """Forward-once flooding over the sampled view."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        monitor: BroadcastMonitor,
        k_target: float,
        params: FloodingPVParams,
        *,
        rng: RandomSource,
    ) -> None:
        super().__init__(pid, network, monitor, k_target)
        self.membership = params
        self.sampler = PeerSampler(pid, self.neighbors, params, rng)

    def on_start(self) -> None:
        self.start_membership()

    def broadcast(self, payload: Any) -> MessageId:
        mid = self.next_message_id()
        message = FloodData(mid=mid, payload=payload)
        self.deliver(mid, payload)
        for q in self.sampled_peers:
            self.send(q, message, category=MessageCategory.DATA)
        return mid

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        if self.handle_membership(sender, payload):
            return
        if not isinstance(payload, FloodData):
            return
        if self.has_delivered(payload.mid):
            return
        self.deliver(payload.mid, payload.payload)
        for q in self.sampled_peers:
            if q != sender:
                self.send(q, payload, category=MessageCategory.DATA)


class GossipPVBroadcast(_SamplerHost, ReliableBroadcastProcess):
    """Section 5 gossip with ACK suppression, stepping over the view."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        monitor: BroadcastMonitor,
        k_target: float,
        params: GossipPVParams,
        *,
        rng: RandomSource,
    ) -> None:
        super().__init__(pid, network, monitor, k_target)
        self.params = params
        self.membership = params
        self.sampler = PeerSampler(pid, self.neighbors, params, rng)
        self._states: Dict[MessageId, _GossipState] = {}  # seen/ACK record
        self._active: Dict[MessageId, _GossipState] = {}  # rounds left

    def on_start(self) -> None:
        self.start_membership()
        self.set_periodic(self.params.step_period, "gossip-step", self._step)

    def broadcast(self, payload: Any) -> MessageId:
        mid = self.next_message_id()
        message = GossipData(mid=mid, payload=payload)
        state = _GossipState(message, self.params.rounds)
        self._states[mid] = self._active[mid] = state
        self.deliver(mid, payload)
        self._forward(state)
        return mid

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        if self.handle_membership(sender, payload):
            return
        if isinstance(payload, GossipAck):
            state = self._states.get(payload.mid)
            if state is not None:
                state.excluded.add(sender)
            return
        if not isinstance(payload, GossipData):
            return
        self.send(sender, GossipAck(payload.mid), category=MessageCategory.ACK)
        state = self._states.get(payload.mid)
        if state is None:
            state = _GossipState(payload, self.params.rounds)
            self._states[payload.mid] = self._active[payload.mid] = state
            self.deliver(payload.mid, payload.payload)
        state.excluded.add(sender)

    def _step(self) -> None:
        for state in list(self._active.values()):  # _forward retires states
            self._forward(state)

    def _forward(self, state: _GossipState) -> None:
        state.rounds_left -= 1
        if state.rounds_left <= 0:
            del self._active[state.message.mid]
        targets = [q for q in self.sampled_peers if q not in state.excluded]
        if self.params.fanout is not None and len(targets) > self.params.fanout:
            targets = targets[: self.params.fanout]
        for q in targets:
            self.send(q, state.message, category=MessageCategory.DATA)


class AdaptivePVBroadcast(_SamplerHost, AdaptiveBroadcast):
    """Adaptive broadcast whose knowledge activity rides the sampled view.

    Heartbeats target the sampled peers instead of the full neighbour
    set, so ``(Lambda_k, C_k)`` — and therefore every broadcast plan —
    is learned through the membership overlay.  As the view rotates the
    approximation still converges toward the stable ``(G, C)``, just at
    the pace the peer-sampling policies allow.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        monitor: BroadcastMonitor,
        k_target: float,
        params: AdaptivePVParams,
        *,
        rng: RandomSource,
    ) -> None:
        super().__init__(
            pid, network, monitor, k_target, params.to_adaptive_parameters()
        )
        self.membership = params
        self.sampler = PeerSampler(pid, self.neighbors, params, rng)

    def on_start(self) -> None:
        super().on_start()
        self.start_membership()

    def _heartbeat_round(self) -> None:
        self.view.staleness_sweep(self.now)
        snapshot = self.view.emit_heartbeat(self.now)
        message = HeartbeatMessage(snapshot)
        for q in self.sampled_peers:
            self.send(q, message, category=MessageCategory.HEARTBEAT)
            self._heartbeats_sent += 1

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        if self.handle_membership(sender, payload):
            return
        super().on_message(sender, payload)
