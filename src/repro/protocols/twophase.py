"""Two-phase gossip: unreliable dissemination + anti-entropy repair.

The related-work protocol of [2] (Bimodal Multicast) proceeds in two
phases: an unreliable best-effort flood, then periodic anti-entropy
rounds in which processes exchange message-id digests with a random
neighbour and request anything they are missing.  Implemented here as an
extended baseline: it eventually delivers everywhere like the adaptive
algorithm, but pays digest traffic instead of exploiting link
reliability knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional

from repro.core.broadcast import MessageId, ReliableBroadcastProcess
from repro.sim.monitors import BroadcastMonitor
from repro.sim.network import Network
from repro.sim.trace import MessageCategory
from repro.types import ProcessId
from repro.util.rng import RandomSource
from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class TpData:
    """Phase-one (flood) or repair payload."""

    mid: MessageId
    payload: Any


@dataclass(frozen=True)
class TpDigest:
    """Anti-entropy digest: the sender's known message ids."""

    known: FrozenSet[MessageId]


@dataclass(frozen=True)
class TpRequest:
    """Retransmission request for specific message ids."""

    wanted: FrozenSet[MessageId]


@dataclass(frozen=True)
class TwoPhaseParameters:
    """Anti-entropy tunables.

    Attributes:
        gossip_period: interval between digest exchanges.
        rounds: number of anti-entropy rounds to run per process.  An
            explicit parameter: scenario runs *default* it to
            ``max(1, int(duration / gossip_period))`` (one repair
            opportunity per period for the whole run) via the spec's
            ``scenario_defaults`` hook — override with
            ``--sweep two-phase.rounds=...`` or a params override.
    """

    gossip_period: float = 1.0
    rounds: int = 10

    def __post_init__(self) -> None:
        check_positive(self.gossip_period, "gossip_period")
        check_positive_int(self.rounds, "rounds")


class TwoPhaseBroadcast(ReliableBroadcastProcess):
    """Bimodal-style two-phase reliable broadcast."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        monitor: BroadcastMonitor,
        k_target: float = 0.99,
        params: Optional[TwoPhaseParameters] = None,
        rng: Optional[RandomSource] = None,
    ) -> None:
        super().__init__(pid, network, monitor, k_target)
        self.params = params or TwoPhaseParameters()
        self._rng = (rng or RandomSource("twophase", pid)).child("peer")
        self._messages: Dict[MessageId, Any] = {}
        self._rounds_done = 0

    def on_start(self) -> None:
        self.set_periodic(
            self.params.gossip_period, "anti-entropy", self._anti_entropy
        )

    # -- phase one: best-effort flood ---------------------------------------------

    def broadcast(self, payload: Any) -> MessageId:
        mid = self.next_message_id()
        self._store_and_deliver(mid, payload)
        for q in self.neighbors:
            self.send(q, TpData(mid, payload), category=MessageCategory.DATA)
        return mid

    def _store_and_deliver(self, mid: MessageId, payload: Any) -> None:
        if mid not in self._messages:
            self._messages[mid] = payload
            self.deliver(mid, payload)

    # -- phase two: anti-entropy ----------------------------------------------------

    def _anti_entropy(self) -> None:
        if self._rounds_done >= self.params.rounds or not self.neighbors:
            return
        self._rounds_done += 1
        peer = self._rng.choice(self.neighbors)
        digest = TpDigest(known=frozenset(self._messages))
        self.send(peer, digest, category=MessageCategory.CONTROL)

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, TpData):
            first = payload.mid not in self._messages
            self._store_and_deliver(payload.mid, payload.payload)
            if first:
                for q in self.neighbors:
                    if q != sender:
                        self.send(q, payload, category=MessageCategory.DATA)
            return
        if isinstance(payload, TpDigest):
            # most digests match the store: the C-level subset tests skip
            # both Python walks then, and the walks keep their order
            known = payload.known
            if not known <= self._messages.keys():
                missing = frozenset(mid for mid in known if mid not in self._messages)
                self.send(
                    sender, TpRequest(wanted=missing), category=MessageCategory.CONTROL
                )
            # symmetric push: send anything the peer is missing
            if not self._messages.keys() <= known:
                surplus = [mid for mid in self._messages if mid not in known]
                for mid in surplus:
                    self.send(
                        sender, TpData(mid, self._messages[mid]),
                        category=MessageCategory.DATA,
                    )
            return
        if isinstance(payload, TpRequest):
            for mid in payload.wanted:
                if mid in self._messages:
                    self.send(
                        sender, TpData(mid, self._messages[mid]),
                        category=MessageCategory.DATA,
                    )
