"""The peer-sampling core: a bounded, aging partial view of neighbours.

:class:`PeerSampler` implements the generic gossip-based peer-sampling
scheme (Jelasity et al.) specialised to this repo's system model: the
underlay Λ is explicit, links are the only legal message carriers
(``LossyLinkLayer`` rejects non-links), so a view is a bounded sample of
the holder's *link-neighbourhood* rather than of the whole population.
Exchange partners drawn from the view are therefore always physical
neighbours, and merged-in descriptors are filtered against the holder's
own neighbour set.

The sampler is a plain component: it owns no timers and sends no
messages itself.  A host process (``PeerSamplingService`` or a
partial-view broadcast protocol) drives :meth:`begin_exchange` from a
periodic engine timer and routes incoming :class:`ViewExchange`
payloads into :meth:`handle`, supplying a ``send(peer, message)``
callback.  All random choices come from the injected
:class:`~repro.util.rng.RandomSource`, every iteration order is sorted,
and ages are integers — the evolution of a view is a pure function of
(seed, schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ValidationError
from repro.types import ProcessId
from repro.util.rng import RandomSource
from repro.util.validation import check_positive, check_positive_int

#: Legal values for the ``view_selection`` / ``peer_selection`` policies.
#: ``head`` prefers the *youngest* descriptors, ``tail`` the oldest,
#: ``rand`` draws uniformly from the seeded stream.
SELECTION_POLICIES: Tuple[str, ...] = ("head", "tail", "rand")

#: Legal values for the ``propagation`` policy: who ships its buffer
#: during an exchange (active side, passive side, or both).
PROPAGATION_POLICIES: Tuple[str, ...] = ("push", "pull", "pushpull")

#: A serialised view entry: (process id, age in exchange rounds).
ViewEntry = Tuple[ProcessId, int]

SendFn = Callable[[ProcessId, "ViewExchange"], object]


@dataclass(frozen=True)
class MembershipParams:
    """Typed knobs of the peer-sampling service.

    Partial-view protocol params subclass this dataclass, so the fields
    below sweep through the standard ``--sweep proto.key=...`` machinery.
    """

    view_size: int = 8
    exchange_period: float = 10.0
    max_age: int = 20
    view_selection: str = "head"
    peer_selection: str = "rand"
    propagation: str = "pushpull"

    def __post_init__(self) -> None:
        check_positive_int(self.view_size, "view_size")
        check_positive(self.exchange_period, "exchange_period")
        check_positive_int(self.max_age, "max_age")
        for label in ("view_selection", "peer_selection"):
            value = getattr(self, label)
            if value not in SELECTION_POLICIES:
                raise ValidationError(
                    f"{label} must be one of {', '.join(SELECTION_POLICIES)}; "
                    f"got {value!r}"
                )
        if self.propagation not in PROPAGATION_POLICIES:
            raise ValidationError(
                "propagation must be one of "
                f"{', '.join(PROPAGATION_POLICIES)}; got {self.propagation!r}"
            )

    @property
    def policy_triple(self) -> str:
        """``view:peer:propagation`` — the policy label used in sweeps."""
        return f"{self.view_selection}:{self.peer_selection}:{self.propagation}"


@dataclass(frozen=True)
class ViewExchange:
    """One membership message.

    ``phase`` is one of ``push`` (merge only), ``pushpull`` (merge and
    reply with the local buffer), ``pull-request`` (reply only) or
    ``reply`` (merge only, terminates an exchange).
    """

    phase: str
    entries: Tuple[ViewEntry, ...] = ()


class PeerSampler:
    """Bounded aging partial view over one process's link-neighbourhood."""

    def __init__(
        self,
        pid: ProcessId,
        neighbors: Iterable[ProcessId],
        params: MembershipParams,
        rng: RandomSource,
        *,
        contacts: Optional[Iterable[ProcessId]] = None,
    ) -> None:
        self.pid = pid
        self.params = params
        self._neighbors = frozenset(neighbors)
        if contacts is None:
            # the deterministic bootstrap set: the first view_size
            # neighbours double as the "contact nodes" a joiner re-seeds
            # from after its view has aged out entirely
            self._contacts: Tuple[ProcessId, ...] = tuple(
                sorted(self._neighbors)
            )[: params.view_size]
        else:
            self._contacts = tuple(
                q for q in sorted(set(contacts)) if q in self._neighbors
            )[: params.view_size]
        self._rng = rng
        self._view: Dict[ProcessId, int] = {}
        self.exchanges_started = 0
        self.exchanges_answered = 0
        self.merges = 0
        self.bootstrap()

    # -- inspection ----------------------------------------------------------------

    def view_peers(self) -> Tuple[ProcessId, ...]:
        """The current sampled peers, ascending (stable forward order)."""
        return tuple(sorted(self._view))

    def view_entries(self) -> Tuple[ViewEntry, ...]:
        """The (peer, age) pairs ordered youngest-first, ties by pid."""
        return tuple(sorted(self._view.items(), key=lambda e: (e[1], e[0])))

    def age_of(self, peer: ProcessId) -> Optional[int]:
        return self._view.get(peer)

    def __len__(self) -> int:
        return len(self._view)

    # -- lifecycle -----------------------------------------------------------------

    def bootstrap(self) -> None:
        """(Re-)seed the view from the contact nodes at age zero."""
        self._view = {q: 0 for q in self._contacts}

    def select_peer(self) -> Optional[ProcessId]:
        """Pick an exchange partner from the view per ``peer_selection``."""
        ordered = self.view_entries()
        if not ordered:
            return None
        policy = self.params.peer_selection
        if policy == "head":
            return ordered[0][0]
        if policy == "tail":
            return ordered[-1][0]
        return ordered[self._rng.integer(len(ordered))][0]

    def begin_exchange(self, send: SendFn) -> Optional[ProcessId]:
        """One active exchange round: age, expire, pick a partner, ship.

        Returns the chosen partner (or ``None`` when the process is
        isolated).  An empty view — every descriptor aged past
        ``max_age`` during a long partition — re-bootstraps from the
        contact nodes, which is exactly how a (re)joining process finds
        its way back into the overlay.
        """
        self._age_and_expire()
        peer = self.select_peer()
        if peer is None:
            self.bootstrap()
            peer = self.select_peer()
            if peer is None:
                return None
        self.exchanges_started += 1
        propagation = self.params.propagation
        if propagation == "push":
            send(peer, ViewExchange("push", self._buffer()))
        elif propagation == "pull":
            send(peer, ViewExchange("pull-request"))
        else:
            send(peer, ViewExchange("pushpull", self._buffer()))
        return peer

    def handle(self, sender: ProcessId, message: ViewExchange, send: SendFn) -> bool:
        """Process one membership payload; returns False if not one."""
        if not isinstance(message, ViewExchange):
            return False
        phase = message.phase
        if phase == "push":
            self._merge(message.entries)
        elif phase == "pushpull":
            # snapshot the reply *before* merging so the two sides swap
            # independent buffers instead of echoing each other
            reply = self._buffer()
            self._merge(message.entries)
            send(sender, ViewExchange("reply", reply))
            self.exchanges_answered += 1
        elif phase == "pull-request":
            send(sender, ViewExchange("reply", self._buffer()))
            self.exchanges_answered += 1
        elif phase == "reply":
            self._merge(message.entries)
        else:  # pragma: no cover - corrupted payload
            raise ValidationError(f"unknown exchange phase {phase!r}")
        return True

    # -- internals -----------------------------------------------------------------

    def _buffer(self) -> Tuple[ViewEntry, ...]:
        """What we ship: our own fresh descriptor plus the current view."""
        return ((self.pid, 0),) + self.view_entries()

    def _age_and_expire(self) -> None:
        max_age = self.params.max_age
        aged = {q: age + 1 for q, age in self._view.items() if age + 1 <= max_age}
        self._view = aged

    def _merge(self, entries: Tuple[ViewEntry, ...]) -> None:
        """Fold received descriptors in, then truncate per view_selection.

        Descriptors for the holder itself and for processes outside its
        link-neighbourhood are dropped: a view is a sample of Λ's
        adjacency, and forwarding to a non-neighbour would be rejected
        by the link layer anyway.
        """
        self.merges += 1
        merged = dict(self._view)
        for peer, age in sorted(entries, key=lambda e: (e[1], e[0])):
            if peer == self.pid or peer not in self._neighbors:
                continue
            known = merged.get(peer)
            if known is None or age < known:
                merged[peer] = int(age)
        view_size = self.params.view_size
        if len(merged) > view_size:
            ordered: List[ViewEntry] = sorted(
                merged.items(), key=lambda e: (e[1], e[0])
            )
            policy = self.params.view_selection
            if policy == "head":
                kept = ordered[:view_size]
            elif policy == "tail":
                kept = ordered[-view_size:]
            else:
                kept = self._rng.sample(ordered, view_size)
            merged = dict(sorted(kept, key=lambda e: (e[1], e[0])))
        self._view = merged
