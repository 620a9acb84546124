"""The knowledge-approximation activity (Algorithm 4) — object form.

Each process ``p_k`` maintains an approximated topology ``Lambda_k`` and
configuration ``C_k`` and reacts to the paper's four events:

* **Event 1** — reception of ``(Lambda_j, C_j)`` from a neighbour
  (lines 18-33): reconcile suspicions with the heartbeat sequence gap,
  update the incoming link's beliefs, merge estimates via
  ``selectBestEstimate`` and merge topology knowledge.
* **Event 2** — staleness sweep (lines 34-39): estimates not refreshed
  within their timeout get their distortion incremented; silent
  *neighbours* are additionally suspected, and both the neighbour and the
  link to it take a failure observation.
* **Event 3** — an uneventful tick increases the process's belief in its
  own reliability (lines 40-41).
* **Event 4** — recovering from a crash of ``n`` ticks decreases it by
  ``n`` (lines 42-43).

Interpretation decisions (documented in DESIGN.md §3): the seq gap counts
the arriving heartbeat itself, so ``missed = gap - 1`` heartbeats were
lost and ``adjust = suspected - missed``; and every *received* heartbeat
records one success observation on the incoming link — otherwise link
beliefs could only ever decrease and would never converge to the true
loss probability (they would all drift to the ``[0.99, 1.0]`` interval,
contradicting Figure 5).

This object implementation is the readable reference; the NumPy
:class:`repro.core.viewtable.VectorView` is behaviourally identical
(differential-tested) and is what large simulations use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.bayesian import DEFAULT_INTERVALS
from repro.core.estimates import UNKNOWN_DISTORTION, Estimate, select_best_estimate
from repro.errors import ProtocolError, UnknownProcessError
from repro.types import Link, ProcessId
from repro.util.validation import check_positive, check_positive_int


def check_process(p: ProcessId, n: int) -> ProcessId:
    """``p``, or UnknownProcessError (a KeyError) unless ``0 <= p < n``."""
    if isinstance(p, bool) or not 0 <= p < n:
        raise UnknownProcessError(f"process {p!r} not in 0..{n - 1}")
    return p


@dataclass(frozen=True)
class KnowledgeParameters:
    """Tunables of the approximation activity.

    Attributes:
        delta: heartbeat period (the paper's ``delta``; also the initial
            per-neighbour suspicion timeout, Algorithm 4 line 7).
        intervals: Bayesian interval count ``U`` (paper: 100).
        tick: the ``delta_tick`` of Events 3/4 (self-reliability ticks).
    """

    delta: float = 1.0
    intervals: int = DEFAULT_INTERVALS
    tick: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.delta, "delta")
        check_positive_int(self.intervals, "intervals")
        check_positive(self.tick, "tick")


@dataclass(frozen=True)
class HeartbeatSnapshot:
    """The ``(Lambda_k, C_k)`` payload a process sends its neighbours.

    Estimates are deep-copied at emission time so receivers observe the
    sender's state at the moment of sending, regardless of what the
    sender does while the message is in flight.
    """

    sender: ProcessId
    sender_seq: int
    proc_estimates: Dict[ProcessId, Estimate]
    link_estimates: Dict[Link, Estimate]

    @property
    def links(self) -> FrozenSet[Link]:
        """``Lambda_j`` — the sender's known topology."""
        return frozenset(self.link_estimates)


class ProcessView:
    """``(Lambda_k, C_k)`` at one process, with the Event 1-4 handlers.

    Args:
        pid: the owning process ``p_k``.
        n: total number of processes (the paper assumes ``Pi`` is known
           from the start; see Section 4.2).
        neighbors: ``p_k``'s direct neighbours.
        params: see :class:`KnowledgeParameters`.
        now: current time, used to initialise ``last_update`` fields.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        neighbors: Iterable[ProcessId],
        params: Optional[KnowledgeParameters] = None,
        now: float = 0.0,
    ) -> None:
        check_positive_int(n, "n")
        if not 0 <= pid < n:
            raise ProtocolError(f"pid {pid} outside 0..{n - 1}")
        self.pid = pid
        self.n = n
        self.params = params or KnowledgeParameters()
        self.neighbors: Tuple[ProcessId, ...] = tuple(sorted(set(neighbors)))
        if pid in self.neighbors:
            raise ProtocolError(f"process {pid} cannot neighbour itself")
        u = self.params.intervals
        # Algorithm 4, lines 2-8: process estimates
        self.proc: Dict[ProcessId, Estimate] = {
            p: Estimate.fresh(u, UNKNOWN_DISTORTION, now) for p in range(n)
        }
        self.proc[pid].distortion = 0.0  # p_k sees itself with no distortion
        self.timeout: Dict[ProcessId, float] = {
            p: self.params.delta for p in range(n)
        }
        # lines 9-12: direct links only, distortion 0
        self.link: Dict[Link, Estimate] = {}
        for q in self.neighbors:
            self.link[Link.of(pid, q)] = Estimate.fresh(u, 0.0, now)

    # -- topology / reliability queries (ReliabilityView interface) ---------------

    @property
    def known_links(self) -> FrozenSet[Link]:
        """``Lambda_k`` — all links this process has heard of."""
        return frozenset(self.link)

    def knows_link(self, link: Link) -> bool:
        return Link.of(*link) in self.link

    def crash_probability(self, p: ProcessId) -> float:
        """Estimated ``P_p`` (posterior mean; 0.5 when entirely unknown)."""
        return self.proc[check_process(p, self.n)].point_estimate()

    def loss_probability(self, link: Link) -> float:
        """Estimated ``L`` of a known link.

        Raises:
            ProtocolError: if the link is not in ``Lambda_k``.
        """
        link = Link.of(*link)
        est = self.link.get(link)
        if est is None:
            raise ProtocolError(f"link {link} not known to process {self.pid}")
        return est.point_estimate()

    def distortion_of(self, p: ProcessId) -> float:
        return self.proc[check_process(p, self.n)].distortion

    def link_distortion(self, link: Link) -> float:
        link = Link.of(*link)
        est = self.link.get(link)
        return UNKNOWN_DISTORTION if est is None else est.distortion

    # -- heartbeat emission (Algorithm 4 lines 14-17) ------------------------------

    def emit_heartbeat(self, now: float) -> HeartbeatSnapshot:
        """Increment the heartbeat sequencer and snapshot ``(Lambda, C)``.

        The caller (the protocol process) sends the returned snapshot to
        every neighbour.
        """
        own = self.proc[self.pid]
        own.seq += 1
        own.last_update = now
        return self.peek_snapshot(now)

    def peek_snapshot(self, now: float) -> HeartbeatSnapshot:
        """Snapshot ``(Lambda, C)`` *without* bumping the sequencer.

        Used for opportunistic piggybacking on application messages
        (Section 4.1): the copy carries current knowledge but is not a
        sequenced heartbeat, so receivers must not count the sequence
        gap arithmetic against the link.
        """
        own = self.proc[self.pid]
        return HeartbeatSnapshot(
            sender=self.pid,
            sender_seq=own.seq,
            proc_estimates={p: est.copy() for p, est in self.proc.items()},
            link_estimates={l: est.copy() for l, est in self.link.items()},
        )

    # -- Event 1 (lines 18-33) ------------------------------------------------------

    def handle_heartbeat(self, snapshot: HeartbeatSnapshot, now: float) -> None:
        """Process a received ``(Lambda_j, C_j)`` from a neighbour."""
        j = snapshot.sender
        if j not in self.neighbors:
            raise ProtocolError(
                f"process {self.pid} received a heartbeat from non-neighbour {j}"
            )
        mine_j = self.proc[j]
        gap = snapshot.sender_seq - mine_j.seq
        missed = max(gap - 1, 0)
        adjust = mine_j.suspected - missed
        mine_j.suspected = 0
        incoming = self.link[Link.of(self.pid, j)]
        # the received heartbeat itself is a success observation on l_kj
        incoming.beliefs.increase_reliability(1)
        if adjust > 0:
            # the link was suspected too much: undo the spurious failures
            incoming.beliefs.increase_reliability(adjust)
            if adjust > 1:
                self.timeout[j] += self.params.delta
        elif adjust < 0:
            # more heartbeats were lost than suspicions recorded
            incoming.beliefs.decrease_reliability(-adjust)
        incoming.last_update = now

        # lines 26-27: adopt the less distorted process estimates.  The
        # sender's self-estimate has distortion 0, so it is always adopted
        # (which also refreshes seq and last_update for the sender).
        for p, theirs in snapshot.proc_estimates.items():
            if p == self.pid:
                continue  # nobody knows p_k better than p_k itself
            select_best_estimate(self.proc[p], theirs, now)

        # lines 28-33: link estimates and topology merge
        for l, theirs in snapshot.link_estimates.items():
            mine = self.link.get(l)
            if mine is not None:
                select_best_estimate(mine, theirs, now)
            else:
                adopted = theirs.copy()
                adopted.distortion += 1.0
                adopted.last_update = now
                self.link[l] = adopted

    # -- Event 2 (lines 34-39) ------------------------------------------------------

    def staleness_sweep(self, now: float) -> List[ProcessId]:
        """Fire Event 2 for every estimate stale past its timeout.

        Returns:
            Neighbours that were (newly) suspected by this sweep.
        """
        suspected: List[ProcessId] = []
        for p, est in self.proc.items():
            if p == self.pid:
                continue
            if now - est.last_update < self.timeout[p]:
                continue
            est.distortion += 1.0  # knowledge gets distorted with time
            est.last_update = now  # the timeout restarts
            if p in self.neighbors:
                est.suspected += 1
                est.beliefs.decrease_reliability(1)
                self.link[Link.of(self.pid, p)].beliefs.decrease_reliability(1)
                suspected.append(p)
        return suspected

    # -- Events 3 and 4 (lines 40-43) -------------------------------------------------

    def record_up_tick(self) -> None:
        """Event 3: one uneventful ``delta_tick`` — trust self a bit more."""
        self.proc[self.pid].beliefs.increase_reliability(1)

    def record_downtime(self, ticks: int) -> None:
        """Event 4: recovered after ``ticks`` crashed ticks."""
        if ticks < 0:
            raise ProtocolError(f"negative downtime {ticks}")
        if ticks:
            self.proc[self.pid].beliefs.decrease_reliability(ticks)

    # -- diagnostics ---------------------------------------------------------------

    def proc_map_interval(self, p: ProcessId) -> int:
        return self.proc[check_process(p, self.n)].beliefs.map_interval()

    def link_map_interval(self, link: Link) -> int:
        link = Link.of(*link)
        est = self.link.get(link)
        if est is None:
            raise ProtocolError(f"link {link} not known to process {self.pid}")
        return est.beliefs.map_interval()

    def summary(self) -> Dict[str, float]:
        known = len(self.link)
        finite = [e.distortion for e in self.proc.values()
                  if not math.isinf(e.distortion)]
        return {
            "pid": float(self.pid),
            "known_links": float(known),
            "known_processes": float(len(finite)),
            "mean_distortion": (sum(finite) / len(finite)) if finite else math.inf,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug sugar
        return (
            f"ProcessView(pid={self.pid}, links={len(self.link)}/"
            f"known, n={self.n})"
        )
