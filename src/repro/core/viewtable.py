"""Vectorised knowledge tables — the view the adaptive protocol runs.

Algorithm 4's per-heartbeat work touches every process estimate and every
known link estimate; at the paper's scale (100 processes, up to 1000
links, U = 100 intervals) an object per estimate spends its time in
Python attribute access.  :class:`VectorView` keeps the whole ``C_k`` as
one fused NumPy table and performs the ``selectBestEstimate`` merge as a
single comparison followed by index-based row copies.

Behavioural equivalence with the literal object form of Algorithm 4,
kept with the tests as the reference model, is enforced by differential
tests driving both through identical event sequences.

Implementation note: process and link estimates share one table of
``n + m`` rows — rows ``[0, n)`` are processes, row ``n + i`` is the link
with *global* id ``i`` in the true topology — as one ``(n+m, U+3)``
float64 record per row, ``rec = logb[0..U) | d | seq | last`` (``seq`` is
exact below ``2**53``).  ``logb``, ``d``, ``seq`` and ``last`` are column
views of ``rec`` and ``proc_*`` / ``link_*`` row slices of those, so
writes through any name reach the same memory; ``known`` is its own bool
vector.  The dense link rows are a simulation shortcut only — ``known``
gates every read, so a process can never observe an estimate for a link
it has not heard about; the paper's incremental ``Lambda_k`` discovery
semantics are preserved exactly.

The merge relies on this invariant, which every event preserves::

    link_known[i]  <=>  isfinite(link_d[i]);   proc_d >= 0;   proc_d[pid] == 0

With it, ``snapshot.d < self.d`` alone is ``selectBestEstimate`` for all
three cases of Algorithm 4: a link unknown to the sender carries ``inf``
and never wins, a link unknown only to the receiver loses to any finite
distortion (adopted wholesale, ``d + 1``), and nothing is below the
receiver's own ``0``, so its self-estimate is never overwritten.  A
snapshot's record copy already holds ``d + 1``, the distortion every
receiver adopts, so the adoption is one gather and one scatter.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.bayesian import interval_midpoints
from repro.core.knowledge import KnowledgeParameters, check_process
from repro.errors import ProtocolError
from repro.topology.graph import Graph
from repro.types import Link, ProcessId
from repro.util.validation import check_non_negative_int

#: Columns of a record after its ``U`` log-beliefs (module note).
_D, _SEQ, _LAST = -3, -2, -1


class VectorSnapshot:
    """Array-backed heartbeat payload (the ``(Lambda_j, C_j)`` message).

    Read-only copies of the sender's table: ``rec`` with ``d + 1`` in its
    ``d`` column (what a receiver adopts), and ``d``, the sender's own
    (``inf`` for an unknown link).  ``logb`` and ``seq`` are views of
    ``rec``.  One snapshot object goes to every neighbour of the sender.
    """

    __slots__ = ("sender", "sender_seq", "rec", "d")

    def __init__(
        self, sender: ProcessId, sender_seq: int, rec: np.ndarray, d: np.ndarray
    ) -> None:
        self.sender = sender
        self.sender_seq = sender_seq
        self.rec = rec
        self.d = d

    logb = property(lambda self: self.rec[:, :_D])
    seq = property(lambda self: self.rec[:, _SEQ])


class VectorView:
    """``(Lambda_k, C_k)`` as NumPy tables, with the Event 1-4 handlers.

    Args:
        pid: owning process.
        graph: the *true* topology — used only to size the link table and
            map links to dense ids (see the module note); knowledge still
            starts with direct links only.
        params: see :class:`~repro.core.knowledge.KnowledgeParameters`.
        now: initial timestamp for ``last_update`` fields.
    """

    def __init__(
        self,
        pid: ProcessId,
        graph: Graph,
        params: Optional[KnowledgeParameters] = None,
        now: float = 0.0,
    ) -> None:
        if not 0 <= pid < graph.n:
            raise ProtocolError(f"pid {pid} outside graph")
        self.pid = pid
        self.graph = graph
        self.n = graph.n
        self.params = params or KnowledgeParameters()
        self.neighbors: Tuple[ProcessId, ...] = graph.neighbors(pid)
        u = self.params.intervals
        n = graph.n
        rows = n + graph.link_count
        self._midpoints = interval_midpoints(u)
        self._log_mid = np.log(self._midpoints)
        self._log_one_minus_mid = np.log1p(-self._midpoints)

        # the record table: rows [0, n) are processes, rows [n, n+m) links.
        # Beliefs are stored as unnormalised log-posteriors (see
        # repro.core.bayesian.BeliefEstimator for why log space)
        self.rec = np.zeros((rows, u + 3))
        self.rec[:, _D], self.rec[:, _LAST] = math.inf, now
        self.logb, self.d = self.rec[:, :_D], self.rec[:, _D]
        self.seq, self.last = self.rec[:, _SEQ], self.rec[:, _LAST]
        self.known = np.ones(rows, dtype=bool)
        self.known[n:] = False

        # per-kind names are views onto the fused table: writes go through
        self.proc_logb, self.link_logb = self.logb[:n], self.logb[n:]
        self.proc_d, self.link_d = self.d[:n], self.d[n:]
        self.proc_last, self.link_last = self.last[:n], self.last[n:]
        self.proc_seq = self.seq[:n]
        self.link_known = self.known[n:]

        self.proc_d[pid] = 0.0
        self.proc_suspected = np.zeros(n, dtype=np.int64)
        self.timeout = np.full(n, self.params.delta)
        #: neighbour -> fused row of the direct link to it
        self._incident_rows: Dict[ProcessId, int] = {}
        for q in self.neighbors:
            row = n + graph.link_id(Link.of(pid, q))
            self.known[row] = True
            self.d[row] = 0.0
            self._incident_rows[q] = row

    # -- belief row updates (log-space Bayes, underflow-immune) ----------------------

    def _observe(self, row: int, log_likelihood: np.ndarray, factor: int) -> None:
        """``factor`` identical observations on fused row ``row``.

        ``log_likelihood`` is ``_log_mid`` for failures (crash / loss) and
        ``_log_one_minus_mid`` for successes.
        """
        b = self.logb[row]
        b += log_likelihood if factor == 1 else factor * log_likelihood
        b -= b[b.argmax()]  # b.max(): the first maximum (or NaN), 3x cheaper

    @staticmethod
    def _softmax_rows(logb: np.ndarray) -> np.ndarray:
        shifted = np.exp(logb - logb.max(axis=1, keepdims=True))
        return shifted / shifted.sum(axis=1, keepdims=True)

    # -- ReliabilityView interface ---------------------------------------------------

    @property
    def known_links(self) -> FrozenSet[Link]:
        """``Lambda_k`` as a frozen set of links."""
        return frozenset(
            self.graph.links[i] for i in np.flatnonzero(self.link_known)
        )

    def _link_index(self, link: Link, strict: bool = False) -> Optional[int]:
        """Dense id of ``link`` if it is in ``Lambda_k`` (a link outside the
        graph is unknown); else None, or ProtocolError if ``strict``."""
        link = Link.of(*link)
        i = self.graph.link_id(link) if self.graph.has_link(*link) else None
        if i is not None and self.link_known[i]:
            return i
        if strict:
            raise ProtocolError(f"link {link} not known to process {self.pid}")
        return None

    def knows_link(self, link: Link) -> bool:
        return self._link_index(link) is not None

    def _row_point(self, logb_row: np.ndarray) -> float:
        shifted = np.exp(logb_row - logb_row.max())
        return float((shifted / shifted.sum()) @ self._midpoints)

    def crash_probability(self, p: ProcessId) -> float:
        return self._row_point(self.proc_logb[check_process(p, self.n)])

    def loss_probability(self, link: Link) -> float:
        return self._row_point(self.link_logb[self._link_index(link, True)])

    def distortion_of(self, p: ProcessId) -> float:
        return float(self.proc_d[check_process(p, self.n)])

    def link_distortion(self, link: Link) -> float:
        i = self._link_index(link)
        return math.inf if i is None else float(self.link_d[i])

    # -- heartbeat emission -----------------------------------------------------------

    def emit_heartbeat(self, now: float) -> VectorSnapshot:
        """Lines 14-17: bump own seq and snapshot the tables."""
        self.seq[self.pid] += 1
        self.last[self.pid] = now
        return self.peek_snapshot(now)

    def peek_snapshot(self, now: float) -> VectorSnapshot:
        """Snapshot without bumping the sequencer (piggybacking, §4.1).

        The arrays are copies (later updates of this view never reach a
        snapshot in flight) and read-only (the one object goes to every
        neighbour, so no receiver may write into it).
        """
        rec, d = self.rec.copy(), self.d.copy()
        rec[:, _D] += 1.0  # the distortion a receiver adopts (module note)
        rec.flags.writeable = d.flags.writeable = False
        return VectorSnapshot(self.pid, int(self.seq[self.pid]), rec, d)

    # -- Event 1 ---------------------------------------------------------------------

    def handle_heartbeat(self, snapshot: VectorSnapshot, now: float) -> None:
        j = snapshot.sender
        lrow = self._incident_rows.get(j)
        if lrow is None:
            raise ProtocolError(
                f"process {self.pid} received a heartbeat from non-neighbour {j}"
            )
        gap = snapshot.sender_seq - int(self.seq[j])
        missed = max(gap - 1, 0)
        adjust = int(self.proc_suspected[j]) - missed
        self.proc_suspected[j] = 0
        success = self._log_one_minus_mid
        self._observe(lrow, success, 1)  # the heartbeat itself arrived
        if adjust > 0:
            self._observe(lrow, success, adjust)
            if adjust > 1:
                self.timeout[j] += self.params.delta
        elif adjust < 0:
            self._observe(lrow, self._log_mid, -adjust)
        self.last[lrow] = now

        # selectBestEstimate over processes, common links and newly learned
        # links at once: strictly smaller distortion wins (module note)
        rows = (snapshot.d < self.d).nonzero()[0]
        if rows.size:
            self.rec[rows] = snapshot.rec.take(rows, 0)  # cheaper than [rows]
            self.last[rows] = now
            self.known[rows] = True

    # -- Event 2 ---------------------------------------------------------------------

    def staleness_sweep(self, now: float) -> List[ProcessId]:
        stale = (now - self.proc_last) >= self.timeout
        stale[self.pid] = False
        suspected: List[ProcessId] = []
        if stale.any():
            self.proc_d[stale] += 1.0
            self.proc_last[stale] = now
            for q in self.neighbors:
                if stale[q]:
                    self.proc_suspected[q] += 1
                    self._observe(q, self._log_mid, 1)
                    self._observe(self._incident_rows[q], self._log_mid, 1)
                    suspected.append(q)
        return suspected

    # -- Events 3/4 ------------------------------------------------------------------

    def record_up_tick(self) -> None:
        self._observe(self.pid, self._log_one_minus_mid, 1)

    def record_downtime(self, ticks: int) -> None:
        if ticks < 0:
            raise ProtocolError(f"negative downtime {ticks}")
        if ticks:
            self._observe(
                self.pid, self._log_mid, check_non_negative_int(ticks, "factor")
            )

    # -- diagnostics -----------------------------------------------------------------

    def proc_map_interval(self, p: ProcessId) -> int:
        return int(np.argmax(self.proc_logb[check_process(p, self.n)]))

    def link_map_interval(self, link: Link) -> int:
        return int(np.argmax(self.link_logb[self._link_index(link, True)]))

    def proc_point_estimates(self) -> np.ndarray:
        """Posterior-mean crash probability of every process (vector)."""
        return self._softmax_rows(self.proc_logb) @ self._midpoints

    def link_point_estimates(self) -> np.ndarray:
        """Posterior-mean loss of every *known* link (NaN where unknown)."""
        out = self._softmax_rows(self.link_logb) @ self._midpoints
        out[~self.link_known] = np.nan
        return out

    def proc_map_intervals(self) -> np.ndarray:
        """MAP interval index per process (vector form for convergence checks)."""
        return np.argmax(self.proc_logb, axis=1)

    def link_map_intervals(self) -> np.ndarray:
        """MAP interval per link; -1 where unknown."""
        out = np.argmax(self.link_logb, axis=1).astype(np.int64)
        out[~self.link_known] = -1
        return out

    def all_links_known(self) -> bool:
        return bool(self.link_known.all())

    def __repr__(self) -> str:  # pragma: no cover - debug sugar
        return (
            f"VectorView(pid={self.pid}, known_links="
            f"{int(self.link_known.sum())}/{self.graph.link_count})"
        )
