"""View-quality measurement: is the sampled overlay any good?

``ViewQualityMonitor`` is metrics-transparent in the same sense as
``InvariantMonitor``: it is omniscient (reads sampler state directly),
sends no messages and consumes no randomness, so attaching it cannot
perturb a trial's RNG streams or event interleaving — metrics stay
bit-identical with and without it.

Per poll it computes, over all monitored samplers:

* **in-degree distribution** (mean / p99 / max): how many views contain
  each process — the load-balance proxy of the peer-sampling literature;
* **staleness**: the fraction of view entries pointing at *dead* peers —
  burst-crashed (``crash_model.is_down``) or departed (every incident
  link severed at loss 1.0 by a ``ProcessLeave``);
* **clustering proxy**: mean overlap between a view and the views of its
  members — high overlap means the exchange policies are folding the
  overlay in on itself;
* **partition-recovery time**: time from the last ``Heal`` event until
  the union of views again spans the alive processes as one connected
  component.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.membership.sampler import PeerSampler, ViewEntry
from repro.sim.engine import Simulator
from repro.sim.monitors import EPOCH_PROBE_PRIORITY
from repro.sim.network import Network
from repro.types import ProcessId
from repro.util.stats import percentile
from repro.util.validation import check_positive

#: Default sampling period for view-quality polls.
VIEW_QUALITY_POLL = 10.0


class ViewQualityMonitor:
    """Omniscient poll-based quality metrics over a set of samplers."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        samplers: Mapping[ProcessId, PeerSampler],
        *,
        period: float = VIEW_QUALITY_POLL,
        heal_times: Sequence[float] = (),
    ) -> None:
        self._sim = sim
        self._network = network
        self._samplers = dict(samplers)
        self._period = check_positive(period, "period")
        self._heal_times = tuple(sorted(float(t) for t in heal_times))
        self.snapshots: List[Dict[str, float]] = []
        self._recovered_at: Optional[float] = None
        # probe priority: after dynamics events at the same instant, so a
        # poll coinciding with a Heal sees the healed configuration
        sim.schedule(
            period,
            self._poll,
            name="view-quality-poll",
            priority=EPOCH_PROBE_PRIORITY,
        )

    # -- polling -------------------------------------------------------------------

    def _poll(self) -> None:
        now = self._sim.now
        views: Dict[ProcessId, Tuple[ViewEntry, ...]] = {
            pid: sampler.view_entries()
            for pid, sampler in sorted(self._samplers.items())
        }
        indegree = {pid: 0 for pid in views}
        stale = 0
        total = 0
        overlap_sum = 0.0
        overlap_count = 0
        dead = {pid: self._is_dead(pid, now) for pid in views}
        for pid, entries in views.items():
            mine = frozenset(peer for peer, _ in entries)
            for peer, _age in entries:
                total += 1
                if peer in indegree:
                    indegree[peer] += 1
                if dead.get(peer, False):
                    stale += 1
            for peer in sorted(mine):
                theirs = views.get(peer)
                if theirs is None or not mine:
                    continue
                other = frozenset(q for q, _ in theirs)
                overlap_sum += len(mine & other) / len(mine)
                overlap_count += 1
        degrees = sorted(indegree.values())
        count = len(degrees)
        snapshot = {
            "time": now,
            "indegree_mean": (sum(degrees) / count) if count else 0.0,
            "indegree_p99": percentile(degrees, 0.99) if degrees else 0.0,
            "indegree_max": float(degrees[-1]) if degrees else 0.0,
            "staleness": (stale / total) if total else 0.0,
            "clustering": (overlap_sum / overlap_count) if overlap_count else 0.0,
        }
        self.snapshots.append(snapshot)
        if (
            self._recovered_at is None
            and self._heal_times
            and now >= self._heal_times[-1]
            and self._spans_alive(views, dead)
        ):
            self._recovered_at = now
        self._sim.schedule(
            self._period,
            self._poll,
            name="view-quality-poll",
            priority=EPOCH_PROBE_PRIORITY,
        )

    def _is_dead(self, pid: ProcessId, now: float) -> bool:
        """Dead = burst-crashed right now, or departed (links severed)."""
        if self._network.crash_model.is_down(pid, now):
            return True
        config = self._network.config
        links = self._network.graph.incident_links(pid)
        return bool(links) and all(
            config.loss_probability(link) >= 1.0 for link in links
        )

    def _spans_alive(
        self,
        views: Mapping[ProcessId, Tuple[ViewEntry, ...]],
        dead: Mapping[ProcessId, bool],
    ) -> bool:
        """Do the union view edges connect every alive process?"""
        alive = [pid for pid in views if not dead.get(pid, False)]
        if len(alive) <= 1:
            return bool(alive)
        alive_set = set(alive)
        adjacency: Dict[ProcessId, set] = {pid: set() for pid in alive}
        for pid in alive:
            for peer, _age in views[pid]:
                if peer in alive_set:
                    adjacency[pid].add(peer)
                    adjacency[peer].add(pid)
        seen = {alive[0]}
        frontier = [alive[0]]
        while frontier:
            here = frontier.pop()
            for peer in adjacency[here]:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == len(alive)

    # -- results -------------------------------------------------------------------

    @property
    def polls(self) -> int:
        return len(self.snapshots)

    @property
    def partition_recovery_time(self) -> float:
        """Seconds from the last Heal to view re-span; -1.0 when N/A.

        -1.0 covers both "no Heal event in the timeline" and "views never
        re-spanned before the trial ended" — aggregations treat negative
        values as missing, mirroring the reconvergence metric.
        """
        if self._recovered_at is None or not self._heal_times:
            return -1.0
        return self._recovered_at - self._heal_times[-1]

    def summary(self) -> Dict[str, float]:
        """Flat float metrics for the trial result dict."""
        if self.snapshots:
            last = self.snapshots[-1]
            staleness_mean = sum(s["staleness"] for s in self.snapshots) / len(
                self.snapshots
            )
        else:
            last = {
                "indegree_mean": 0.0,
                "indegree_p99": 0.0,
                "indegree_max": 0.0,
                "staleness": 0.0,
                "clustering": 0.0,
            }
            staleness_mean = 0.0
        return {
            "view_indegree_mean": float(last["indegree_mean"]),
            "view_indegree_p99": float(last["indegree_p99"]),
            "view_indegree_max": float(last["indegree_max"]),
            "view_staleness": float(staleness_mean),
            "view_clustering": float(last["clustering"]),
            "view_partition_recovery": float(self.partition_recovery_time),
            "view_polls": float(len(self.snapshots)),
        }
