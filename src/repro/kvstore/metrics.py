"""What does the user see?  KV-level quality metrics.

``KVMetricsMonitor`` is metrics-transparent in the same sense as
``ViewQualityMonitor`` and ``InvariantMonitor``: omniscient (replicas
report puts/applies/reads to it synchronously and it reads buffer sizes
directly), message-free and RNG-free, so attaching it cannot perturb a
trial's seed streams or metric values.

Per trial it measures:

* **read staleness** — for each read of key ``k`` at replica ``i`` at
  time ``t``: the writes to ``k`` issued anywhere at or before ``t``
  that ``i`` has not applied yet.  Reported in *versions* (how many
  writes the reader missed) and *seconds* (``t`` minus the issue time of
  the oldest missed write; 0 for a fresh read);
* **write visibility latency** — per (write, remote replica) pair, the
  time from the put to the apply; summarised as nearest-rank p50/p99;
* **causal-buffer occupancy** — polled every ``period`` at
  ``EPOCH_PROBE_PRIORITY``: mean (over polls) of the per-replica mean
  buffer size, and the worst per-replica maximum;
* **convergence time** — seconds from the last dynamics event until the
  first poll at which every replica holds the same winning write per key
  *and* every causal buffer is empty; ``-1.0`` when the trial has no
  timeline or never converges (aggregations treat negatives as missing,
  like the reconvergence metric).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.engine import Simulator
from repro.sim.monitors import EPOCH_PROBE_PRIORITY
from repro.types import ProcessId
from repro.util.stats import percentile
from repro.util.validation import check_positive

__all__ = ["KV_METRICS_POLL", "KVMetricsMonitor"]

#: Default sampling period for buffer-occupancy / convergence polls.
KV_METRICS_POLL = 10.0


class KVMetricsMonitor:
    """Omniscient staleness / visibility / convergence metrics."""

    def __init__(
        self,
        sim: Simulator,
        *,
        period: float = KV_METRICS_POLL,
        event_times: Sequence[float] = (),
    ) -> None:
        self._sim = sim
        self._period = check_positive(period, "period")
        events = sorted(float(t) for t in event_times)
        self._last_event: Optional[float] = events[-1] if events else None
        self._replicas: Dict[ProcessId, object] = {}
        # global write history: id -> put time, and per-key issue log
        self._put_time: Dict[Tuple[ProcessId, int], float] = {}
        self._writes_by_key: Dict[str, List[Tuple[float, Tuple[ProcessId, int]]]] = {}
        self._applied: Dict[ProcessId, Set[Tuple[ProcessId, int]]] = {}
        self._visibility: List[float] = []
        self._reads = 0
        self._stale_reads = 0
        self._staleness_versions = 0.0
        self._staleness_seconds = 0.0
        self._buffer_means: List[float] = []
        self._buffer_max = 0.0
        self._converged_at: Optional[float] = None
        self._polls = 0
        # probe priority: after dynamics events at the same instant, so a
        # poll coinciding with a Heal sees the healed configuration
        sim.schedule(
            period,
            self._poll,
            name="kv-metrics-poll",
            priority=EPOCH_PROBE_PRIORITY,
        )

    # -- registration ------------------------------------------------------------

    def register(self, replica) -> None:
        """Track one replica (called from ``KVReplica.__init__``)."""
        self._replicas[replica.pid] = replica
        self._applied.setdefault(replica.pid, set())

    # -- synchronous notifications (from the replicas) ---------------------------

    def on_put(self, write, now: float) -> None:
        write_id = write.write_id
        self._put_time[write_id] = now
        self._writes_by_key.setdefault(write.key, []).append((now, write_id))

    def on_apply(self, pid: ProcessId, write, now: float) -> None:
        write_id = write.write_id
        self._applied.setdefault(pid, set()).add(write_id)
        if pid != write.writer:
            issued = self._put_time.get(write_id)
            if issued is not None:
                self._visibility.append(now - issued)

    def on_read(self, pid: ProcessId, key: str, now: float) -> None:
        self._reads += 1
        applied = self._applied.get(pid, ())
        missed = [
            at
            for at, write_id in self._writes_by_key.get(key, ())
            if write_id not in applied
        ]
        if missed:
            self._stale_reads += 1
            self._staleness_versions += len(missed)
            self._staleness_seconds += now - min(missed)

    # -- polling -----------------------------------------------------------------

    def _poll(self) -> None:
        now = self._sim.now
        self._polls += 1
        if self._replicas:
            sizes = [
                float(replica.buffered())
                for _, replica in sorted(self._replicas.items())
            ]
            self._buffer_means.append(sum(sizes) / len(sizes))
            self._buffer_max = max(self._buffer_max, max(sizes))
        if (
            self._converged_at is None
            and self._last_event is not None
            and now >= self._last_event
            and self._converged()
        ):
            self._converged_at = now
        self._sim.schedule(
            self._period,
            self._poll,
            name="kv-metrics-poll",
            priority=EPOCH_PROBE_PRIORITY,
        )

    def _converged(self) -> bool:
        """All buffers empty and all replicas agree per key."""
        digests = set()
        for _, replica in sorted(self._replicas.items()):
            if replica.buffered():
                return False
            digests.add(replica.state_digest())
        return len(digests) <= 1

    # -- results -----------------------------------------------------------------

    @property
    def polls(self) -> int:
        return self._polls

    @property
    def convergence_time(self) -> float:
        """Seconds from the last dynamics event to agreement; -1.0 if N/A."""
        if self._converged_at is None or self._last_event is None:
            return -1.0
        return self._converged_at - self._last_event

    def summary(self) -> Dict[str, float]:
        """Flat float metrics for the trial result dict."""
        reads = self._reads
        visibility = sorted(self._visibility)
        return {
            "kv_reads": float(reads),
            "kv_writes": float(len(self._put_time)),
            "kv_stale_reads": (self._stale_reads / reads) if reads else 0.0,
            "kv_staleness_versions": (
                self._staleness_versions / reads if reads else 0.0
            ),
            "kv_staleness_seconds": (
                self._staleness_seconds / reads if reads else 0.0
            ),
            "kv_visibility_p50": percentile(visibility, 0.50) if visibility else -1.0,
            "kv_visibility_p99": percentile(visibility, 0.99) if visibility else -1.0,
            "kv_visibility_samples": float(len(visibility)),
            "kv_buffer_mean": (
                sum(self._buffer_means) / len(self._buffer_means)
                if self._buffer_means
                else 0.0
            ),
            "kv_buffer_max": self._buffer_max,
            "kv_convergence_time": self.convergence_time,
            "kv_polls": float(self._polls),
        }
