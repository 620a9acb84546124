"""A causally consistent KV replica riding on any broadcast protocol.

:class:`KVReplica` attaches to one deployed
:class:`~repro.core.broadcast.ReliableBroadcastProcess` node and turns
it into a replicated key-value store:

* **writes** advance the replica's vector clock, apply locally, and
  replicate as a :class:`KVWrite` through the host protocol's
  ``broadcast`` — so replication inherits whatever delivery guarantees
  (and costs) the protocol under study provides;
* **reads** are local — clients see their replica's current state;
* **causal delivery**: an incoming write from replica ``j`` stamped
  ``W`` applies at a replica with clock ``V`` only when
  ``W[j] == V[j] + 1`` and ``W[k] <= V[k]`` for every ``k != j`` (the
  classic causal-broadcast condition).  Out-of-order writes wait in a
  hold-back buffer that flushes *transitively*.  A held-back write is
  either *deliverable* (in a heap, applied smallest id first) or
  *parked* under one clock entry ``(pid, count)`` the local clock has
  not reached.  An applied write moves exactly one local entry by
  exactly one, so applying ``(j, c)`` wakes only the writes parked on
  ``(j, c)`` — the buffer is never scanned;
* **convergence**: concurrent writes to one key resolve last-writer-wins
  over the deterministic total order ``(clock.total(), writer)``, which
  extends happens-before — replicas that applied the same write set hold
  the same store, regardless of arrival order.

Replica state lives in plain attributes, i.e. stable storage in this
simulation's crash model: burst crashes silence a process (its host
protocol neither sends nor receives) but do not wipe the store or the
clock, matching the paper's crash-recovery regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.kvstore.clocks import VectorClock
from repro.types import ProcessId

__all__ = ["CausalOrderError", "KVReplica", "KVWrite", "WriteId"]

#: Identity of one write: ``(writer, writer's clock counter)``.
WriteId = Tuple[ProcessId, int]


class CausalOrderError(ReproError, RuntimeError):
    """A replica was about to apply a write before its dependencies."""


@dataclass(frozen=True)
class KVWrite:
    """One replicated write: key, value and its vector-clock stamp."""

    key: str
    value: object
    writer: ProcessId
    clock: VectorClock

    @property
    def write_id(self) -> WriteId:
        return (self.writer, self.clock.counter(self.writer))

    @property
    def order_key(self) -> Tuple[int, ProcessId]:
        """LWW total order: clock total first, writer id as tie-break.

        ``total()`` is strictly monotone along happens-before, so a
        causally-later write always out-orders its predecessors; distinct
        concurrent writes can only tie on total, and then the writer id
        decides — the same way everywhere, hence convergence.
        """
        return (self.clock.total(), self.writer)


class KVReplica:
    """One process's replica: local store + clock + causal buffer.

    Args:
        node: the deployed broadcast-protocol node to ride on.  The
            replica installs itself as the node's ``on_deliver`` hook
            (per-instance assignment — the documented extension point of
            :class:`~repro.core.broadcast.ReliableBroadcastProcess`).
        monitor: optional :class:`~repro.kvstore.metrics.KVMetricsMonitor`;
            the replica reports puts/applies/reads to it synchronously.
    """

    def __init__(self, node, monitor=None) -> None:
        self._node = node
        self.pid: ProcessId = node.pid
        self.clock = VectorClock()
        self._store: Dict[str, KVWrite] = {}
        # every held-back write, indexed by exactly one of the two below
        self._buffer: Dict[WriteId, KVWrite] = {}
        self._parked: Dict[WriteId, List[KVWrite]] = {}
        self._deliverable: List[WriteId] = []  # heap
        node.on_deliver = self._on_deliver
        self._monitor = monitor
        if monitor is not None:
            monitor.register(self)

    # -- client surface ----------------------------------------------------------

    def put(self, key: str, value: object):
        """Write locally and replicate; returns the broadcast message id.

        The local apply commits only after the host protocol accepted the
        broadcast: a planning protocol that refuses (``UnreachableTargetError``)
        leaves the replica untouched, so a refused write never opens a
        causal gap that would block every later write from this replica.
        """
        stamped = self.clock.advance(self.pid)
        write = KVWrite(str(key), value, self.pid, stamped)
        mid = self._node.broadcast(write)
        if self._monitor is not None:
            self._monitor.on_put(write, self._node.now)
        self._apply(write)
        return mid

    def get(self, key: str) -> object:
        """Local read: the replica's current value (None when unwritten)."""
        entry = self._store.get(str(key))
        if self._monitor is not None:
            self._monitor.on_read(self.pid, str(key), self._node.now)
        return entry.value if entry is not None else None

    # -- introspection -----------------------------------------------------------

    def entry(self, key: str) -> Optional[KVWrite]:
        """The winning write currently stored under ``key``."""
        return self._store.get(str(key))

    def buffered(self) -> int:
        """Writes currently held back waiting for causal dependencies."""
        return len(self._buffer)

    def buffered_ids(self) -> Tuple[WriteId, ...]:
        return tuple(sorted(self._buffer))

    def state_digest(self) -> Tuple[Tuple[str, int, ProcessId], ...]:
        """Order-independent fingerprint of the visible store.

        Two replicas with equal digests hold the same winning write per
        key — the convergence predicate of the metrics monitor and the
        LWW tests.
        """
        return tuple(
            sorted(
                (key, write.clock.total(), write.writer)
                for key, write in self._store.items()
            )
        )

    def close(self) -> None:
        """Unhook from the node and the monitor: both lead back here."""
        del self._node.on_deliver
        self._monitor = None

    # -- causal delivery ---------------------------------------------------------

    def _on_deliver(self, mid, payload) -> None:
        # the host protocol may deliver non-KV payloads (e.g. scenario
        # broadcasts sharing the stack) — the replica ignores them
        if not isinstance(payload, KVWrite):
            return
        write = payload
        if write.writer == self.pid:
            return  # own writes applied at put() time
        write_id = write.write_id
        if write_id[1] <= self.clock.counter(write.writer):
            return  # duplicate (re-delivery or already-seen sequence number)
        if write_id not in self._buffer:  # else re-delivered while held back
            self._buffer[write_id] = write
            self._park(write)
        self._flush()

    def _park(self, write: KVWrite) -> None:
        """Index a held-back write: deliverable, or the entry it waits for."""
        entry = write.clock.waits_for(write.writer, self.clock)
        if entry is None:
            heappush(self._deliverable, write.write_id)
        else:
            self._parked.setdefault(entry, []).append(write)

    def _ready(self, write: KVWrite) -> Optional[VectorClock]:
        """The causal-broadcast deliverability condition, fused with the merge.

        One pass over the write's clock: the local clock merged with it
        when the write may apply, else None.  A deliverable write differs
        from the local clock only in its writer's entry, one ahead, so the
        merge is the local clock with that entry advanced.
        """
        local = self.clock._counts
        writer = write.writer
        count = None
        for pid, theirs in write.clock._counts.items():
            if pid == writer:
                count = theirs
            elif theirs > local.get(pid, 0):
                return None
        if count != local.get(writer, 0) + 1:
            return None
        merged = VectorClock.__new__(VectorClock)
        merged._counts = {**local, writer: count}
        return merged

    def _apply(self, write: KVWrite) -> None:
        if write.writer == self.pid:
            self.clock = self.clock.merge(write.clock)
        else:
            clock = self._ready(write)  # never an empty, falsy clock when ready
            if not clock:
                raise CausalOrderError(
                    f"replica {self.pid} applying {write.write_id} with clock "
                    f"{write.clock!r} before its dependencies (local clock "
                    f"{self.clock!r})"
                )
            self.clock = clock
        current = self._store.get(write.key)
        if current is None or write.order_key > current.order_key:
            self._store[write.key] = write
        if self._monitor is not None:
            self._monitor.on_apply(self.pid, write, self._node.now)
        # the local clock just reached entry write_id: wake its waiters only
        for waiter in self._parked.pop(write.write_id, ()):
            self._park(waiter)

    def _flush(self) -> None:
        # transitive: an apply may make parked writes deliverable; the heap
        # yields the smallest deliverable WriteId, the deterministic order
        while self._deliverable:
            self._apply(self._buffer.pop(heappop(self._deliverable)))
