"""The indexed hold-back buffer against the rescan it replaced.

:class:`~repro.kvstore.replica.KVReplica` files every held-back write
under the one clock entry it waits for, or in a heap of deliverable
ids, and an apply wakes only the waiters of the entry it moved.  Before
that, every delivery rescanned the whole buffer in ``WriteId`` order
until a pass applied nothing.  That loop is kept here, verbatim, as
:class:`RescanReplica` — the sequential reference model — and checked
differentially:

* under generated causal histories (up to 6 writers and 60 writes, any
  delivery permutation with duplicates and re-deliveries, any prefix)
  both replicas apply the same writes in the same *sequence* and agree
  on buffer, clock and store after every single delivery, while the
  index keeps its structural invariants (each held-back write filed
  exactly once; heap entries deliverable; parked entries unreached; an
  apply moves one clock entry by one);
* a whole seeded KV trial returns the identical metric dict with the
  reference patched in;
* a machine-independent work counter: a chain delivered in reverse
  costs the index a linear number of readiness evaluations, the rescan
  a quadratic one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.kvstore.trial as kv_trial
from repro.experiments.runner import current_scale
from repro.kvstore.clocks import VectorClock
from repro.kvstore.replica import KVReplica, KVWrite
from repro.kvstore.workload import KVWorkloadParams
from repro.scenario.registry import build_scenario


class RescanReplica(KVReplica):
    """The hold-back path as it was before the index, method for method."""

    def _on_deliver(self, mid, payload) -> None:
        # the host protocol may deliver non-KV payloads (e.g. scenario
        # broadcasts sharing the stack) — the replica ignores them
        if not isinstance(payload, KVWrite):
            return
        write = payload
        if write.writer == self.pid:
            return  # own writes applied at put() time
        if write.clock.counter(write.writer) <= self.clock.counter(write.writer):
            return  # duplicate (re-delivery or already-seen sequence number)
        self._buffer[write.write_id] = write
        self._flush()

    def _ready(self, write: KVWrite) -> bool:
        """The causal-broadcast deliverability condition."""
        clock = self.clock
        for pid, count in write.clock.items():
            if pid == write.writer:
                if count != clock.counter(pid) + 1:
                    return False
            elif count > clock.counter(pid):
                return False
        return True

    def _flush(self) -> None:
        # transitive: each apply may unblock further buffered writes, so
        # re-scan (in deterministic WriteId order) until a full pass
        # applies nothing
        applied = True
        while applied:
            applied = False
            for write_id in sorted(self._buffer):
                write = self._buffer[write_id]
                if self._ready(write):
                    del self._buffer[write_id]
                    self._apply(write)
                    applied = True
                    break


class _StubNode:
    """Minimal stand-in for a deployed broadcast node."""

    def __init__(self, pid):
        self.pid = pid
        self.now = 0.0
        self.sent = []
        self.on_deliver = None

    def broadcast(self, payload):
        self.sent.append(payload)
        return (self.pid, len(self.sent))


class _ApplyLog:
    """The monitor surface a replica reports to; keeps the apply sequence."""

    def __init__(self):
        self.applies = []

    def register(self, replica):
        pass

    def on_put(self, write, now):
        pass

    def on_apply(self, pid, write, now):
        self.applies.append(write.write_id)

    def on_read(self, pid, key, now):
        pass


def _deliver(replica, write):
    replica._on_deliver(("mid", write.write_id), write)


def _chain(length, writer=0):
    """``length`` sequential writes of one writer, in issue order."""
    replica = KVReplica(_StubNode(writer))
    for value in range(length):
        replica.put("x", value)
    return replica._node.sent


def check_index(replica):
    """The structural invariants of the parked/deliverable index."""
    parked = [w.write_id for waiters in replica._parked.values() for w in waiters]
    heap = list(replica._deliverable)
    # every held-back write is filed exactly once, nothing else is filed
    assert sorted(parked + heap) == list(replica.buffered_ids())
    for write_id in heap:
        assert replica._ready(replica._buffer[write_id])
    for (pid, count), waiters in replica._parked.items():
        assert waiters
        assert replica.clock.counter(pid) < count  # an entry not reached yet
        for write in waiters:
            assert replica._buffer[write.write_id] is write
            assert not replica._ready(write)


def checked(replica):
    """Run :func:`check_index` around every apply, and hold each apply to
    "moves exactly one local entry by exactly one"."""
    apply = replica._apply

    def checked_apply(write):
        check_index(replica)
        before = replica.clock
        assert before.merge(write.clock) == before.advance(write.writer)
        apply(write)
        assert replica.clock == before.advance(write.writer)

    replica._apply = checked_apply
    return replica


# ---------------------------------------------------------------------------
# Differential property: any history, any interleaving, any prefix
# ---------------------------------------------------------------------------


@st.composite
def deliveries(draw):
    """A causally rich history and a delivery sequence over it.

    Writers put to a small key pool; between puts, earlier writes are
    delivered to other writers, which makes their next writes depend on
    them.  The delivery sequence is a permutation of the history plus
    extra copies (duplicates of applied writes, re-deliveries of writes
    still held back), cut at any point.
    """
    writers = draw(st.integers(min_value=2, max_value=6))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=writers - 1),  # writer
                st.integers(min_value=0, max_value=3),  # key
                st.integers(min_value=0, max_value=2),  # writes handed on
                st.integers(min_value=0, max_value=255),  # which / to whom
            ),
            min_size=1,
            max_size=60,
        )
    )
    replicas = [KVReplica(_StubNode(pid)) for pid in range(writers)]
    history = []
    for writer, key, handed_on, pick in steps:
        replicas[writer].put(f"k{key}", len(history))
        history.append(replicas[writer]._node.sent[-1])
        for offset in range(handed_on):
            target = replicas[(writer + 1 + pick + offset) % writers]
            _deliver(target, history[(pick + 7 * offset) % len(history)])
    extra = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(history) - 1),
            max_size=len(history) // 2,
        )
    )
    order = draw(st.permutations(list(range(len(history))) + extra))
    cut = draw(st.integers(min_value=0, max_value=len(order)))
    return history, order[:cut]


@settings(max_examples=200, deadline=None)
@given(deliveries())
def test_index_and_rescan_agree_after_every_delivery(case):
    history, order = case
    index_log, rescan_log = _ApplyLog(), _ApplyLog()
    indexed = checked(KVReplica(_StubNode(99), monitor=index_log))
    rescan = RescanReplica(_StubNode(99), monitor=rescan_log)
    for position in order:
        _deliver(indexed, history[position])
        _deliver(rescan, history[position])
        assert index_log.applies == rescan_log.applies  # the same sequence
        assert indexed.buffered_ids() == rescan.buffered_ids()
        assert indexed.buffered() == rescan.buffered()
        assert indexed.clock == rescan.clock
        assert indexed.state_digest() == rescan.state_digest()
        check_index(indexed)
        assert not indexed._deliverable  # a delivery flushes to the end
    assert len(set(index_log.applies)) == len(index_log.applies)  # at most once


def test_redelivery_of_a_held_back_write_is_not_parked_twice():
    first, second, third = _chain(3)
    replica = checked(KVReplica(_StubNode(9)))
    for _ in range(3):
        _deliver(replica, third)
    assert replica.buffered_ids() == ((0, 3),)
    assert [len(waiters) for waiters in replica._parked.values()] == [1]
    _deliver(replica, first)
    _deliver(replica, third)  # still waiting for (0, 2), still filed once
    check_index(replica)
    assert [len(waiters) for waiters in replica._parked.values()] == [1]
    _deliver(replica, second)
    assert replica.buffered() == 0 and not replica._parked
    assert replica.clock == VectorClock({0: 3})


def test_a_put_wakes_writes_waiting_on_the_replicas_own_entry():
    """No trial produces this (a write cannot depend on a put not made
    yet), but the index must not strand it: the waiter moves to the heap
    at the put and applies at the next delivery, as with the rescan."""
    waiting = KVWrite("y", 1, 0, VectorClock({0: 1, 5: 1}))
    later = KVWrite("z", 2, 1, VectorClock({1: 1}))
    logs = []
    for cls in (KVReplica, RescanReplica):
        log = _ApplyLog()
        replica = cls(_StubNode(5), monitor=log)
        _deliver(replica, waiting)
        assert replica.buffered_ids() == ((0, 1),)
        replica.put("x", 0)
        assert replica.buffered_ids() == ((0, 1),)  # a put does not flush
        _deliver(replica, later)
        assert replica.buffered() == 0
        logs.append(log.applies)
    assert logs[0] == logs[1] == [(5, 1), (0, 1), (1, 1)]


# ---------------------------------------------------------------------------
# Whole trial: the metric dict does not move
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["gossip", "flooding"])
def test_trial_metrics_identical_with_the_rescan_reference(protocol, monkeypatch):
    spec = build_scenario("hot-key-storm", current_scale("quick"))
    workload = KVWorkloadParams(ops=200)
    indexed = kv_trial.run_kv_trial(spec, protocol, 0, workload=workload)
    monkeypatch.setattr(kv_trial, "KVReplica", RescanReplica)
    rescan = kv_trial.run_kv_trial(spec, protocol, 0, workload=workload)
    assert indexed == rescan
    assert indexed["kv_buffer_max"] > 0  # the hold-back path did run


# ---------------------------------------------------------------------------
# Work counter: readiness evaluations, machine-independent
# ---------------------------------------------------------------------------


def test_reversed_chain_costs_linear_readiness_evaluations(monkeypatch):
    """N sequential writes delivered last-first: one parking, one
    re-parking and one guard per write for the index; the rescan
    re-tests the whole buffer on every delivery."""
    n = 200
    chain = _chain(n)
    evaluations = [0]
    waits_for = VectorClock.waits_for

    def counting(clock, writer, local):
        evaluations[0] += 1
        return waits_for(clock, writer, local)

    monkeypatch.setattr(VectorClock, "waits_for", counting)
    indexed = KVReplica(_StubNode(1))
    for write in reversed(chain):
        _deliver(indexed, write)
    assert indexed.buffered() == 0 and indexed.clock == VectorClock({0: n})
    assert evaluations[0] <= 4 * n

    rescan = RescanReplica(_StubNode(1))
    scans = [0]
    ready = rescan._ready

    def counting_ready(write):
        scans[0] += 1
        return ready(write)

    rescan._ready = counting_ready
    for write in reversed(chain):
        _deliver(rescan, write)
    assert rescan.clock == indexed.clock
    assert scans[0] > n * n // 4
