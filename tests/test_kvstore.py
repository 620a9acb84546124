"""Unit + property tests for the ``repro.kvstore`` application layer.

Covers the PR's causal-consistency contract:

* :class:`VectorClock` — advance/merge/compare laws, lossless JSON;
* :class:`KVReplica` — the causal-broadcast deliverability condition,
  transitive buffer flushes, duplicate suppression, LWW convergence,
  and the put-refusal guarantee (a refused write leaves no causal gap);
* Hypothesis properties — under *any* delivery interleaving of *any*
  generated causal history, no replica ever applies a write before its
  dependencies, and observers fed different permutations converge;
* :class:`WorkloadGenerator` — seeded determinism, surge/steady op
  counts, mix and placement bounds, payload round-trip with
  ``did_you_mean`` on unknown keys;
* the per-category :class:`MessageStats` per-link split (satellite fix)
  and the dotted ``kvstore.axis`` sweep-key resolution (satellite fix).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnreachableTargetError, ValidationError
from repro.experiments.registry import resolve_experiment
from repro.experiments.runner import current_scale
from repro.kvstore.clocks import VectorClock
from repro.kvstore.replica import CausalOrderError, KVReplica, KVWrite
from repro.kvstore.workload import (
    KVOp,
    KVWorkloadParams,
    WorkloadGenerator,
    decode_workload,
)
from repro.scenario.registry import build_scenario
from repro.sim.trace import MessageCategory, MessageStats
from repro.types import Link
from repro.util.rng import RandomSource


# ---------------------------------------------------------------------------
# VectorClock
# ---------------------------------------------------------------------------


class TestVectorClock:
    def test_advance_and_counter(self):
        clock = VectorClock()
        assert clock.counter(0) == 0 and len(clock) == 0
        one = clock.advance(0)
        two = one.advance(0).advance(3)
        assert one.counter(0) == 1
        assert two.counter(0) == 2 and two.counter(3) == 1
        # immutability: the originals are untouched
        assert clock.counter(0) == 0 and one.counter(3) == 0

    def test_merge_is_elementwise_max(self):
        a = VectorClock({0: 2, 1: 1})
        b = VectorClock({1: 3, 2: 1})
        merged = a.merge(b)
        assert merged.items() == ((0, 2), (1, 3), (2, 1))
        assert merged == b.merge(a)

    def test_happens_before_and_concurrency(self):
        a = VectorClock({0: 1})
        b = a.advance(1)
        c = a.advance(2)
        assert a.happens_before(b) and not b.happens_before(a)
        assert a.compare(b) == -1 and b.compare(a) == 1
        assert a.compare(VectorClock({0: 1})) == 0
        assert b.concurrent_with(c) and b.compare(c) is None
        assert not a.happens_before(a)

    def test_total_is_strictly_monotone_along_happens_before(self):
        a = VectorClock({0: 1, 1: 2})
        b = a.advance(2)
        assert a.total() == 3 and b.total() == 4

    def test_zero_entries_are_dropped(self):
        clock = VectorClock({0: 0, 1: 2})
        assert clock.pids() == (1,)
        assert clock == VectorClock({1: 2})
        assert hash(clock) == hash(VectorClock({1: 2}))

    def test_json_round_trip(self):
        clock = VectorClock({0: 3, 7: 1, 12: 9})
        encoded = clock.to_json()
        assert encoded == {"0": 3, "7": 1, "12": 9}
        assert VectorClock.from_json(encoded) == clock

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            VectorClock({-1: 2})
        with pytest.raises(ValidationError):
            VectorClock({0: -2})
        with pytest.raises(ValidationError):
            VectorClock.from_json({"zero": 1})
        with pytest.raises(ValidationError):
            VectorClock.from_json({"0": True})
        with pytest.raises(ValidationError):
            VectorClock.from_json({"0": 1.5})
        with pytest.raises(ValidationError):
            VectorClock.from_json([1, 2])

    @pytest.mark.parametrize("bad", [-1, 1.9, 2.0, True, "3", None])
    def test_pids_and_counters_are_never_truncated_or_coerced(self, bad):
        """The constructor, ``of`` and ``advance`` refuse what ``from_json``
        refuses: no clock exists whose own ``to_json`` would not load."""
        with pytest.raises(ValidationError):
            VectorClock().advance(bad)
        with pytest.raises(ValidationError):
            VectorClock({bad: 2})
        with pytest.raises(ValidationError):
            VectorClock({1: bad})
        with pytest.raises(ValidationError):
            VectorClock.of([(1, bad)])

    def test_advance_validates_like_the_constructor(self):
        with pytest.raises(ValidationError, match="pid must be >= 0"):
            VectorClock().advance(-1)
        with pytest.raises(ValidationError, match="pid must be >= 0"):
            VectorClock({-1: 1})
        # and what it accepts round-trips
        clock = VectorClock().advance(1).advance(1)
        assert clock == VectorClock({1: 2}) == VectorClock.from_json(clock.to_json())

    def test_waits_for_names_the_entry_a_write_is_blocked_on(self):
        local = VectorClock({0: 2, 1: 1})
        # next in sequence from writer 0, nothing else ahead: deliverable
        assert VectorClock({0: 3, 1: 1}).waits_for(0, local) is None
        assert VectorClock({2: 1}).waits_for(2, local) is None
        # a gap in the writer's own sequence is reported first
        assert VectorClock({0: 5, 1: 4}).waits_for(0, local) == (0, 4)
        # a dependency on another writer: that writer's entry
        assert VectorClock({0: 3, 1: 2}).waits_for(0, local) == (1, 2)
        # already applied: not deliverable either
        assert VectorClock({0: 2}).waits_for(0, local) is not None

    @given(
        st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=5),
        st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=5),
        st.integers(0, 5),
    )
    def test_waits_for_is_the_causal_broadcast_condition(self, w, v, writer):
        stamp, local = VectorClock(w), VectorClock(v)
        deliverable = stamp.counter(writer) == local.counter(writer) + 1 and all(
            count <= local.counter(pid)
            for pid, count in stamp.items()
            if pid != writer
        )
        entry = stamp.waits_for(writer, local)
        assert (entry is None) == deliverable
        if entry is not None and stamp.counter(writer) > local.counter(writer):
            pid, count = entry  # an entry ``local`` has yet to reach
            assert local.counter(pid) < count <= stamp.counter(pid)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=64),
            st.integers(min_value=0, max_value=1000),
            max_size=8,
        )
    )
    def test_json_round_trip_property(self, counts):
        clock = VectorClock(counts)
        assert VectorClock.from_json(clock.to_json()) == clock

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=1, max_value=20),
            max_size=5,
        ),
        st.dictionaries(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=1, max_value=20),
            max_size=5,
        ),
    )
    def test_merge_is_least_upper_bound(self, a_counts, b_counts):
        a, b = VectorClock(a_counts), VectorClock(b_counts)
        merged = a.merge(b)
        assert a.dominated_by(merged) and b.dominated_by(merged)
        for pid in merged.pids():
            assert merged.counter(pid) == max(a.counter(pid), b.counter(pid))


# ---------------------------------------------------------------------------
# KVReplica on a stub node
# ---------------------------------------------------------------------------


class _StubNode:
    """Minimal stand-in for a deployed broadcast node."""

    def __init__(self, pid, fail=False):
        self.pid = pid
        self.now = 0.0
        self.sent = []
        self.fail = fail
        self.on_deliver = None

    def broadcast(self, payload):
        if self.fail:
            raise UnreachableTargetError("target K unattainable")
        self.sent.append(payload)
        return (self.pid, len(self.sent))


class _RecordingMonitor:
    """Captures the replica->monitor notification stream."""

    def __init__(self):
        self.replicas = {}
        self.puts = []
        self.applies = []
        self.reads = []

    def register(self, replica):
        self.replicas[replica.pid] = replica

    def on_put(self, write, now):
        self.puts.append((write.write_id, now))

    def on_apply(self, pid, write, now):
        self.applies.append((pid, write.write_id))

    def on_read(self, pid, key, now):
        self.reads.append((pid, key))


def _replica(pid, fail=False, monitor=None):
    return KVReplica(_StubNode(pid, fail=fail), monitor=monitor)


def _deliver(replica, write):
    replica._on_deliver(("mid", write.write_id), write)


class TestKVReplica:
    def test_put_applies_locally_and_broadcasts(self):
        replica = _replica(0)
        replica.put("x", 1)
        assert replica.get("x") == 1
        assert replica.clock.counter(0) == 1
        [write] = replica._node.sent
        assert isinstance(write, KVWrite)
        assert write.write_id == (0, 1) and write.clock == replica.clock

    def test_get_unwritten_key_is_none(self):
        assert _replica(0).get("nope") is None

    def test_in_order_remote_writes_apply_immediately(self):
        writer, reader = _replica(0), _replica(1)
        writer.put("x", 1)
        writer.put("x", 2)
        for write in writer._node.sent:
            _deliver(reader, write)
        assert reader.get("x") == 2
        assert reader.buffered() == 0
        assert reader.state_digest() == writer.state_digest()

    def test_buffer_flush_is_transitive(self):
        """A dependency chain delivered in reverse applies in one flush."""
        writer, reader = _replica(0), _replica(1)
        for value in range(4):
            writer.put("x", value)
        chain = writer._node.sent
        for write in reversed(chain[1:]):
            _deliver(reader, write)
            assert reader.get("x") is None  # nothing ready yet
        assert reader.buffered() == 3
        _deliver(reader, chain[0])  # the root unblocks the whole chain
        assert reader.buffered() == 0
        assert reader.get("x") == 3
        assert reader.clock == writer.clock

    def test_cross_writer_dependency_waits(self):
        a, b, reader = _replica(0), _replica(1), _replica(2)
        a.put("x", 1)
        [wa] = a._node.sent
        _deliver(b, wa)  # b now causally depends on a's write
        b.put("y", 2)
        [wb] = b._node.sent
        _deliver(reader, wb)
        assert reader.buffered() == 1 and reader.get("y") is None
        _deliver(reader, wa)
        assert reader.buffered() == 0
        assert reader.get("x") == 1 and reader.get("y") == 2

    def test_duplicate_and_own_deliveries_are_ignored(self):
        writer, reader = _replica(0), _replica(1)
        writer.put("x", 1)
        [write] = writer._node.sent
        _deliver(reader, write)
        _deliver(reader, write)  # re-delivery
        assert reader.clock.counter(0) == 1
        _deliver(writer, write)  # own write echoed back
        assert writer.clock.counter(0) == 1
        reader._on_deliver("mid", {"scenario": "not-a-write"})  # non-KV payload

    def test_lww_resolves_concurrent_writes_identically(self):
        a, b = _replica(0), _replica(1)
        a.put("x", "from-a")
        b.put("x", "from-b")
        [wa], [wb] = a._node.sent, b._node.sent
        assert wa.clock.concurrent_with(wb.clock)
        observers = [_replica(10), _replica(11)]
        _deliver(observers[0], wa)
        _deliver(observers[0], wb)
        _deliver(observers[1], wb)
        _deliver(observers[1], wa)
        assert observers[0].state_digest() == observers[1].state_digest()
        # equal totals tie-break on the higher writer id, everywhere
        assert observers[0].get("x") == "from-b"

    def test_causally_later_write_always_wins(self):
        a, b = _replica(0), _replica(1)
        a.put("x", "old")
        [wa] = a._node.sent
        _deliver(b, wa)
        b.put("x", "new")
        [wb] = b._node.sent
        observer = _replica(10)
        _deliver(observer, wb)
        _deliver(observer, wa)
        assert observer.get("x") == "new"

    def test_refused_put_leaves_replica_untouched(self):
        replica = _replica(0, fail=True)
        with pytest.raises(UnreachableTargetError):
            replica.put("x", 1)
        assert replica.clock == VectorClock()
        assert replica.get("x") is None
        # the next accepted write starts at counter 1 — no causal gap
        replica._node.fail = False
        replica.put("x", 2)
        [write] = replica._node.sent
        assert write.write_id == (0, 1)

    def test_direct_apply_of_unready_write_raises(self):
        replica = _replica(1)
        gap = KVWrite("x", 1, 0, VectorClock({0: 2}))  # counter 1 missing
        with pytest.raises(CausalOrderError):
            replica._apply(gap)

    def test_monitor_sees_puts_applies_and_reads(self):
        monitor = _RecordingMonitor()
        writer = _replica(0, monitor=monitor)
        reader = _replica(1, monitor=monitor)
        writer.put("x", 1)
        [write] = writer._node.sent
        _deliver(reader, write)
        reader.get("x")
        assert monitor.puts == [((0, 1), 0.0)]
        assert (0, (0, 1)) in monitor.applies  # writer's local apply
        assert (1, (0, 1)) in monitor.applies  # reader's remote apply
        assert monitor.reads == [(1, "x")]
        assert set(monitor.replicas) == {0, 1}


# ---------------------------------------------------------------------------
# Hypothesis: causal safety under arbitrary interleavings
# ---------------------------------------------------------------------------


@st.composite
def causal_histories(draw):
    """A causally rich write history plus a delivery permutation.

    Writers put to a small key pool; between puts, pending writes are
    delivered to other writers, creating cross-writer dependencies.
    """
    writers = draw(st.integers(min_value=2, max_value=4))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=writers - 1),  # writer
                st.integers(min_value=0, max_value=3),  # key
                st.booleans(),  # also deliver a pending write?
                st.integers(min_value=0, max_value=63),  # which / to whom
            ),
            min_size=1,
            max_size=20,
        )
    )
    replicas = [_replica(pid) for pid in range(writers)]
    history = []
    for writer, key, deliver, pick in steps:
        replicas[writer].put(f"k{key}", len(history))
        history.append(replicas[writer]._node.sent[-1])
        if deliver and history:
            target = replicas[(writer + 1 + pick) % writers]
            _deliver(target, history[pick % len(history)])
    order = draw(st.permutations(range(len(history))))
    cut = draw(st.integers(min_value=0, max_value=len(history)))
    return history, order, cut


@settings(max_examples=60, deadline=None)
@given(causal_histories())
def test_no_replica_applies_a_write_before_its_dependencies(case):
    """The core safety property, under any interleaving and any prefix."""
    history, order, cut = case
    by_id = {w.write_id: w for w in history}
    monitor = _RecordingMonitor()
    observer = _replica(99, monitor=monitor)
    for index in order[:cut]:
        _deliver(observer, history[index])  # CausalOrderError would raise
        applied = {wid for pid, wid in monitor.applies if pid == 99}
        # causal closure: every dependency of an applied write is applied
        for wid in applied:
            write = by_id[wid]
            for dep in history:
                if dep.clock.happens_before(write.clock):
                    assert dep.write_id in applied
    # whatever is still buffered genuinely misses a dependency
    applied = {wid for pid, wid in monitor.applies if pid == 99}
    for wid in observer.buffered_ids():
        assert not observer._ready(by_id[wid])
        assert wid not in applied


@settings(max_examples=60, deadline=None)
@given(causal_histories())
def test_observers_converge_under_any_full_interleaving(case):
    """Complete delivery in any two orders yields identical stores."""
    history, order, _ = case
    first, second = _replica(98), _replica(99)
    for index in order:
        _deliver(first, history[index])
    for write in history:  # issue order
        _deliver(second, write)
    assert first.buffered() == 0 and second.buffered() == 0
    assert first.state_digest() == second.state_digest()
    assert first.clock == second.clock


# ---------------------------------------------------------------------------
# WorkloadGenerator
# ---------------------------------------------------------------------------


def _schedule(params, scenario="hot-key-storm", n=16, seed=("wl", 0)):
    spec = build_scenario(scenario, current_scale("quick"))
    return WorkloadGenerator(params, n, RandomSource(*seed)).generate(spec), spec


class TestWorkloadGenerator:
    def test_schedule_is_deterministic(self):
        params = KVWorkloadParams()
        first, _ = _schedule(params)
        second, _ = _schedule(params)
        assert first == second
        other, _ = _schedule(params, seed=("wl", 1))
        assert first != other

    def test_surge_and_steady_op_counts(self):
        params = KVWorkloadParams(ops=20, surge_ops=6)
        surged, spec = _schedule(params)  # hot-key-storm declares surge_at
        assert len(surged) == 26
        calm, _ = _schedule(params, scenario="partition-heal")
        assert len(calm) == 20
        surge_at = spec.workload.surge_at
        in_window = [
            op for op in surged if surge_at <= op.at < surge_at + spec.duration * 0.1
        ]
        assert len(in_window) >= 6

    def test_ops_sorted_and_inside_the_window(self):
        ops, spec = _schedule(KVWorkloadParams())
        assert list(ops) == sorted(ops, key=lambda op: (op.at, op.seq))
        for op in ops:
            assert isinstance(op, KVOp)
            assert spec.workload.start <= op.at < spec.duration * 0.85 + 1e-9
            assert 0 <= op.origin < 16
            assert op.kind in ("put", "get")
            assert op.key.startswith("k")

    def test_write_ratio_extremes(self):
        all_puts, _ = _schedule(KVWorkloadParams(write_ratio=1.0))
        assert all(op.kind == "put" for op in all_puts)
        all_gets, _ = _schedule(KVWorkloadParams(write_ratio=0.0))
        assert all(op.kind == "get" for op in all_gets)

    def test_regions_partition_the_replica_space(self):
        ops, _ = _schedule(KVWorkloadParams(regions=4), n=16)
        assert all(0 <= op.origin < 16 for op in ops)
        # more regions than replicas degrades gracefully to one-per-pid
        ops, _ = _schedule(KVWorkloadParams(regions=64), n=4)
        assert all(0 <= op.origin < 4 for op in ops)

    def test_sharper_zipf_concentrates_the_hot_key(self):
        flat, _ = _schedule(KVWorkloadParams(ops=200, zipf_s=0.0, surge_ops=0))
        sharp, _ = _schedule(KVWorkloadParams(ops=200, zipf_s=2.5, surge_ops=0))
        hot = "k0000"
        assert sum(op.key == hot for op in sharp) > sum(
            op.key == hot for op in flat
        )

    def test_param_validation(self):
        for bad in (
            {"keys": 0},
            {"zipf_s": -0.1},
            {"write_ratio": 1.5},
            {"ops": 0},
            {"regions": 0},
            {"surge_ops": -1},
            {"surge_zipf_s": -1.0},
        ):
            with pytest.raises(ValidationError):
                KVWorkloadParams(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"zipf_s": float("nan")},
            {"zipf_s": float("inf")},
            {"surge_zipf_s": float("nan")},
            {"write_ratio": float("nan")},
            {"keys": 2.5},
            {"keys": True},
            {"ops": 1.5},
            {"regions": 2.0},
            {"surge_ops": 0.5},
        ],
    )
    def test_non_finite_fractional_and_bool_params_rejected(self, bad):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            KVWorkloadParams(**bad)

    def test_payload_round_trip(self):
        params = KVWorkloadParams(zipf_s=1.1, write_ratio=0.5, ops=10)
        assert decode_workload(params.to_payload()) == params
        assert decode_workload(None) is None

    def test_unknown_payload_key_gets_suggestion(self):
        with pytest.raises(ValidationError, match="zipf_s"):
            decode_workload('{"zipff_s": 1.1}')
        with pytest.raises(ValidationError):
            decode_workload("[1, 2]")


# ---------------------------------------------------------------------------
# MessageStats per-category per-link split (satellite fix)
# ---------------------------------------------------------------------------


class TestMessageStatsPerCategorySplit:
    def _stats(self):
        stats = MessageStats()
        stats.record(0.0, 0, 1, MessageCategory.DATA, True)
        stats.record(1.0, 1, 0, MessageCategory.DATA, True)
        stats.record(2.0, 0, 1, MessageCategory.CONTROL, True)
        stats.record(3.0, 1, 2, MessageCategory.HEARTBEAT, False, None)
        return stats

    def test_sent_on_splits_by_category(self):
        stats = self._stats()
        link = Link.of(0, 1)
        assert stats.sent_on(link, MessageCategory.DATA) == 2
        assert stats.sent_on(link, MessageCategory.CONTROL) == 1
        assert stats.sent_on(link, MessageCategory.HEARTBEAT) == 0
        # the default aggregate stays the pre-split sum
        assert stats.sent_on(link) == 3
        assert stats.sent_on(Link.of(1, 2)) == 1

    def test_per_link_sent_category_and_merged_views(self):
        stats = self._stats()
        data = stats.per_link_sent(MessageCategory.DATA)
        assert data == {Link.of(0, 1): 2}
        merged = stats.per_link_sent()
        assert merged == {Link.of(0, 1): 3, Link.of(1, 2): 1}
        hb = stats.per_link_sent(MessageCategory.HEARTBEAT)
        assert hb == {Link.of(1, 2): 1}

    def test_aggregate_counters_unchanged_by_the_split(self):
        stats = self._stats()
        assert stats.sent() == 4
        assert stats.sent(MessageCategory.DATA) == 2
        assert stats.delivered() == 3
        snapshot = stats.snapshot()
        assert snapshot["sent_total"] == 4
        assert snapshot["sent_data"] == 2

    def test_reset_clears_every_per_category_map(self):
        stats = self._stats()
        stats.reset()
        assert stats.sent() == 0
        assert stats.sent_on(Link.of(0, 1)) == 0
        assert stats.per_link_sent() == {}


# ---------------------------------------------------------------------------
# Dotted experiment sweep keys (satellite fix)
# ---------------------------------------------------------------------------


class TestExperimentSweepKeys:
    def test_dotted_prefix_resolves_to_the_axis(self):
        spec = resolve_experiment("kvstore")
        params = spec.make_params({"kvstore.zipf_s": [0.8, 1.1]})
        assert params.zipf_s == (0.8, 1.1)

    def test_alias_prefix_resolves_too(self):
        spec = resolve_experiment("kvstore")
        params = spec.make_params({"kv.write_ratio": [0.5]})
        assert params.write_ratio == (0.5,)

    def test_dotted_typo_gets_did_you_mean(self):
        spec = resolve_experiment("kvstore")
        with pytest.raises(ValidationError, match="did you mean 'zipf_s'"):
            spec.make_params({"kvstore.zipff_s": [0.8]})

    def test_bare_typo_gets_did_you_mean(self):
        spec = resolve_experiment("kvstore")
        with pytest.raises(ValidationError, match="did you mean 'zipf_s'"):
            spec.make_params({"zipff_s": [0.8]})

    def test_foreign_prefix_is_not_stripped(self):
        spec = resolve_experiment("kvstore")
        with pytest.raises(ValidationError):
            spec.make_params({"membership.zipf_s": [0.8]})

    def test_other_experiments_accept_their_own_prefix(self):
        spec = resolve_experiment("membership")
        params = spec.make_params({"membership.view_size": [4, 8]})
        assert params.view_size == (4, 8)
