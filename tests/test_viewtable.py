"""VectorView unit tests + differential tests against ProcessView.

The vectorised implementation must be behaviourally identical to the
literal Algorithm 4 reference (``tests/conformance/reference``); these
tests drive both through the same event sequences and compare every
observable.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError, UnknownProcessError, ValidationError
from repro.core.knowledge import KnowledgeParameters
from repro.core.viewtable import VectorView
from repro.topology.generators import k_regular, ring
from repro.types import Link
from repro.util.rng import RandomSource
from tests.conformance.reference.knowledge import ProcessView

PARAMS = KnowledgeParameters(delta=1.0, intervals=20, tick=1.0)


def make_pair(graph, pid):
    """Matching (ProcessView, VectorView) for one process."""
    obj = ProcessView(pid, graph.n, graph.neighbors(pid), PARAMS)
    vec = VectorView(pid, graph, PARAMS)
    return obj, vec


def assert_equivalent(graph, obj: ProcessView, vec: VectorView):
    """All observables of both implementations agree."""
    assert obj.known_links == vec.known_links
    for p in graph.processes:
        assert obj.crash_probability(p) == pytest.approx(
            vec.crash_probability(p), abs=1e-9
        ), f"crash estimate of {p}"
        od, vd = obj.distortion_of(p), vec.distortion_of(p)
        assert (math.isinf(od) and math.isinf(vd)) or od == vd
        assert obj.proc[p].seq == vec.proc_seq[p]
        assert obj.proc[p].suspected == vec.proc_suspected[p]
        assert obj.timeout[p] == vec.timeout[p]
        assert obj.proc_map_interval(p) == vec.proc_map_interval(p)
    for link in graph.links:
        assert obj.knows_link(link) == vec.knows_link(link)
        if obj.knows_link(link):
            assert obj.loss_probability(link) == pytest.approx(
                vec.loss_probability(link), abs=1e-9
            ), f"loss estimate of {link}"
            assert obj.link_distortion(link) == vec.link_distortion(link)
    assert_outside_graph_agrees(graph, obj, vec)


def outcome(call, *args):
    """``call(*args)``'s value, or the type of the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc)


def assert_outside_graph_agrees(graph, obj: ProcessView, vec: VectorView):
    """Ids outside the graph get the same answer from both views.

    A pid outside ``[0, n)`` is an ``UnknownProcessError`` (never a NumPy
    index wrapping to another row), a link outside the graph is simply
    unknown, and a downtime must be an int.
    """
    for p in (-1, -graph.n, graph.n, True):
        for name in ("crash_probability", "distortion_of", "proc_map_interval"):
            got = outcome(getattr(obj, name), p), outcome(getattr(vec, name), p)
            assert got == (UnknownProcessError,) * 2, (name, p)
    missing = (
        Link.of(u, v)
        for u in graph.processes
        for v in range(u + 1, graph.n)
        if not graph.has_link(u, v)
    )
    expected = {
        "knows_link": False,
        "link_distortion": math.inf,
        "loss_probability": ProtocolError,
        "link_map_interval": ProtocolError,
    }
    for link in itertools.islice(missing, 1):
        for name, answer in expected.items():
            got = outcome(getattr(obj, name), link), outcome(getattr(vec, name), link)
            assert got == (answer,) * 2, (name, link)
    for ticks in (True, 1.5):
        got = outcome(obj.record_downtime, ticks), outcome(vec.record_downtime, ticks)
        assert got == (ValidationError,) * 2, ticks


def assert_invariant(vec: VectorView):
    """What lets one ``snapshot.d < self.d`` stand for the whole merge."""
    assert np.array_equal(vec.link_known, np.isfinite(vec.link_d))
    assert (vec.proc_d >= 0).all()
    assert vec.proc_d[vec.pid] == 0


class TestVectorViewBasics:
    def test_initial_state(self):
        g = ring(5)
        vec = VectorView(0, g, PARAMS)
        assert vec.distortion_of(0) == 0.0
        assert math.isinf(vec.distortion_of(2))
        assert vec.known_links == {Link.of(0, 1), Link.of(0, 4)}
        assert not vec.all_links_known()
        assert vec.crash_probability(2) == pytest.approx(0.5)

    def test_unknown_link_raises(self):
        g = ring(5)
        vec = VectorView(0, g, PARAMS)
        with pytest.raises(ProtocolError):
            vec.loss_probability(Link.of(1, 2))
        with pytest.raises(ProtocolError):
            vec.link_map_interval(Link.of(1, 2))

    def test_invalid_pid(self):
        with pytest.raises(ProtocolError):
            VectorView(9, ring(5), PARAMS)

    def test_heartbeat_from_non_neighbor_rejected(self):
        g = ring(5)
        a = VectorView(0, g, PARAMS)
        c = VectorView(2, g, PARAMS)
        snap = c.emit_heartbeat(1.0)
        with pytest.raises(ProtocolError):
            a.handle_heartbeat(snap, 1.0)

    def test_point_estimate_vectors(self):
        g = ring(4)
        vec = VectorView(0, g, PARAMS)
        points = vec.proc_point_estimates()
        assert points.shape == (4,)
        assert np.allclose(points, 0.5)
        links = vec.link_point_estimates()
        known = ~np.isnan(links)
        assert known.sum() == 2

    def test_map_interval_vectors(self):
        g = ring(4)
        vec = VectorView(0, g, PARAMS)
        assert (vec.link_map_intervals() == -1).sum() == 2  # unknown rows

    def test_downtime_validation(self):
        vec = VectorView(0, ring(4), PARAMS)
        with pytest.raises(ProtocolError):
            vec.record_downtime(-2)


class _Driver:
    """Replays an identical event schedule on both implementations."""

    def __init__(self, graph):
        self.graph = graph
        self.pairs = {p: make_pair(graph, p) for p in graph.processes}

    def exchange(self, sender, receiver, now):
        obj_s, vec_s = self.pairs[sender]
        obj_r, vec_r = self.pairs[receiver]
        obj_r.handle_heartbeat(obj_s.emit_heartbeat(now), now)
        vec_r.handle_heartbeat(vec_s.emit_heartbeat(now), now)

    def emit_lost(self, sender, now):
        """Heartbeat emitted but delivered to nobody."""
        obj_s, vec_s = self.pairs[sender]
        obj_s.emit_heartbeat(now)
        vec_s.emit_heartbeat(now)

    def sweep(self, pid, now):
        obj, vec = self.pairs[pid]
        assert obj.staleness_sweep(now) == vec.staleness_sweep(now)

    def tick(self, pid, crashed):
        obj, vec = self.pairs[pid]
        if crashed:
            obj.record_downtime(1)
            vec.record_downtime(1)
        else:
            obj.record_up_tick()
            vec.record_up_tick()

    def downtime(self, pid, ticks):
        obj, vec = self.pairs[pid]
        obj.record_downtime(ticks)
        vec.record_downtime(ticks)

    def check_one(self, pid):
        obj, vec = self.pairs[pid]
        assert_equivalent(self.graph, obj, vec)
        assert_invariant(vec)

    def check(self):
        for p in self.graph.processes:
            self.check_one(p)


class TestDifferentialEquivalence:
    def test_single_exchange(self):
        d = _Driver(ring(4))
        d.exchange(1, 0, 1.0)
        d.check()

    def test_bidirectional_exchanges(self):
        d = _Driver(ring(4))
        for t in range(1, 5):
            d.exchange(1, 0, float(t))
            d.exchange(0, 1, float(t))
        d.check()

    def test_lost_heartbeats_and_sweeps(self):
        d = _Driver(ring(4))
        d.exchange(1, 0, 1.0)
        d.emit_lost(1, 2.0)
        d.sweep(0, 3.0)
        d.exchange(1, 0, 3.5)
        d.check()

    def test_topology_propagation(self):
        d = _Driver(ring(5))
        # ripple topology knowledge around the ring
        for t in range(1, 6):
            for p in range(5):
                d.exchange(p, (p + 1) % 5, float(t))
        d.check()
        obj0, vec0 = d.pairs[0]
        assert len(obj0.known_links) == 5

    def test_self_ticks(self):
        d = _Driver(ring(4))
        for i in range(30):
            d.tick(0, crashed=(i % 7 == 0))
        d.exchange(0, 1, 1.0)
        d.check()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), sparse=st.booleans())
    def test_random_schedules(self, seed, sparse):
        """Random mixed event schedules keep both implementations equal.

        The touched process is compared, and the fused table's invariant
        asserted, after every event; the sparse graph makes most links
        arrive second-hand (newly learned, then refreshed as common).
        """
        rng = RandomSource("diff", seed)
        g = ring(7) if sparse else k_regular(6, 4)
        d = _Driver(g)
        now = 0.0
        for _ in range(60):
            now += 0.5
            action = rng.integer(5)
            pid = rng.integer(g.n)
            if action == 0:
                receivers = list(g.neighbors(pid))
                sender, pid = pid, receivers[rng.integer(len(receivers))]
                d.exchange(sender, pid, now)
            elif action == 1:
                d.emit_lost(pid, now)
            elif action == 2:
                d.sweep(pid, now)
            elif action == 3:
                d.tick(pid, crashed=bool(rng.integer(2)))
            else:
                d.downtime(pid, rng.integer(4))
            d.check_one(pid)
        d.check()


class TestVectorMergeDetails:
    def test_new_links_adopted_with_distortion(self):
        g = ring(5)
        a = VectorView(0, g, PARAMS)
        b = VectorView(1, g, PARAMS)
        a.handle_heartbeat(b.emit_heartbeat(1.0), 1.0)
        assert a.knows_link(Link.of(1, 2))
        assert a.link_distortion(Link.of(1, 2)) == 1.0

    def test_seq_tracked_from_snapshots(self):
        g = ring(5)
        a = VectorView(0, g, PARAMS)
        b = VectorView(1, g, PARAMS)
        b.emit_heartbeat(1.0)  # lost
        b.emit_heartbeat(2.0)  # lost
        a.handle_heartbeat(b.emit_heartbeat(3.0), 3.0)
        assert a.proc_seq[1] == 3

    def test_all_links_known_after_full_gossip(self):
        g = ring(4)
        views = {p: VectorView(p, g, PARAMS) for p in g.processes}
        for t in range(1, 5):
            for p in g.processes:
                snap = views[p].emit_heartbeat(float(t))
                for q in g.neighbors(p):
                    views[q].handle_heartbeat(snap, float(t))
        assert all(v.all_links_known() for v in views.values())


class TestFusedTable:
    def test_per_kind_names_alias_the_fused_table(self):
        g = ring(5)
        vec = VectorView(0, g, PARAMS)
        assert np.shares_memory(vec.proc_logb, vec.logb)
        assert np.shares_memory(vec.link_logb, vec.logb)
        vec.link_known[:] = True
        vec.link_d[:] = 2.0
        vec.proc_seq[3] = 9
        assert vec.known.all() and vec.all_links_known()
        assert (vec.d[g.n :] == 2.0).all()
        assert vec.seq[3] == 9

    def test_snapshot_is_read_only(self):
        g = ring(5)
        snap = VectorView(1, g, PARAMS).emit_heartbeat(1.0)
        VectorView(0, g, PARAMS).handle_heartbeat(snap, 1.0)
        for array in (snap.rec, snap.logb, snap.d, snap.seq):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_columns_are_views_of_one_record_per_row(self):
        g = ring(5)
        vec = VectorView(0, g, PARAMS)
        u = PARAMS.intervals
        assert vec.rec.shape == (g.n + g.link_count, u + 3)
        assert vec.rec.dtype == np.float64
        for name in (
            "logb", "d", "seq", "last", "proc_logb", "link_logb",
            "proc_d", "link_d", "proc_last", "link_last", "proc_seq",
        ):
            assert np.shares_memory(getattr(vec, name), vec.rec), name
        assert not np.shares_memory(vec.known, vec.rec)
        vec.proc_last[2] = 7.5
        vec.link_d[1] = 3.0
        assert vec.rec[2, u + 2] == 7.5 and vec.rec[g.n + 1, u] == 3.0

    def test_snapshot_carries_the_senders_values_and_d_plus_one(self):
        g = ring(5)
        a, b, c = (VectorView(p, g, PARAMS) for p in (0, 1, 2))
        b.record_downtime(2)
        b.handle_heartbeat(c.emit_heartbeat(1.0), 1.0)
        b.staleness_sweep(2.5)
        snap = b.emit_heartbeat(3.0)
        assert np.array_equal(snap.logb, b.logb)
        assert np.array_equal(snap.d, b.d)
        assert np.array_equal(snap.seq, b.seq)
        assert np.array_equal(snap.rec[:, -3], b.d + 1.0)
        assert snap.sender_seq == b.seq[1] == 1
        for array in (snap.rec, snap.logb, snap.d, snap.seq):
            assert not array.flags.writeable
        before = a.rec.copy()
        a.handle_heartbeat(snap, 4.0)
        adopted = snap.d < before[:, -3]
        assert adopted.sum() > 1
        assert np.array_equal(a.d[adopted], b.d[adopted] + 1.0)
        assert np.array_equal(a.logb[adopted], b.logb[adopted])
        assert np.array_equal(a.seq[adopted], b.seq[adopted])
        assert (a.last[adopted] == 4.0).all()
        kept = ~adopted
        kept[g.n + g.link_id(Link.of(0, 1))] = False  # the incoming link
        assert np.array_equal(a.rec[kept], before[kept])

    def test_snapshot_is_a_copy_not_a_slice(self):
        """Sender-side updates after emission never reach a snapshot in flight."""
        g = ring(5)
        b, c = (VectorView(p, g, PARAMS) for p in (1, 2))
        snap = b.emit_heartbeat(1.0)
        frozen = (snap.logb.copy(), snap.d.copy(), snap.seq.copy())
        b.record_downtime(3)
        b.handle_heartbeat(c.emit_heartbeat(1.5), 1.5)
        b.staleness_sweep(5.0)
        b.emit_heartbeat(5.0)
        for before, after in zip(frozen, (snap.logb, snap.d, snap.seq)):
            assert np.array_equal(before, after)
        assert snap.sender_seq == 1


def test_argmax_normalisation_is_maximum_reduce_bit_for_bit():
    """``b - b[b.argmax()]`` (the view's row update) equals subtracting
    ``np.maximum.reduce(b)``, bit for bit, also with ties, infinities and
    NaN.  (Signed zeros are the one case where the two picks differ; a
    log-belief row never holds ``-0.0``: it starts at ``+0.0`` and only
    ever adds negative log-likelihoods or subtracts its own maximum.)"""
    rng = np.random.default_rng(27)
    alphabet = np.array([-7.25, -1.0, -0.5, 0.0, 2.0, -np.inf, np.inf, np.nan])
    for _ in range(2000):
        size = int(rng.integers(1, 60))
        if rng.random() < 0.5:
            row = rng.choice(alphabet, size)  # ties, infinities and NaN
        else:
            row = rng.normal(size=size)
            row[rng.random(size) < 0.1] = -np.inf
        with np.errstate(invalid="ignore"):
            fast, reference = row.copy(), row.copy()
            fast -= fast[fast.argmax()]
            reference -= np.maximum.reduce(reference)
        assert fast.tobytes() == reference.tobytes(), row
