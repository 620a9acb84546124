"""Unit tests for the flooding and two-phase baselines."""

import collections
import random
from functools import partial

import pytest

from repro.protocols.flooding import FloodingBroadcast
from repro.protocols.twophase import (
    TpData,
    TpDigest,
    TpRequest,
    TwoPhaseBroadcast,
    TwoPhaseParameters,
)
from repro.errors import ValidationError
from repro.sim.monitors import BroadcastMonitor
from repro.sim.trace import MessageCategory
from repro.topology.configuration import Configuration
from repro.topology.generators import clique, line, ring
from repro.util.rng import RandomSource
from tests.conftest import build_network


def deploy_flooding(config, seed=0):
    network = build_network(config, seed)
    monitor = BroadcastMonitor(config.graph.n)
    procs = [
        FloodingBroadcast(p, network, monitor, 0.99)
        for p in config.graph.processes
    ]
    network.start()
    return network, monitor, procs


def deploy_twophase(config, seed=0, rounds=10):
    network = build_network(config, seed)
    monitor = BroadcastMonitor(config.graph.n)
    params = TwoPhaseParameters(rounds=rounds)
    procs = [
        TwoPhaseBroadcast(
            p, network, monitor, 0.99, params, RandomSource("tp", seed, p)
        )
        for p in config.graph.processes
    ]
    network.start()
    return network, monitor, procs


class TestFlooding:
    def test_full_delivery_reliable(self):
        network, monitor, procs = deploy_flooding(Configuration.reliable(ring(8)))
        mid = procs[0].broadcast("m")
        network.sim.run_until_idle()
        assert monitor.fully_delivered(mid)

    def test_forwards_once(self):
        """Message count on a clique: n-1 + (n-1)(n-2) data messages."""
        n = 5
        network, monitor, procs = deploy_flooding(Configuration.reliable(clique(n)))
        procs[0].broadcast("m")
        network.sim.run_until_idle()
        expected = (n - 1) + (n - 1) * (n - 2)
        assert network.stats.sent(MessageCategory.DATA) == expected

    def test_no_retransmission_on_loss(self):
        """Flooding has no repair: total loss on the only link = no delivery."""
        config = Configuration.uniform(line(2), loss=1.0)
        network, monitor, procs = deploy_flooding(config)
        mid = procs[0].broadcast("m")
        network.sim.run_until_idle()
        assert network.stats.sent(MessageCategory.DATA) == 1
        assert monitor.delivery_count(mid) == 1  # only the origin

    def test_delivery_degrades_with_loss(self):
        config_ok = Configuration.reliable(ring(10))
        config_bad = Configuration.uniform(ring(10), loss=0.4)

        def ratio(config, seed):
            network, monitor, procs = deploy_flooding(config, seed)
            mid = procs[0].broadcast("m")
            network.sim.run_until_idle()
            return monitor.delivery_ratio(mid)

        good = sum(ratio(config_ok, s) for s in range(10)) / 10
        bad = sum(ratio(config_bad, s) for s in range(10)) / 10
        assert good > bad


class TestTwoPhase:
    def test_parameters_validated(self):
        with pytest.raises(ValidationError):
            TwoPhaseParameters(rounds=0)
        with pytest.raises(ValidationError):
            TwoPhaseParameters(gossip_period=-1.0)

    def test_full_delivery_reliable(self):
        network, monitor, procs = deploy_twophase(Configuration.reliable(ring(6)))
        mid = procs[0].broadcast("m")
        network.sim.run(until=3.0)
        assert monitor.fully_delivered(mid)

    def test_anti_entropy_repairs_losses(self):
        """Phase 1 may miss processes; digests must repair them."""
        config = Configuration.uniform(ring(8), loss=0.5)
        repaired = 0
        for seed in range(12):
            network, monitor, procs = deploy_twophase(config, seed=seed, rounds=30)
            mid = procs[0].broadcast("m")
            network.sim.run(until=3.0)
            after_flood = monitor.delivery_count(mid)
            network.sim.run(until=40.0)
            after_repair = monitor.delivery_count(mid)
            assert after_repair >= after_flood
            repaired += after_repair - after_flood
        assert repaired > 0  # anti-entropy did real work somewhere

    def test_digest_traffic_is_control(self):
        network, monitor, procs = deploy_twophase(Configuration.reliable(ring(5)))
        network.sim.run(until=5.0)
        assert network.stats.sent(MessageCategory.CONTROL) > 0

    def test_rounds_bound_digest_traffic(self):
        network, monitor, procs = deploy_twophase(
            Configuration.reliable(ring(5)), rounds=3
        )
        network.sim.run(until=50.0)
        # each process sends at most `rounds` digests
        assert network.stats.sent(MessageCategory.CONTROL) <= 3 * 5

    def test_symmetric_push(self):
        """A digest exposes what the peer misses; the peer pushes back."""
        config = Configuration.reliable(line(2))
        network, monitor, procs = deploy_twophase(config, rounds=5)
        # seed a message only at process 1 without flooding
        mid = ("fake", 0)
        procs[1]._messages[mid] = "hidden"
        network.sim.run(until=10.0)
        assert mid in procs[0]._messages  # learned via digest exchange


def digest_reference(proc, sender, payload):
    """The digest handler as it was before the subset guards: both walks
    run on every digest."""
    missing = frozenset(mid for mid in payload.known if mid not in proc._messages)
    if missing:
        proc.send(sender, TpRequest(wanted=missing), category=MessageCategory.CONTROL)
    surplus = [mid for mid in proc._messages if mid not in payload.known]
    for mid in surplus:
        proc.send(
            sender, TpData(mid, proc._messages[mid]), category=MessageCategory.DATA
        )


class _ProbeCountingStore(dict):
    """A message store that counts per-id probes: membership tests and walks."""

    probes = 0

    def __contains__(self, mid):
        self.probes += 1
        return super().__contains__(mid)

    def __iter__(self):
        self.probes += 1
        return super().__iter__()


def fresh_process(store_ids, store=dict):
    """A new process whose store received ``store_ids`` one insert at a
    time, as a store only ever grows; its sends are recorded, not sent."""
    _, _, procs = deploy_twophase(Configuration.reliable(line(2)))
    proc = procs[0]
    proc._messages = store()  # swapped while empty: nothing digested yet
    for mid in store_ids:
        proc._messages[mid] = f"v{mid}"
    proc.sent = []
    proc.send = lambda q, payload, category: proc.sent.append(
        (q, payload, category, tuple(getattr(payload, "wanted", ())))
    )
    return proc


def handled_like_the_reference(proc, known):
    """The sends ``proc`` makes for a digest of ``known``, checked against
    the reference handler on the same store, down to the iteration order
    of each request's id set."""
    runs = []
    for handle in (partial(digest_reference, proc), proc.on_message):
        proc.sent.clear()
        handle(1, TpDigest(known=known))
        runs.append(list(proc.sent))
    assert runs[0] == runs[1]
    return runs[1]


UNIVERSE = [(origin, seq) for origin in range(6) for seq in range(12)]


class TestDigestHandlerDifferential:
    def test_same_sends_as_the_reference(self):
        """Random digest/store pairs — equal, subset, superset, overlapping,
        disjoint — produce the identical send sequence."""
        rnd = random.Random(7)
        shapes = set()
        for _ in range(400):
            store_ids = rnd.sample(UNIVERSE, rnd.randint(0, 30))
            pick = rnd.random()
            if pick < 0.4:
                known_ids = store_ids
            elif pick < 0.6:
                known_ids = rnd.sample(store_ids, rnd.randint(0, len(store_ids)))
            elif pick < 0.8:
                known_ids = store_ids + rnd.sample(UNIVERSE, 5)
            else:
                known_ids = rnd.sample(UNIVERSE, rnd.randint(0, 30))
            known = frozenset(known_ids)
            shapes.add((known <= set(store_ids), set(store_ids) <= known))
            handled_like_the_reference(fresh_process(store_ids), known)
        assert len(shapes) == 4  # equal, subset, superset and neither

    def test_repeated_digests_against_an_unchanged_store(self):
        store_ids = random.Random(11).sample(UNIVERSE, 20)
        proc = fresh_process(store_ids, _ProbeCountingStore)
        proc._anti_entropy()
        proc._anti_entropy()
        [(_, first, _, _), (_, second, _, _)] = proc.sent
        assert first is second  # an unchanged store reuses its TpDigest
        assert first.known == frozenset(store_ids)
        agreeing = frozenset(reversed(store_ids))
        others = [frozenset(store_ids[:5]), agreeing | {(9, 0)}, frozenset()]
        for known in [agreeing, *others] * 3:
            handled_like_the_reference(proc, known)
        proc.sent.clear()
        proc._messages.probes = 0
        proc.on_message(1, TpDigest(known=agreeing))
        assert proc.sent == []
        assert proc._messages.probes == 0  # answered without a per-id walk
        proc._anti_entropy()
        assert proc.sent[-1][1] is first

    def test_a_store_that_grew_between_rounds(self):
        store_ids = random.Random(13).sample(UNIVERSE, 12)
        proc = fresh_process(store_ids[:10])
        proc._anti_entropy()
        old = proc.sent[-1][1]
        proc._messages[store_ids[10]] = f"v{store_ids[10]}"
        # received before the next round: the stale digest is not trusted
        pushed = handled_like_the_reference(proc, old.known)
        assert [payload.mid for _, payload, _, _ in pushed] == [store_ids[10]]
        proc._messages[store_ids[11]] = f"v{store_ids[11]}"
        proc.sent.clear()
        proc._anti_entropy()
        new = proc.sent[-1][1]
        assert new is not old
        assert new.known == frozenset(store_ids)
        assert handled_like_the_reference(proc, new.known) == []

    def test_stores_of_equal_size_but_different_content(self):
        ids = random.Random(17).sample(UNIVERSE, 16)
        a, b = fresh_process(ids[:12]), fresh_process(ids[4:])
        for proc in (a, b):
            proc._anti_entropy()  # both digests current, both of 12 ids
        digest_a = a.sent[-1][1]
        assert len(digest_a.known) == len(b._digest.known) == 12
        sends = handled_like_the_reference(b, digest_a.known)
        [(_, request, _, wanted), *pushes] = sends
        assert isinstance(request, TpRequest)
        assert set(wanted) == set(ids[:4])
        assert [payload.mid for _, payload, _, _ in pushes] == ids[12:]


class TestPinnedTrialWorkCounts:
    """The work one pinned two-phase KV trial does, counted exactly.

    The trial is the default-scale ``hot-key-storm`` trial 100 with a
    200-op schedule, the one ``test_determinism_golden`` pins by digest.
    Its anti-entropy rounds mostly find agreeing stores: a digest set is
    built once per store version a digest is sent or compared for, not
    once per round, and only 96 digests differ from the receiver's
    store and reach the per-id walks (two of them send a request).  Each
    applied write's clock is walked once: by the fused readiness check
    for a remote write, by the merge for the replica's own.
    """

    def test_counts(self, monkeypatch):
        import builtins

        import repro.protocols.twophase as twophase
        from repro.experiments.runner import current_scale
        from repro.kvstore.clocks import VectorClock
        from repro.kvstore.metrics import KVMetricsMonitor
        from repro.kvstore.replica import KVReplica
        from repro.kvstore.trial import run_kv_trial
        from repro.kvstore.workload import KVWorkloadParams
        from repro.scenario.registry import build_scenario

        counts = collections.Counter()
        versions = set()  # (process, store size) pairs a digest was needed for

        def count_calls(cls, name, key, note=None):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                if note is not None:
                    note(*args, **kwargs)
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        def note_version(proc):
            if proc._messages:  # every empty store shares one prebuilt digest
                versions.add((proc.pid, len(proc._messages)))

        def note_apply(monitor, pid, write, now):
            counts["remote applies"] += write.writer != pid

        def store_set(ids=()):
            counts["digest sets"] += isinstance(ids, dict)
            return builtins.frozenset(ids)

        def note_round(proc):
            counts["rounds"] += proc._rounds_done < proc.params.rounds

        def note_message(proc, sender, payload):
            if isinstance(payload, TpDigest):
                counts["digests"] += 1
                counts["walked digests"] += payload.known != proc._messages.keys()

        monkeypatch.setattr(twophase, "frozenset", store_set, raising=False)
        count_calls(TpDigest, "__init__", "digest objects")
        count_calls(TwoPhaseBroadcast, "_current_digest", "digest needs", note_version)
        count_calls(TwoPhaseBroadcast, "_anti_entropy", "ticks", note_round)
        count_calls(TwoPhaseBroadcast, "on_message", "messages", note_message)
        count_calls(TpRequest, "__init__", "requests")
        count_calls(KVReplica, "_ready", "ready")
        count_calls(VectorClock, "merge", "merges")
        count_calls(KVMetricsMonitor, "on_apply", "applies", note_apply)

        spec = build_scenario("hot-key-storm", current_scale("default"))
        workload = KVWorkloadParams(ops=200, surge_ops=60, keys=64, write_ratio=0.3)
        run_kv_trial(spec, "two-phase", 100, workload=workload)

        assert counts["rounds"] == 12_600 and counts["digests"] == 12_081
        assert counts["digest needs"] == counts["rounds"] + counts["digests"]
        # one set per store version, not one per round or digest
        assert counts["digest sets"] == len(versions) == 1_834
        assert counts["digest objects"] == counts["digest sets"]
        assert counts["walked digests"] == 96 and counts["requests"] == 2
        # one walk of each applied write's clock
        assert counts["ready"] == counts["remote applies"] == 2_378
        assert counts["merges"] == counts["applies"] - counts["remote applies"] == 82
