"""Unit tests for the flooding and two-phase baselines."""

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


class TestDigestHandlerDifferential:
    def test_same_sends_as_the_reference(self):
        """Random digest/store pairs — equal, subset, superset, overlapping,
        disjoint — produce the identical send sequence, down to the
        iteration order of each request's id set."""
        _, _, procs = deploy_twophase(Configuration.reliable(line(2)))
        proc = procs[0]
        rnd = random.Random(7)
        universe = [(origin, seq) for origin in range(6) for seq in range(12)]
        shapes = set()
        for _ in range(400):
            store_ids = rnd.sample(universe, rnd.randint(0, 30))
            pick = rnd.random()
            if pick < 0.4:
                known_ids = store_ids
            elif pick < 0.6:
                known_ids = rnd.sample(store_ids, rnd.randint(0, len(store_ids)))
            elif pick < 0.8:
                known_ids = store_ids + rnd.sample(universe, 5)
            else:
                known_ids = rnd.sample(universe, rnd.randint(0, 30))
            known = frozenset(known_ids)
            shapes.add((known <= set(store_ids), set(store_ids) <= known))

            runs = []
            for handle in (proc.on_message, partial(digest_reference, proc)):
                sent = []
                proc._messages = {mid: f"v{mid}" for mid in store_ids}
                proc.send = lambda q, payload, category: sent.append(
                    (q, payload, category, tuple(getattr(payload, "wanted", ())))
                )
                handle(1, TpDigest(known=known))
                runs.append(sent)
            assert runs[0] == runs[1]
        assert len(shapes) == 4  # equal, subset, superset and neither
