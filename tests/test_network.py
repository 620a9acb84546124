"""Unit tests for the network substrate (links, delivery, accounting)."""

import numpy as np
import pytest
from numpy.random import bit_generator

from repro.errors import SimulationError, UnknownLinkError, ValidationError
from repro.sim.link import LatencyModel, LossyLinkLayer
from repro.sim.process import SimProcess
from repro.sim.trace import DropReason, MessageCategory
from repro.topology.configuration import Configuration
from repro.topology.generators import line, ring
from repro.types import Link
from repro.util.rng import DrawLedger, RandomSource, StreamBatch, ledger_scope
from tests.conftest import build_network


class Recorder(SimProcess):
    """Test process capturing everything it receives."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append((sender, payload, self.now))


def wire(config, seed=0, **options):
    network = build_network(config, seed, **options)
    procs = [Recorder(p, network) for p in config.graph.processes]
    network.start()
    return network, procs


class TestLatencyModel:
    def test_constant(self):
        model = LatencyModel(base=0.2, jitter=0.0)
        assert model.sample(RandomSource(1)) == 0.2

    def test_jitter_range(self):
        model = LatencyModel(base=0.1, jitter=0.5)
        rng = RandomSource(1)
        for _ in range(100):
            value = model.sample(rng)
            assert 0.1 <= value < 0.6

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            LatencyModel(base=-1.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"base": float("nan")},
            {"base": float("inf")},
            {"jitter": float("nan")},
            {"jitter": float("inf")},
            {"base": True},
        ],
    )
    def test_non_finite_or_bool_rejected(self, fields):
        """Deliveries are pushed at ``now + latency`` unchecked, so a bad
        field must fail at construction, not sit in the heap."""
        with pytest.raises(ValidationError):
            LatencyModel(**fields)


class TestLossyLinkLayer:
    def test_lossless(self):
        g = line(3)
        layer = LossyLinkLayer(Configuration.reliable(g), RandomSource(1))
        assert all(layer.transmit(0, 1) for _ in range(100))

    def test_total_loss(self):
        g = line(3)
        c = Configuration.uniform(g, loss=1.0)
        layer = LossyLinkLayer(c, RandomSource(1))
        assert not any(layer.transmit(0, 1) for _ in range(50))

    def test_empirical_loss_rate(self):
        g = line(2)
        c = Configuration.uniform(g, loss=0.3)
        layer = LossyLinkLayer(c, RandomSource(2))
        passed = sum(layer.transmit(0, 1) for _ in range(20_000))
        assert 0.68 < passed / 20_000 < 0.72

    def test_unknown_link(self):
        g = line(3)
        layer = LossyLinkLayer(Configuration.reliable(g), RandomSource(1))
        with pytest.raises(UnknownLinkError):
            layer.transmit(0, 2)


def _mixed_loss(graph):
    """Links cycle through lossless, lossy, always lost and lossy."""
    levels = (0.0, 0.35, 1.0, 0.6)
    return Configuration(
        graph, loss={link: levels[i % 4] for i, link in enumerate(graph.links)}
    )


def _drive(layer, graph, rounds=6):
    """Transmit ``rounds`` times over every link, alternating direction."""
    return [
        layer.transmit(*(link if r % 2 else reversed(link)))
        for r in range(rounds)
        for link in graph.links
    ]


class TestLinkLossStreams:
    """The layer's batch-seeded loss streams are the per-link child streams."""

    def test_outcomes_and_ledger_equal_child_streams(self):
        graph = ring(10).with_links([(0, 5), (2, 7)])
        config = _mixed_loss(graph)

        def reference(root, link):
            loss = config.loss_probability(link)
            if not 0.0 < loss < 1.0:
                return lambda: loss <= 0.0
            idx = graph.link_id(link)
            stream = root.child("link-layer").child("loss", idx).buffered()
            return lambda: stream.next() >= loss

        runs = []
        for batched in (True, False):
            ledger = DrawLedger()
            with ledger_scope(ledger):
                root = RandomSource("scenario", 4).child("network")
                if batched:
                    outcomes = _drive(LossyLinkLayer(config, root), graph)
                else:
                    draws = {link: reference(root, link) for link in graph.links}
                    outcomes = [draws[link]() for _ in range(6) for link in graph.links]
            runs.append((outcomes, ledger.as_dict()))
        assert runs[0] == runs[1]
        keys = runs[0][1]
        assert len(keys) == sum(0 < p < 1 for p in config.loss_vector)
        assert set(keys.values()) == {6}

    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"default_rng": 0, "batch": 0}

        def counting(key, owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting("default_rng", np.random, "default_rng")
        counting("batch", StreamBatch, "__init__")
        return counts

    def test_one_batch_and_no_default_rng(self, counters):
        graph = ring(12)
        layer = LossyLinkLayer(_mixed_loss(graph), RandomSource(3))
        _drive(layer, graph)
        assert counters == {"default_rng": 0, "batch": 1}
        streams = {id(draw) for _, draw in layer._cache.values() if draw is not None}
        assert len(streams) == 6  # the lossy half of 12 links, one per link
        for _, draw in layer._cache.values():
            if draw is not None:
                # PCG64 builds its SeedSequence in compiled code, out of reach
                # of a patch: the guard is that no drawn stream holds one
                seed_seq = draw._generator.bit_generator.seed_seq
                assert not isinstance(seed_seq, bit_generator.SeedSequence)

    @pytest.mark.parametrize(
        "config, transmit",
        [
            (_mixed_loss(ring(12)), False),
            (Configuration.reliable(ring(12)), True),
            (Configuration.uniform(ring(12), loss=1.0), True),
        ],
    )
    def test_no_batch_without_a_lossy_transmission(self, counters, config, transmit):
        layer = LossyLinkLayer(config, RandomSource(3))
        if transmit:
            _drive(layer, config.graph)
        assert counters["batch"] == 0


class TestNetworkDelivery:
    def test_reliable_delivery(self):
        network, procs = wire(Configuration.reliable(ring(4)))
        network.send(0, 1, "hello")
        network.sim.run()
        assert procs[1].received == [(0, "hello", pytest.approx(0.1))]

    def test_send_requires_link(self):
        network, _ = wire(Configuration.reliable(ring(5)))
        with pytest.raises(UnknownLinkError):
            network.send(0, 2, "x")

    def test_loss_drops_message(self):
        config = Configuration.uniform(line(2), loss=1.0)
        network, procs = wire(config)
        assert network.send(0, 1, "x") is False
        network.sim.run()
        assert procs[1].received == []
        assert network.stats.dropped(DropReason.LINK_LOSS) == 1
        assert network.stats.sent() == 1  # still counted as sent

    def test_sender_crash_drops(self):
        config = Configuration.uniform(line(2), crash=1.0)
        network, procs = wire(config)
        assert network.send(0, 1, "x") is False
        network.sim.run()
        assert network.stats.dropped(DropReason.SENDER_CRASH) == 1

    def test_empirical_success_rate_matches_model(self):
        """Delivery rate ~= (1-P)(1-L)(1-P) — the reach formula's lambda."""
        config = Configuration.uniform(line(2), crash=0.1, loss=0.2)
        network, procs = wire(config, seed=7)
        trials = 20_000
        for _ in range(trials):
            network.send(0, 1, "x")
        network.sim.run()
        expected = (1 - 0.1) * (1 - 0.2) * (1 - 0.1)
        rate = len(procs[1].received) / trials
        assert abs(rate - expected) < 0.01

    def test_broadcast_to_neighbors(self):
        network, procs = wire(Configuration.reliable(ring(5)))
        count = network.broadcast_to_neighbors(0, "hi")
        network.sim.run()
        assert count == 2
        assert len(procs[1].received) == 1
        assert len(procs[4].received) == 1

    def test_category_accounting(self):
        network, _ = wire(Configuration.reliable(ring(4)))
        network.send(0, 1, "d", MessageCategory.DATA)
        network.send(0, 1, "h", MessageCategory.HEARTBEAT)
        network.send(0, 1, "h2", MessageCategory.HEARTBEAT)
        network.sim.run()
        assert network.stats.sent(MessageCategory.DATA) == 1
        assert network.stats.sent(MessageCategory.HEARTBEAT) == 2
        assert network.stats.delivered() == 3

    def test_per_link_accounting(self):
        network, _ = wire(Configuration.reliable(ring(4)))
        network.send(0, 1, "a")
        network.send(1, 0, "b")
        network.send(1, 2, "c")
        network.sim.run()
        assert network.stats.sent_on(Link.of(0, 1)) == 2
        assert network.stats.sent_on(Link.of(1, 2)) == 1


class TestNetworkWiring:
    def test_duplicate_registration(self):
        network = build_network(Configuration.reliable(ring(3)))
        Recorder(0, network)
        with pytest.raises(SimulationError):
            Recorder(0, network)

    def test_out_of_range_pid(self):
        network = build_network(Configuration.reliable(ring(3)))
        with pytest.raises(ValidationError):
            Recorder(7, network)

    def test_start_requires_all_processes(self):
        network = build_network(Configuration.reliable(ring(3)))
        Recorder(0, network)
        with pytest.raises(SimulationError):
            network.start()

    def test_double_start(self):
        network, _ = wire(Configuration.reliable(ring(3)))
        with pytest.raises(SimulationError):
            network.start()

    def test_processes_listing(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        assert [p.pid for p in network.processes] == [0, 1, 2]
        assert network.process(1) is procs[1]

    def test_stats_snapshot_keys(self):
        network, _ = wire(Configuration.reliable(ring(3)))
        network.send(0, 1, "x")
        network.sim.run()
        snap = network.stats.snapshot()
        assert snap["sent_total"] == 1
        assert snap["delivered_total"] == 1

    def test_deterministic_given_seed(self):
        config = Configuration.uniform(ring(6), loss=0.3)

        def run(seed):
            network, procs = wire(config, seed=seed)
            for _ in range(50):
                network.broadcast_to_neighbors(0, "x")
            network.sim.run()
            return [len(p.received) for p in procs]

        assert run(3) == run(3)
        assert run(3) != run(4)
