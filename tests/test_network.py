"""Unit tests for the network substrate (links, delivery, accounting)."""

import numpy as np
import pytest
from numpy.random import bit_generator

from repro.errors import SimulationError, UnknownLinkError, ValidationError
from repro.sim.crash import IidCrashModel, MarkovCrashModel, NoCrashModel
from repro.sim.link import LatencyModel, LossyLinkLayer
from repro.sim.process import SimProcess
from repro.sim.trace import DropReason, MessageCategory
from repro.topology.configuration import Configuration
from repro.topology.generators import line, ring
from repro.types import Link
from repro.util.rng import DrawLedger, RandomSource, StreamBatch, ledger_scope
from tests.conftest import build_network, cyclic_garbage


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


class Ticker(Recorder):
    """A process with a sending periodic chain and one not yet due."""

    def on_start(self):
        self.set_periodic(1.0, "tick", lambda: self.send(self.neighbors[0], "t"))
        self.set_periodic(50.0, "later", lambda: None)


class TestNetworkClose:
    def test_close_frees_the_run_without_the_cyclic_collector(self):
        def run():
            network = build_network(
                Configuration.uniform(ring(4), loss=0.2, crash=0.1),
                crash_model="markov",
            )
            procs = [Ticker(p, network) for p in range(4)]
            network.start()
            network.sim.run(until=5.5)
            assert any(p.received for p in procs)
            network.close()

        assert cyclic_garbage(run) == []

    def test_no_timer_and_nothing_queued_after_close(self):
        network = build_network(Configuration.reliable(ring(3)))
        procs = [Ticker(p, network) for p in range(3)]
        network.start()
        network.sim.run(until=2.5)
        network.send(1, 2, "y")  # in flight when the run ends: never recorded
        sent = network.stats.sent()
        network.close()
        assert not any(p.timer_active("later") for p in procs)
        assert [p._timers for p in procs] == [{}] * 3
        assert network.sim.pending_events == 0
        assert network.processes == []
        assert network.stats.sent() == network.stats.delivered() == sent

    def test_close_is_idempotent(self):
        network, _ = wire(Configuration.reliable(ring(3)))
        network.close()
        network.close()
        assert network.processes == [] and network.sim.pending_events == 0

    def test_close_drops_the_markov_hooks(self):
        network, procs = wire(
            Configuration.uniform(ring(4), crash=0.3), crash_model="markov"
        )
        assert isinstance(network.crash_model, MarkovCrashModel)
        network.close()
        assert isinstance(network.crash_model, NoCrashModel)


class TestCrashModelKinds:
    """The network builds each crash model kind itself (there is no factory)."""

    def test_kinds(self):
        config = Configuration.uniform(ring(3), crash=0.1)

        def model(kind):
            return build_network(config, crash_model=kind).crash_model

        assert isinstance(model("none"), NoCrashModel)
        assert isinstance(model("iid"), IidCrashModel)
        assert isinstance(model("markov"), MarkovCrashModel)
        with pytest.raises(ValidationError, match="unknown crash model"):
            model("bogus")

    def test_unknown_kind_rejected_on_a_crash_free_configuration(self):
        """Checked before the all-zero shortcut: a crash-free configuration
        must not hide a typo until a reconfiguration brings crashes."""
        with pytest.raises(ValidationError, match="unknown crash model"):
            build_network(Configuration.reliable(ring(3)), crash_model="bogus")
