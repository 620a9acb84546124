"""Whole-stack determinism: identical seeds give identical executions.

Seeded reproducibility is a core property of the experiment harness —
any hidden global randomness or iteration-order dependence would silently
invalidate the figure regenerations.  These tests run full protocol
stacks twice per seed and require bit-identical accounting.
"""

import pytest

from repro.core.adaptive import AdaptiveBroadcast, AdaptiveParameters
from repro.core.knowledge import KnowledgeParameters
from repro.core.optimal import OptimalBroadcast
from repro.protocols.gossip import GossipBroadcast, GossipParameters
from repro.sim.monitors import BroadcastMonitor
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from tests.conftest import build_network

GRAPH = k_regular(12, 4)
CONFIG = Configuration.uniform(GRAPH, crash=0.02, loss=0.08)


def run_optimal(seed):
    network = build_network(CONFIG, ("det-opt", seed))
    monitor = BroadcastMonitor(GRAPH.n)
    nodes = [OptimalBroadcast(p, network, monitor, 0.95) for p in GRAPH.processes]
    network.start()
    mid = nodes[0].broadcast("x")
    network.sim.run_until_idle()
    return network.stats.snapshot(), monitor.delivery_count(mid)


def run_gossip(seed):
    network = build_network(CONFIG, ("det-gos", seed))
    monitor = BroadcastMonitor(GRAPH.n)
    nodes = [
        GossipBroadcast(p, network, monitor, 0.95, GossipParameters(rounds=4))
        for p in GRAPH.processes
    ]
    network.start()
    mid = nodes[0].broadcast("x")
    network.sim.run(until=8.0)
    return network.stats.snapshot(), monitor.delivery_count(mid)


def run_adaptive(seed):
    network = build_network(CONFIG, ("det-ada", seed))
    monitor = BroadcastMonitor(GRAPH.n)
    params = AdaptiveParameters(
        knowledge=KnowledgeParameters(delta=1.0, intervals=50, tick=1.0),
    )
    nodes = [
        AdaptiveBroadcast(p, network, monitor, 0.95, params)
        for p in GRAPH.processes
    ]
    network.start()
    network.sim.run(until=60.0)
    estimates = tuple(
        round(nodes[0].view.crash_probability(p), 12) for p in GRAPH.processes
    )
    return network.stats.snapshot(), estimates


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_optimal_replays_exactly(self, seed):
        assert run_optimal(seed) == run_optimal(seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gossip_replays_exactly(self, seed):
        assert run_gossip(seed) == run_gossip(seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_adaptive_replays_exactly(self, seed):
        assert run_adaptive(seed) == run_adaptive(seed)

    def test_different_seeds_differ(self):
        assert run_optimal(100) != run_optimal(101)

    def test_seeds_isolated_across_protocols(self):
        """Running one stack must not perturb another's stream."""
        solo = run_optimal(7)
        run_gossip(7)  # interleave another stack
        assert run_optimal(7) == solo
