"""Unit tests for the adaptive broadcast protocol (Section 4)."""


import pytest

from repro.analysis.convergence import (
    ConvergenceCriterion,
    estimate_errors,
    views_converged,
)
from repro.analysis.optimality import verify_adaptiveness
from repro.core.adaptive import AdaptiveBroadcast, AdaptiveParameters
from repro.core.knowledge import KnowledgeParameters
from repro.sim.monitors import BroadcastMonitor
from repro.sim.trace import MessageCategory
from repro.topology.configuration import Configuration
from repro.topology.generators import ring
from repro.types import Link
from tests.conformance.reference.knowledge import ProcessView
from tests.conftest import build_network


def deploy(config, k_target=0.95, seed=0, intervals=50, reference=False):
    """Wire and start one adaptive process per node.

    ``reference=True`` swaps every process's ``VectorView`` for the
    literal Algorithm 4 ``ProcessView`` before the network starts.
    """
    network = build_network(config, seed)
    monitor = BroadcastMonitor(config.graph.n)
    params = AdaptiveParameters(
        knowledge=KnowledgeParameters(delta=1.0, intervals=intervals, tick=1.0),
    )
    procs = [
        AdaptiveBroadcast(p, network, monitor, k_target, params)
        for p in config.graph.processes
    ]
    if reference:
        for proc in procs:
            proc.view = ProcessView(
                proc.pid, config.graph.n, proc.neighbors, params.knowledge
            )
    network.start()
    return network, monitor, procs


class TestKnowledgeActivity:
    def test_heartbeats_flow(self):
        config = Configuration.reliable(ring(6))
        network, _, procs = deploy(config)
        network.sim.run(until=5.0)
        assert network.stats.sent(MessageCategory.HEARTBEAT) > 0
        assert procs[0].heartbeats_sent >= 2 * 4  # 2 neighbours, >=4 rounds

    def test_topology_discovery(self):
        config = Configuration.reliable(ring(6))
        network, _, procs = deploy(config)
        network.sim.run(until=1.5)
        # after one round, each process knows its neighbours' links
        assert len(procs[0].view.known_links) >= 3
        network.sim.run(until=10.0)
        assert len(procs[0].view.known_links) == 6

    def test_estimates_improve_over_time(self):
        config = Configuration.uniform(ring(6), loss=0.1)
        network, _, procs = deploy(config, seed=3)
        network.sim.run(until=5.0)
        early = estimate_errors(procs[0].view, config)
        network.sim.run(until=220.0)
        late = estimate_errors(procs[0].view, config)
        assert late["link_mae"] < early["link_mae"]

    def test_self_estimate_converges_to_crash_probability(self):
        config = Configuration.uniform(ring(4), crash=0.1)
        network, _, procs = deploy(config, seed=5, intervals=100)
        network.sim.run(until=800.0)
        assert procs[1].view.crash_probability(1) == pytest.approx(0.1, abs=0.05)

    def test_reliable_system_converges_to_zero_estimates(self):
        config = Configuration.reliable(ring(5))
        network, _, procs = deploy(config, seed=1, intervals=100)
        network.sim.run(until=300.0)
        view = procs[0].view
        assert view.crash_probability(0) < 0.02
        assert view.loss_probability(Link.of(0, 1)) < 0.02


class TestConvergence:
    def test_global_convergence_reliable(self):
        config = Configuration.reliable(ring(5))
        network, _, procs = deploy(config, seed=2, intervals=100)
        network.sim.run(until=400.0)
        views = [p.view for p in procs]
        assert views_converged(views, config, ConvergenceCriterion())

    def test_global_convergence_lossy(self):
        config = Configuration.uniform(ring(5), loss=0.05)
        network, _, procs = deploy(config, seed=2, intervals=100)
        network.sim.run(until=1500.0)
        views = [p.view for p in procs]
        assert views_converged(
            views, config, ConvergenceCriterion(point_tolerance=0.03)
        )

    def test_object_and_vector_converge_alike(self):
        """Both views drive the protocol to convergence."""
        config = Configuration.reliable(ring(4))
        for reference in (False, True):
            network, _, procs = deploy(config, seed=7, reference=reference)
            network.sim.run(until=200.0)
            errors = estimate_errors(procs[0].view, config)
            assert errors["link_mae"] < 0.03, reference
            assert errors["known_links"] == 4.0, reference


class TestBroadcastActivity:
    def test_broadcast_before_any_knowledge(self):
        """A broadcast at t=0 spans only the sender's direct component."""
        config = Configuration.reliable(ring(6))
        network, monitor, procs = deploy(config)
        mid = procs[0].broadcast("early")
        network.sim.run(until=0.5)
        # only neighbours reachable through known links
        assert monitor.delivery_count(mid) <= 3

    def test_broadcast_after_learning_reaches_everyone(self):
        config = Configuration.reliable(ring(6))
        network, monitor, procs = deploy(config)
        network.sim.run(until=20.0)
        mid = procs[0].broadcast("later")
        network.sim.run(until=25.0)
        assert monitor.fully_delivered(mid)

    def test_plan_spans_known_component_only(self):
        config = Configuration.reliable(ring(6))
        network, _, procs = deploy(config)
        tree = procs[0].plan_tree()
        assert tree.size == 3  # only the direct neighbourhood is known
        network.sim.run(until=20.0)
        tree = procs[0].plan_tree()
        assert tree.size == 6

    def test_adaptiveness_definition2(self):
        """After convergence the adaptive plan matches the optimal plan
        (Definition 2), up to a small estimate-noise tolerance."""
        config = Configuration.uniform(ring(6), loss=0.05)
        network, _, procs = deploy(config, seed=4, intervals=100)
        network.sim.run(until=1200.0)
        result = verify_adaptiveness(
            config.graph,
            config,
            procs[0].view,
            root=0,
            k_target=0.95,
            count_tolerance=3,
        )
        assert abs(result["adaptive_messages"] - result["optimal_messages"]) <= 3

    def test_heartbeat_and_data_accounted_separately(self):
        config = Configuration.reliable(ring(5))
        network, _, procs = deploy(config)
        network.sim.run(until=10.0)
        heartbeats_before = network.stats.sent(MessageCategory.HEARTBEAT)
        procs[0].broadcast("x")
        network.sim.run(until=12.0)
        assert network.stats.sent(MessageCategory.DATA) >= 4
        assert network.stats.sent(MessageCategory.HEARTBEAT) >= heartbeats_before


class TestCrashIntegration:
    def test_iid_crashes_do_not_stop_convergence(self):
        config = Configuration.uniform(ring(5), crash=0.05)
        network, _, procs = deploy(config, seed=6, intervals=100)
        network.sim.run(until=900.0)
        view = procs[0].view
        # self estimate approaches P
        assert view.crash_probability(0) == pytest.approx(0.05, abs=0.04)

    def test_markov_recovery_records_downtime(self):
        config = Configuration.uniform(ring(4), crash=0.3)
        network = build_network(config, 11, crash_model="markov",
                                markov_mean_down_ticks=4.0)
        monitor = BroadcastMonitor(4)
        params = AdaptiveParameters(
            knowledge=KnowledgeParameters(delta=1.0, intervals=50, tick=1.0)
        )
        procs = [
            AdaptiveBroadcast(p, network, monitor, 0.95, params)
            for p in config.graph.processes
        ]
        network.start()
        network.sim.run(until=400.0)
        # with P=0.3 every process must have crashed at least once and its
        # self-estimate moved off the uniform prior mean of 0.5
        assert procs[0].view.crash_probability(0) != pytest.approx(0.5, abs=0.01)
