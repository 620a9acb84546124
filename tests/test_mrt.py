"""Unit tests for the Maximum Reliability Tree (Algorithm 6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DisconnectedGraphError, UnknownProcessError
from repro.core.mrt import (
    link_weight,
    maximum_reliability_tree,
    reachable_processes,
)
from repro.topology.configuration import Configuration
from repro.topology.generators import clique, k_regular, ring
from repro.topology.graph import Graph
from repro.types import Link
from repro.util.rng import RandomSource
from tests.conformance.reference.graphs import random_connected
from tests.conformance.reference.optimality import (
    is_maximum_spanning_tree,
    kruskal_maximum_spanning_weight,
    tree_log_weight,
)


class TestLinkWeight:
    def test_formula(self, small_config):
        w = link_weight(small_config, Link.of(1, 2))
        assert w == pytest.approx((1 - 0.01) * (1 - 0.10) * (1 - 0.02))


class TestBasicStructure:
    def test_spans_all_processes(self, small_graph, small_config):
        tree = maximum_reliability_tree(small_graph, small_config, root=0)
        assert tree.size == small_graph.n
        assert set(tree.nodes) == set(small_graph.processes)

    def test_uses_graph_links_only(self, small_graph, small_config):
        tree = maximum_reliability_tree(small_graph, small_config, root=0)
        for link in tree.links():
            assert small_graph.has_link(link.u, link.v)

    def test_avoids_unreliable_link(self):
        """Triangle where one link is much worse: MRT must drop it."""
        g = clique(3)
        c = Configuration(g, loss={(0, 1): 0.5, (1, 2): 0.01, (0, 2): 0.01})
        tree = maximum_reliability_tree(g, c, root=0)
        assert Link.of(0, 1) not in tree.links()

    def test_keeps_direct_link_when_most_reliable(self):
        g = clique(3)
        c = Configuration(g, loss={(0, 2): 0.01, (0, 1): 0.3, (1, 2): 0.3})
        tree = maximum_reliability_tree(g, c, root=0)
        assert tree.parent(2) == 0
        assert Link.of(0, 2) in tree.links()

    def test_never_uses_a_link_that_always_loses(self):
        g = clique(3)
        c = Configuration(g, loss={(0, 2): 1.0, (0, 1): 0.2, (1, 2): 0.2})
        tree = maximum_reliability_tree(g, c, root=0)
        assert Link.of(0, 2) not in tree.links()
        assert tree.parent(2) == 1

    def test_crash_probability_influences_tree(self):
        """A flaky relay makes its links unattractive."""
        g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        c = Configuration(g, crash={1: 0.4}, loss={})
        tree = maximum_reliability_tree(g, c, root=0)
        assert tree.parent(3) == 2  # route around process 1

    def test_unknown_root(self, small_graph, small_config):
        with pytest.raises(UnknownProcessError):
            maximum_reliability_tree(small_graph, small_config, root=77)

    def test_disconnected_graph(self):
        g = Graph(4, [(0, 1)])
        c = Configuration.reliable(g)
        with pytest.raises(DisconnectedGraphError):
            maximum_reliability_tree(g, c, root=0)


class TestDeterminism:
    def test_same_inputs_same_tree(self, small_graph, small_config):
        a = maximum_reliability_tree(small_graph, small_config, root=2)
        b = maximum_reliability_tree(small_graph, small_config, root=2)
        assert a == b

    def test_uniform_config_ties_broken_consistently(self):
        """All-equal weights: any spanning tree is maximal, but every
        process must still derive the same edge set from the same view
        (Section 3.1's agreement requirement)."""
        g = k_regular(10, 4)
        c = Configuration.uniform(g, loss=0.1)
        trees = [
            maximum_reliability_tree(g, c, root=0) for _ in range(3)
        ]
        assert trees[0] == trees[1] == trees[2]


class TestMaximality:
    """Lemma 2 / Appendix C: the MRT is a maximum spanning tree."""

    def test_small_heterogeneous(self, small_graph, small_config):
        tree = maximum_reliability_tree(small_graph, small_config, root=0)
        assert is_maximum_spanning_tree(small_graph, small_config, tree)

    def test_root_choice_does_not_change_weight(self, small_graph, small_config):
        weights = set()
        for root in small_graph.processes:
            tree = maximum_reliability_tree(small_graph, small_config, root=root)
            weights.add(round(tree_log_weight(tree, small_config), 12))
        assert len(weights) == 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_graphs_match_kruskal(self, seed):
        rng = RandomSource("mrt-prop", seed)
        g = random_connected(10, 8, rng)
        c = Configuration.random_uniform(
            g, rng.child("cfg"), crash_range=(0.0, 0.2), loss_range=(0.0, 0.4)
        )
        tree = maximum_reliability_tree(g, c, root=0)
        assert tree_log_weight(tree, c) == pytest.approx(
            kruskal_maximum_spanning_weight(g, c), abs=1e-9
        )


class TestRestrictTo:
    def test_prunes_unrequested_branches(self):
        g = ring(8)
        c = Configuration.reliable(g)
        tree = maximum_reliability_tree(g, c, root=0, restrict_to=[0, 1, 2])
        assert tree.contains(1)
        assert tree.contains(2)
        # the tree should not span the far side of the ring
        assert tree.size < 8

    def test_keeps_required_intermediates(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        c = Configuration.reliable(g)
        tree = maximum_reliability_tree(g, c, root=0, restrict_to=[3])
        # reaching 3 requires 1 and 2 as intermediates
        assert set(tree.nodes) == {0, 1, 2, 3}

    def test_unreachable_restricted_target(self):
        g = Graph(4, [(0, 1), (2, 3)])
        c = Configuration.reliable(g)
        with pytest.raises(DisconnectedGraphError):
            maximum_reliability_tree(g, c, root=0, restrict_to=[3])


class TestReachableProcesses:
    def test_component(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        links = [Link.of(0, 1), Link.of(1, 2), Link.of(3, 4)]
        assert reachable_processes(g, links, 0) == {0, 1, 2}
        assert reachable_processes(g, links, 3) == {3, 4}

    def test_no_links(self):
        g = ring(4)
        assert reachable_processes(g, [], 2) == {2}
