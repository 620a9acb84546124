"""Unit tests for optimality verification tools (Appendices C/D)."""

import math

import pytest

from repro.analysis.optimality import verify_adaptiveness
from repro.core.mrt import link_weight, maximum_reliability_tree
from repro.core.tree import SpanningTree
from repro.topology.configuration import Configuration
from repro.topology.generators import clique, ring
from repro.types import Link
from tests.conformance.reference.graphs import bfs_distances, random_connected
from tests.conformance.reference.optimality import (
    edge_dominance_bijection,
    is_maximum_spanning_tree,
    kruskal_maximum_spanning_weight,
    tree_log_weight,
)


class TestKruskalOracle:
    def test_simple_triangle(self):
        g = clique(3)
        c = Configuration(g, loss={(0, 1): 0.5, (0, 2): 0.1, (1, 2): 0.1})
        # max spanning tree uses the two 0.9-weight links
        expected = 2 * math.log(0.9)
        assert kruskal_maximum_spanning_weight(g, c) == pytest.approx(expected)

    def test_tree_log_weight(self):
        g = clique(3)
        c = Configuration(g, loss={(0, 1): 0.5, (0, 2): 0.1, (1, 2): 0.1})
        t = SpanningTree(0, {2: 0, 1: 2})
        assert tree_log_weight(t, c) == pytest.approx(2 * math.log(0.9))

    def test_zero_weight_tree(self):
        g = clique(3)
        c = Configuration(g, loss={(0, 1): 1.0, (0, 2): 0.0, (1, 2): 0.0})
        t = SpanningTree(0, {1: 0, 2: 0})  # uses the dead link 0-1
        assert tree_log_weight(t, c) == -math.inf


class TestIsMaximumSpanningTree:
    def test_mrt_passes(self, small_graph, small_config):
        tree = maximum_reliability_tree(small_graph, small_config, root=0)
        assert is_maximum_spanning_tree(small_graph, small_config, tree)

    def test_suboptimal_tree_fails(self):
        g = clique(3)
        c = Configuration(g, loss={(0, 1): 0.5, (0, 2): 0.1, (1, 2): 0.1})
        bad = SpanningTree(0, {1: 0, 2: 0})  # includes the 0.5-loss link
        assert not is_maximum_spanning_tree(g, c, bad)

    def test_partial_tree_fails(self):
        g = ring(5)
        c = Configuration.reliable(g)
        partial = SpanningTree(0, {1: 0})
        assert not is_maximum_spanning_tree(g, c, partial)


class TestEdgeDominance:
    def test_dominating(self):
        assert edge_dominance_bijection([0.9, 0.8], [0.8, 0.7])

    def test_equal(self):
        assert edge_dominance_bijection([0.5, 0.5], [0.5, 0.5])

    def test_not_dominating(self):
        assert not edge_dominance_bijection([0.9, 0.5], [0.8, 0.7])

    def test_length_mismatch(self):
        assert not edge_dominance_bijection([0.9], [0.9, 0.8])

    def test_mrt_dominates_any_spanning_tree(self, rng):
        """Appendix C's Lemma 2 core property, checked on random graphs."""
        g = random_connected(8, 6, rng)
        c = Configuration.random_uniform(
            g, rng.child("cfg"), loss_range=(0.0, 0.5)
        )
        mrt = maximum_reliability_tree(g, c, root=0)
        mrt_weights = [link_weight(c, link) for link in mrt.links()]
        # compare against a BFS spanning tree (arbitrary alternative)
        parent = {}
        dist = bfs_distances(g, 0)
        for p in g.processes:
            if p == 0:
                continue
            for q in g.neighbors(p):
                if dist[q] == dist[p] - 1:
                    parent[p] = q
                    break
        other = SpanningTree(0, parent)
        other_weights = [link_weight(c, link) for link in other.links()]
        assert edge_dominance_bijection(mrt_weights, other_weights)


class TestVerifyAdaptiveness:
    def test_perfect_knowledge_is_adaptive(self, small_graph, small_config):
        result = verify_adaptiveness(
            small_graph, small_config, small_config, root=0, k_target=0.99
        )
        assert result["adaptive"]
        assert result["same_tree"]
        assert result["optimal_messages"] == result["adaptive_messages"]

    def test_wrong_knowledge_is_not_adaptive(self, small_graph, small_config):
        wrong = small_config.with_loss({Link.of(0, 1): 0.9, Link.of(1, 2): 0.0})
        result = verify_adaptiveness(
            small_graph, small_config, wrong, root=0, k_target=0.999
        )
        assert not result["adaptive"]

    def test_count_tolerance(self, small_graph, small_config):
        # tiny perturbation: same tree, possibly ±1 message
        perturbed = small_config.with_loss({Link.of(4, 5): 0.21})
        result = verify_adaptiveness(
            small_graph,
            small_config,
            perturbed,
            root=0,
            k_target=0.99,
            count_tolerance=2,
        )
        assert result["same_tree"]
        assert result["adaptive"]
