"""Unit tests for rooted spanning trees."""

import pytest

from repro.errors import TreeError
from repro.core.tree import SpanningTree
from repro.topology.configuration import Configuration
from repro.topology.generators import line, ring
from repro.types import Link


@pytest.fixture
def sample_tree():
    r"""Tree:      0
                / | \
               1  2  3
              /       \
             4         5
    """
    return SpanningTree(0, {1: 0, 2: 0, 3: 0, 4: 1, 5: 3})


class TestConstruction:
    def test_basic(self, sample_tree):
        assert sample_tree.root == 0
        assert sample_tree.size == 6
        assert sample_tree.children(0) == (1, 2, 3)
        assert sample_tree.parent(4) == 1

    def test_root_cannot_have_parent(self):
        with pytest.raises(TreeError):
            SpanningTree(0, {0: 1})

    def test_self_parent_rejected(self):
        with pytest.raises(TreeError):
            SpanningTree(0, {1: 1})

    def test_unknown_parent_rejected(self):
        with pytest.raises(TreeError):
            SpanningTree(0, {1: 9})

    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            SpanningTree(0, {1: 2, 2: 1})

    def test_single_node_tree(self):
        t = SpanningTree(7, {})
        assert t.size == 1
        assert t.non_root_nodes == ()
        assert t.leaves() == [7]


class TestStructureQueries:
    def test_bfs_order(self, sample_tree):
        assert sample_tree.nodes == (0, 1, 2, 3, 4, 5)
        assert sample_tree.non_root_nodes == (1, 2, 3, 4, 5)

    def test_parent_of_root_raises(self, sample_tree):
        with pytest.raises(TreeError):
            sample_tree.parent(0)

    def test_unknown_node(self, sample_tree):
        with pytest.raises(TreeError):
            sample_tree.parent(42)
        with pytest.raises(TreeError):
            sample_tree.children(42)
        assert not sample_tree.contains(42)

    def test_link_to(self, sample_tree):
        assert sample_tree.link_to(4) == Link.of(1, 4)
        assert sample_tree.link_to(3) == Link.of(0, 3)

    def test_links_cover_non_roots(self, sample_tree):
        assert len(sample_tree.links()) == 5

    def test_bfs_order_is_level_order(self, sample_tree):
        def depth(p):
            return 0 if p == sample_tree.root else 1 + depth(sample_tree.parent(p))

        depths = [depth(p) for p in sample_tree.nodes]
        assert depths == [0, 1, 1, 1, 2, 2]

    def test_leaves(self, sample_tree):
        assert set(sample_tree.leaves()) == {2, 4, 5}

    def test_equality_and_hash(self, sample_tree):
        same = SpanningTree(0, {1: 0, 2: 0, 3: 0, 4: 1, 5: 3})
        different = SpanningTree(0, {1: 0, 2: 0, 3: 0, 4: 1, 5: 1})
        assert sample_tree == same
        assert hash(sample_tree) == hash(same)
        assert sample_tree != different


class TestLambdas:
    def test_values(self):
        g = line(3)
        c = Configuration(
            g, crash={0: 0.1, 1: 0.2, 2: 0.0}, loss={(0, 1): 0.3, (1, 2): 0.4}
        )
        t = SpanningTree(0, {1: 0, 2: 1})
        lambdas = t.lambdas(c)
        assert lambdas[1] == pytest.approx(1 - 0.9 * 0.7 * 0.8)
        assert lambdas[2] == pytest.approx(1 - 0.8 * 0.6 * 1.0)

    def test_root_excluded(self, sample_tree):
        g = ring(6).with_links([(0, 2), (0, 3), (1, 4), (3, 5)])
        c = Configuration.reliable(g)
        assert 0 not in sample_tree.lambdas(c)


class TestFromLinks:
    def test_roundtrip(self, sample_tree):
        rebuilt = SpanningTree.from_links(0, sample_tree.links())
        assert rebuilt == sample_tree

    def test_bad_root(self):
        with pytest.raises(TreeError):
            SpanningTree.from_links(9, [Link.of(0, 1)])

    def test_non_tree_links(self):
        with pytest.raises(TreeError):
            SpanningTree.from_links(0, [Link.of(0, 1), Link.of(2, 3)])

    def test_reroot_preserves_edges(self, sample_tree):
        rerooted = SpanningTree.from_links(4, sample_tree.links())
        assert rerooted.root == 4
        assert set(rerooted.links()) == set(sample_tree.links())
        assert rerooted.parent(1) == 4
        assert rerooted.parent(0) == 1
