"""Unit tests for topology generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.topology.generators import (
    clique,
    grid,
    k_regular,
    line,
    random_tree,
    ring,
    scale_free,
    small_world,
    star,
    two_tier,
)
from repro.util.rng import RandomSource
from tests.conformance.reference.graphs import random_connected


class TestRing:
    def test_structure(self):
        g = ring(5)
        assert g.n == 5
        assert g.link_count == 5
        assert all(g.degree(p) == 2 for p in g.processes)
        assert g.is_connected()

    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            ring(2)


class TestLineStarClique:
    def test_line(self):
        g = line(4)
        assert g.link_count == 3
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        with pytest.raises(ValidationError):
            line(1)

    def test_star(self):
        g = star(5, center=2)
        assert g.degree(2) == 4
        assert all(g.degree(p) == 1 for p in g.processes if p != 2)
        with pytest.raises(ValidationError):
            star(5, center=9)

    def test_clique(self):
        g = clique(5)
        assert g.link_count == 10
        assert all(g.degree(p) == 4 for p in g.processes)


class TestGrid:
    def test_plain(self):
        g = grid(2, 3)
        assert g.n == 6
        assert g.link_count == 7  # 3 vertical + 4 horizontal
        assert g.is_connected()

    def test_torus_degree(self):
        g = grid(3, 3, wrap=True)
        assert all(g.degree(p) == 4 for p in g.processes)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            grid(1, 1)


class TestKRegular:
    def test_ring_equivalence(self):
        assert k_regular(8, 2) == ring(8)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_degrees(self, k):
        g = k_regular(12, k)
        assert all(g.degree(p) == k for p in g.processes)
        assert g.is_connected()
        assert 2 * g.link_count / g.n == pytest.approx(k)

    def test_odd_k_rejected(self):
        with pytest.raises(ValidationError):
            k_regular(10, 3)

    def test_k_too_large(self):
        with pytest.raises(ValidationError):
            k_regular(6, 6)


class TestRandomTree:
    def test_is_tree(self, rng):
        for n in (2, 3, 10, 40):
            g = random_tree(n, rng.child(n))
            assert g.link_count == n - 1 and g.is_connected()

    def test_deterministic_per_seed(self):
        a = random_tree(20, RandomSource(5))
        b = random_tree(20, RandomSource(5))
        assert a == b
        c = random_tree(20, RandomSource(6))
        assert a != c

    @settings(max_examples=20)
    @given(n=st.integers(2, 30), seed=st.integers(0, 100))
    def test_tree_property(self, n, seed):
        g = random_tree(n, RandomSource(seed))
        assert g.link_count == n - 1
        assert g.is_connected()


class TestRandomConnected:
    def test_connected_with_extras(self, rng):
        g = random_connected(15, 10, rng)
        assert g.is_connected()
        assert g.link_count == 14 + 10

    def test_too_many_extras(self, rng):
        with pytest.raises(ValidationError):
            random_connected(4, 100, rng)


class TestSmallWorld:
    def test_beta_zero_is_regular(self, rng):
        assert small_world(12, 4, 0.0, rng) == k_regular(12, 4)

    def test_stays_connected(self, rng):
        g = small_world(20, 4, 0.3, rng)
        assert g.is_connected()
        assert g.n == 20

    def test_invalid_beta(self, rng):
        with pytest.raises(ValidationError):
            small_world(10, 2, 1.5, rng)


class TestScaleFree:
    def test_structure(self, rng):
        g = scale_free(30, 2, rng)
        assert g.is_connected()
        assert g.n == 30
        # preferential attachment should create at least one hub
        assert max(g.degree(p) for p in g.processes) >= 4

    def test_invalid(self, rng):
        with pytest.raises(ValidationError):
            scale_free(3, 3, rng)


class TestTwoTier:
    def test_structure(self):
        g, lan, wan = two_tier(3, 4)
        assert g.n == 12
        assert g.is_connected()
        # each cluster is a clique of 4: 6 links each
        assert len(lan) == 3 * 6
        assert len(wan) == 3  # ring over 3 gateways
        assert set(lan).isdisjoint(set(wan))

    def test_two_clusters_single_backbone(self):
        g, lan, wan = two_tier(2, 2)
        assert len(wan) == 1

    def test_thick_backbone_needs_rng(self):
        with pytest.raises(ValidationError):
            two_tier(4, 2, backbone_degree=2)

    def test_thick_backbone(self, rng):
        g, lan, wan = two_tier(6, 2, rng=rng, backbone_degree=3)
        assert len(wan) > 6
