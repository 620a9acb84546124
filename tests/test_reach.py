"""Unit tests for the reach function (Eq. 1 and Eq. 2)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.core.reach import log_reach, reach
from repro.core.tree import SpanningTree
from repro.topology.configuration import Configuration
from repro.topology.generators import line, random_tree, star
from repro.util.rng import RandomSource
from tests.conformance.reference.reach import reach_recursive


@pytest.fixture
def chain_config():
    g = line(3)
    return Configuration(
        g, crash={0: 0.0, 1: 0.1, 2: 0.0}, loss={(0, 1): 0.2, (1, 2): 0.3}
    )


@pytest.fixture
def chain_tree():
    return SpanningTree(0, {1: 0, 2: 1})


class TestReach:
    def test_single_copy(self, chain_tree, chain_config):
        lambdas = chain_tree.lambdas(chain_config)
        expected = (1 - lambdas[1]) * (1 - lambdas[2])
        assert reach(chain_tree, {1: 1, 2: 1}, chain_config) == pytest.approx(expected)

    def test_lambda_is_one_minus_hop_success(self, chain_tree, chain_config):
        # lambda_j = 1 - (1-P_parent)(1-L)(1-P_j); link 0-1: P_0=0, L=0.2, P_1=0.1
        lambdas = chain_tree.lambdas(chain_config)
        assert lambdas[1] == pytest.approx(1 - 1.0 * 0.8 * 0.9)
        assert lambdas[2] == pytest.approx(1 - 0.9 * 0.7 * 1.0)

    def test_copies_compound_per_link(self, chain_tree, chain_config):
        """Eq. 2 on a chain: each link fails only if all m_j copies fail."""
        lambdas = chain_tree.lambdas(chain_config)
        expected = (1 - lambdas[1] ** 2) * (1 - lambdas[2])
        assert reach(chain_tree, {1: 2, 2: 1}, chain_config) == pytest.approx(
            expected
        )

    def test_more_copies_help(self, chain_tree, chain_config):
        r1 = reach(chain_tree, {1: 1, 2: 1}, chain_config)
        r2 = reach(chain_tree, {1: 2, 2: 1}, chain_config)
        r3 = reach(chain_tree, {1: 2, 2: 2}, chain_config)
        assert r1 < r2 < r3

    def test_perfect_network(self, chain_tree):
        c = Configuration.reliable(line(3))
        assert reach(chain_tree, {1: 1, 2: 1}, c) == 1.0

    def test_zero_copies_gives_zero(self, chain_tree, chain_config):
        assert reach(chain_tree, {1: 0, 2: 1}, chain_config) == 0.0

    def test_single_node_tree(self, chain_config):
        t = SpanningTree(0, {})
        assert reach(t, {}, chain_config) == 1.0

    def test_missing_count_rejected(self, chain_tree, chain_config):
        with pytest.raises(ValidationError):
            reach(chain_tree, {1: 1}, chain_config)

    def test_negative_count_rejected(self, chain_tree, chain_config):
        with pytest.raises(ValidationError):
            reach(chain_tree, {1: -1, 2: 1}, chain_config)

    def test_non_integer_count_rejected(self, chain_tree, chain_config):
        with pytest.raises(ValidationError):
            reach(chain_tree, {1: 1.5, 2: 1}, chain_config)


class TestRecursiveEquivalence:
    """Eq. 1 (recursive) and Eq. 2 (iterative) are the same function."""

    def test_chain(self, chain_tree, chain_config):
        counts = {1: 3, 2: 2}
        assert reach(chain_tree, counts, chain_config) == pytest.approx(
            reach_recursive(chain_tree, counts, chain_config)
        )

    def test_star(self):
        g = star(5)
        c = Configuration.uniform(g, crash=0.05, loss=0.1)
        t = SpanningTree(0, {1: 0, 2: 0, 3: 0, 4: 0})
        counts = {1: 1, 2: 2, 3: 3, 4: 4}
        assert reach(t, counts, c) == pytest.approx(
            reach_recursive(t, counts, c)
        )

    @settings(max_examples=30)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 1000),
        loss=st.floats(0.0, 0.5),
        crash=st.floats(0.0, 0.3),
        data=st.data(),
    )
    def test_random_trees(self, n, seed, loss, crash, data):
        g = random_tree(n, RandomSource(seed))
        c = Configuration.uniform(g, crash=crash, loss=loss)
        t = SpanningTree.from_links(0, list(g.links))
        counts = {
            j: data.draw(st.integers(1, 5), label=f"m_{j}")
            for j in t.non_root_nodes
        }
        iterative = reach(t, counts, c)
        recursive = reach_recursive(t, counts, c)
        assert iterative == pytest.approx(recursive, rel=1e-12)
        assert 0.0 <= iterative <= 1.0


class TestLogReach:
    def test_matches_linear(self, chain_tree, chain_config):
        counts = {1: 2, 2: 3}
        assert math.exp(log_reach(chain_tree, counts, chain_config)) == pytest.approx(
            reach(chain_tree, counts, chain_config)
        )

    def test_zero_probability(self, chain_tree):
        g = line(3)
        c = Configuration(g, loss={(0, 1): 1.0, (1, 2): 0.0})
        assert log_reach(chain_tree, {1: 1, 2: 1}, c) == -math.inf
