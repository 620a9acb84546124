"""Unit tests for the greedy optimize() (Algorithm 2, Appendix D)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnreachableTargetError, ValidationError
from repro.core.optimize import gain, optimize
from repro.core.reach import reach
from repro.core.tree import SpanningTree
from repro.topology.configuration import Configuration
from repro.topology.generators import line, random_tree, star
from repro.util.rng import RandomSource
from tests.conformance.reference.optimize import (
    optimize_bruteforce,
    optimize_for_budget,
)


def chain_tree(n):
    return SpanningTree(0, {i: i - 1 for i in range(1, n)})


class TestGain:
    def test_first_extra_copy(self):
        # going from 1 to 2 copies with lambda=0.5: (1-0.25)/(1-0.5) = 1.5
        assert gain(0.5, 1) == pytest.approx(1.5)

    def test_isotonic(self):
        """Lemma 4: the gain never increases with m."""
        for lam in (0.1, 0.5, 0.9, 0.99):
            gains = [gain(lam, m) for m in range(1, 20)]
            assert all(a >= b for a, b in zip(gains, gains[1:]))
            assert all(g >= 1.0 for g in gains)

    def test_perfect_link(self):
        assert gain(0.0, 1) == 1.0

    def test_zero_copies(self):
        assert gain(0.5, 0) == float("inf")


class TestOptimizeBasics:
    def test_reaches_target(self):
        g = line(4)
        c = Configuration.uniform(g, loss=0.2)
        t = chain_tree(4)
        result = optimize(t, 0.99, c)
        assert result.achieved >= 0.99
        assert reach(t, result.counts, c) == pytest.approx(result.achieved)

    def test_minimal_vector_when_already_enough(self):
        g = line(3)
        c = Configuration.uniform(g, loss=0.0001)
        t = chain_tree(3)
        result = optimize(t, 0.99, c)
        assert result.counts == {1: 1, 2: 1}
        assert result.increments == 0
        assert result.total_messages == 2

    def test_perfect_links_single_copies(self):
        g = line(5)
        c = Configuration.reliable(g)
        t = chain_tree(5)
        result = optimize(t, 0.999999, c)
        assert all(m == 1 for m in result.counts.values())

    def test_single_node_tree(self):
        t = SpanningTree(0, {})
        c = Configuration.reliable(line(2))
        result = optimize(t, 0.9, c)
        assert result.counts == {}
        assert result.achieved == 1.0

    def test_total_matches_sum(self):
        g = line(4)
        c = Configuration.uniform(g, loss=0.3)
        result = optimize(chain_tree(4), 0.999, c)
        assert result.total_messages == sum(result.counts.values())

    def test_unreliable_links_get_more_copies(self):
        """The greedy should spend copies where lambda is worst."""
        g = star(3)
        c = Configuration(g, loss={(0, 1): 0.01, (0, 2): 0.4})
        t = SpanningTree(0, {1: 0, 2: 0})
        result = optimize(t, 0.999, c)
        assert result.counts[2] > result.counts[1]

    def test_invalid_k(self):
        t = chain_tree(3)
        c = Configuration.uniform(line(3), loss=0.1)
        with pytest.raises(ValidationError):
            optimize(t, 0.0, c)
        with pytest.raises(ValidationError):
            optimize(t, 1.0, c)

    def test_unreachable_node(self):
        g = line(3)
        c = Configuration(g, loss={(0, 1): 1.0, (1, 2): 0.0})
        with pytest.raises(UnreachableTargetError):
            optimize(chain_tree(3), 0.9, c)

    def test_cap_exceeded(self):
        g = line(2)
        c = Configuration.uniform(g, loss=0.99)
        with pytest.raises(UnreachableTargetError):
            optimize(chain_tree(2), 0.999999, c, max_total=10)

    def test_deterministic(self):
        g = line(5)
        c = Configuration.uniform(g, loss=0.25)
        a = optimize(chain_tree(5), 0.999, c)
        b = optimize(chain_tree(5), 0.999, c)
        assert a.counts == b.counts


class TestGreedyOptimality:
    """Theorem 2: greedy solves Eq. 3 — cross-checked by enumeration."""

    def test_matches_bruteforce_uniform(self):
        g = line(4)
        c = Configuration.uniform(g, loss=0.3)
        t = chain_tree(4)
        greedy = optimize(t, 0.95, c)
        brute = optimize_bruteforce(t, 0.95, c)
        assert greedy.total_messages == brute.total_messages

    def test_matches_bruteforce_heterogeneous(self):
        g = star(4)
        c = Configuration(
            g, loss={(0, 1): 0.05, (0, 2): 0.3, (0, 3): 0.5}
        )
        t = SpanningTree(0, {1: 0, 2: 0, 3: 0})
        for k in (0.9, 0.99, 0.999):
            greedy = optimize(t, k, c)
            # the enumeration cap must cover anything greedy might pick,
            # otherwise brute force is artificially worse
            cap = max(greedy.counts.values()) + 2
            brute = optimize_bruteforce(t, k, c, max_per_link=cap)
            assert greedy.total_messages == brute.total_messages, k

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.sampled_from([0.9, 0.95, 0.99]),
    )
    def test_random_small_trees(self, seed, k):
        rng = RandomSource("opt-prop", seed)
        n = 2 + rng.integer(4)  # 2..5 nodes -> <=4 links
        g = random_tree(n, rng.child("tree"))
        c = Configuration.random_uniform(
            g, rng.child("cfg"), crash_range=(0.0, 0.15), loss_range=(0.0, 0.4)
        )
        t = SpanningTree.from_links(0, list(g.links))
        greedy = optimize(t, k, c)
        cap = max(greedy.counts.values()) + 2
        brute = optimize_bruteforce(t, k, c, max_per_link=cap)
        assert greedy.total_messages == brute.total_messages
        assert greedy.achieved >= k

    def test_bruteforce_too_many_links(self):
        g = line(9)
        c = Configuration.uniform(g, loss=0.1)
        with pytest.raises(ValidationError):
            optimize_bruteforce(chain_tree(9), 0.9, c)

    def test_bruteforce_unreachable(self):
        g = line(2)
        c = Configuration.uniform(g, loss=0.9)
        with pytest.raises(UnreachableTargetError):
            optimize_bruteforce(chain_tree(2), 0.99999, c, max_per_link=2)


class TestBudgetDual:
    """Lemma 3: the budgeted dual (Eq. 5) is equivalent."""

    def test_budget_equals_primal_total(self):
        """Running the dual with the primal's optimal budget must achieve
        at least the primal's reach (problem equivalence)."""
        g = line(4)
        c = Configuration.uniform(g, loss=0.3)
        t = chain_tree(4)
        primal = optimize(t, 0.95, c)
        dual = optimize_for_budget(t, primal.total_messages, c)
        assert dual.total_messages == primal.total_messages
        assert dual.achieved >= 0.95

    def test_budget_below_minimal_rejected(self):
        g = line(4)
        c = Configuration.uniform(g, loss=0.1)
        with pytest.raises(ValidationError):
            optimize_for_budget(chain_tree(4), 2, c)

    def test_monotone_in_budget(self):
        g = line(4)
        c = Configuration.uniform(g, loss=0.3)
        t = chain_tree(4)
        reaches = [
            optimize_for_budget(t, budget, c).achieved for budget in range(3, 12)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(reaches, reaches[1:]))

    def test_budget_spent_fully_when_useful(self):
        g = line(3)
        c = Configuration.uniform(g, loss=0.4)
        result = optimize_for_budget(chain_tree(3), 10, c)
        assert result.total_messages == 10
