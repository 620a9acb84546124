"""Cross-cutting property-based tests on the paper's core invariants."""


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.mrt import maximum_reliability_tree
from repro.core.optimize import gain, optimize
from repro.core.reach import reach
from repro.topology.configuration import Configuration
from repro.util.rng import RandomSource
from tests.conformance.reference.estimates import BeliefEstimator
from tests.conformance.reference.graphs import random_connected
from tests.conformance.reference.optimize import optimize_for_budget
from tests.conformance.reference.unionfind import UnionFind


def random_setup(seed, n_lo=3, n_hi=10):
    """Seeded random connected graph + heterogeneous configuration."""
    rng = RandomSource("prop", seed)
    n = n_lo + rng.integer(n_hi - n_lo + 1)
    max_extra = n * (n - 1) // 2 - (n - 1)
    extra = min(rng.integer(n), max_extra)
    graph = random_connected(n, extra, rng.child("g"))
    config = Configuration.random_uniform(
        graph, rng.child("c"), crash_range=(0.0, 0.2), loss_range=(0.0, 0.4)
    )
    return graph, config


class TestMrtInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_mrt_is_spanning_tree(self, seed):
        """Exactly n-1 links, no cycles, all processes covered."""
        graph, config = random_setup(seed)
        tree = maximum_reliability_tree(graph, config, root=0)
        links = tree.links()
        assert len(links) == graph.n - 1
        uf = UnionFind(range(graph.n))
        assert all(uf.union(link.u, link.v) for link in links)  # acyclic
        assert uf.set_count == 1  # spanning

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_mrt_root_invariant_edge_set(self, seed):
        """With distinct weights the MRT edge set is root-independent."""
        graph, config = random_setup(seed)
        base = set(maximum_reliability_tree(graph, config, root=0).links())
        other_root = graph.n - 1
        other = set(maximum_reliability_tree(graph, config, root=other_root).links())
        # random continuous weights are a.s. distinct -> unique MST
        assert base == other


class TestReachInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), data=st.data())
    def test_reach_in_unit_interval(self, seed, data):
        graph, config = random_setup(seed)
        tree = maximum_reliability_tree(graph, config, root=0)
        counts = {
            j: data.draw(st.integers(1, 4)) for j in tree.non_root_nodes
        }
        value = reach(tree, counts, config)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), data=st.data())
    def test_reach_monotone_in_counts(self, seed, data):
        """Adding a copy anywhere can only help."""
        graph, config = random_setup(seed)
        tree = maximum_reliability_tree(graph, config, root=0)
        counts = {j: data.draw(st.integers(1, 3)) for j in tree.non_root_nodes}
        base = reach(tree, counts, config)
        bump = data.draw(st.sampled_from(sorted(tree.non_root_nodes)))
        counts[bump] += 1
        assert reach(tree, counts, config) >= base - 1e-15


class TestOptimizeInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        k=st.sampled_from([0.9, 0.99, 0.999]),
    )
    def test_target_met_with_positive_counts(self, seed, k):
        graph, config = random_setup(seed)
        tree = maximum_reliability_tree(graph, config, root=0)
        result = optimize(tree, k, config)
        assert result.achieved >= k - 1e-12
        assert all(m >= 1 for m in result.counts.values())
        assert result.total_messages == sum(result.counts.values())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_k_monotone_in_messages(self, seed):
        """Stricter targets can never need fewer messages."""
        graph, config = random_setup(seed)
        tree = maximum_reliability_tree(graph, config, root=0)
        totals = [
            optimize(tree, k, config).total_messages
            for k in (0.9, 0.99, 0.999)
        ]
        assert totals == sorted(totals)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_removing_any_message_breaks_target(self, seed):
        """Local minimality: m is tight — no single copy is superfluous.

        (Implied by global optimality; cheap to verify on every instance.)
        """
        graph, config = random_setup(seed, n_hi=7)
        tree = maximum_reliability_tree(graph, config, root=0)
        k = 0.95
        result = optimize(tree, k, config)
        for j, m in result.counts.items():
            if m == 1:
                continue  # the minimal vector is a hard floor
            reduced = dict(result.counts)
            reduced[j] = m - 1
            assert reach(tree, reduced, config) < k

    @settings(max_examples=20, deadline=None)
    @given(
        lam=st.floats(0.01, 0.99),
        m=st.integers(1, 30),
    )
    def test_gain_isotonic_property(self, lam, m):
        """Lemma 4 again, over the full parameter space."""
        assert gain(lam, m) >= gain(lam, m + 1) - 1e-12
        assert gain(lam, m) >= 1.0


class TestBudgetDuality:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_primal_dual_consistency(self, seed):
        """Lemma 3: dual(budget = primal total) achieves >= K."""
        graph, config = random_setup(seed, n_hi=7)
        tree = maximum_reliability_tree(graph, config, root=0)
        k = 0.95
        primal = optimize(tree, k, config)
        dual = optimize_for_budget(tree, primal.total_messages, config)
        assert dual.achieved >= k - 1e-12


class TestBayesianInvariants:
    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    @given(
        intervals=st.integers(2, 100),
        observations=st.lists(st.booleans(), max_size=120),
    )
    def test_beliefs_remain_distribution(self, intervals, observations):
        est = BeliefEstimator(intervals)
        for failed in observations:
            if failed:
                est.decrease_reliability(1)
            else:
                est.increase_reliability(1)
        beliefs = est.beliefs
        assert beliefs.sum() == pytest.approx(1.0)
        assert (beliefs >= 0).all()
        assert 0.0 <= est.point_estimate() <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.floats(0.02, 0.98),
        n=st.integers(500, 3000),
    )
    def test_posterior_tracks_empirical_frequency(self, p, n):
        est = BeliefEstimator(100)
        failures = int(round(p * n))
        est.increase_reliability(n - failures)
        est.decrease_reliability(failures)
        assert est.point_estimate() == pytest.approx(failures / n, abs=0.03)

    @settings(max_examples=25, deadline=None)
    @given(
        order=st.permutations(list(range(8))),
    )
    def test_update_order_irrelevant(self, order):
        """Bayes updates commute: any permutation, same posterior."""
        pattern = [True, True, False, False, False, True, False, False]
        a = BeliefEstimator(30)
        for idx in order:
            if pattern[idx]:
                a.decrease_reliability(1)
            else:
                a.increase_reliability(1)
        b = BeliefEstimator(30)
        for failed in pattern:
            if failed:
                b.decrease_reliability(1)
            else:
                b.increase_reliability(1)
        assert np.allclose(a.beliefs, b.beliefs)
