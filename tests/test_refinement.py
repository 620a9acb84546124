"""Unit tests for the dynamic-resolution estimator (Section 7 extension)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bayesian import BeliefEstimator
from repro.core.refinement import AdaptiveResolutionEstimator
from repro.errors import ValidationError
from repro.util.rng import RandomSource


class TestConstruction:
    def test_defaults(self):
        est = AdaptiveResolutionEstimator()
        assert est.intervals == 8
        assert est.edges[0] == 0.0
        assert est.edges[-1] == 1.0
        assert est.observations == (0, 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            AdaptiveResolutionEstimator(initial_intervals=0)
        with pytest.raises(ValidationError):
            AdaptiveResolutionEstimator(initial_intervals=10, max_intervals=5)
        with pytest.raises(ValidationError):
            AdaptiveResolutionEstimator(refine_threshold=1.5)
        with pytest.raises(ValidationError):
            AdaptiveResolutionEstimator(min_width=0.0)


class TestRefinement:
    def test_refines_under_concentration(self):
        est = AdaptiveResolutionEstimator(initial_intervals=4, max_intervals=64)
        # hammer in a low probability: mass concentrates in [0, 0.25)
        est.observe(successes=500, failures=10)
        assert est.intervals > 4
        lo, hi = est.map_bounds()
        assert hi - lo < 0.25  # the MAP interval was split

    def test_respects_max_intervals(self):
        est = AdaptiveResolutionEstimator(initial_intervals=4, max_intervals=6)
        est.observe(successes=2000, failures=10)
        assert est.intervals <= 6

    def test_respects_min_width(self):
        est = AdaptiveResolutionEstimator(
            initial_intervals=4, max_intervals=1024, min_width=0.05
        )
        est.observe(successes=5000, failures=100)
        widths = np.diff(est.edges)
        assert widths.min() >= 0.05 / 2  # a split halves a >min_width interval

    def test_edges_stay_sorted_and_bounded(self):
        est = AdaptiveResolutionEstimator(initial_intervals=5)
        rng = RandomSource("refine", 1)
        for _ in range(300):
            if rng.bernoulli(0.07):
                est.decrease_reliability(1)
            else:
                est.increase_reliability(1)
        edges = est.edges
        assert edges[0] == 0.0
        assert edges[-1] == 1.0
        assert (np.diff(edges) > 0).all()

    def test_beliefs_remain_distribution(self):
        est = AdaptiveResolutionEstimator()
        est.observe(successes=300, failures=40)
        assert est.beliefs.sum() == pytest.approx(1.0)
        assert (est.beliefs >= 0).all()
        assert len(est.beliefs) + 1 == len(est.edges)


class TestAccuracy:
    @pytest.mark.parametrize("true_p", [0.01, 0.05, 0.3])
    def test_converges_to_truth(self, true_p):
        est = AdaptiveResolutionEstimator(initial_intervals=8)
        n = 4000
        failures = int(round(true_p * n))
        est.observe(successes=n - failures, failures=failures)
        assert est.point_estimate() == pytest.approx(true_p, abs=0.02)
        lo, hi = est.map_bounds()
        assert lo - 0.02 <= true_p <= hi + 0.02

    def test_beats_coarse_fixed_estimator_for_small_p(self):
        """The paper's motivation: more precision where it is needed.

        With the same number of observations of a small probability, the
        refined estimator's MAP interval is far narrower than a fixed
        8-interval estimator's 0.125-wide one.
        """
        true_p = 0.02
        n = 3000
        failures = int(round(true_p * n))
        refined = AdaptiveResolutionEstimator(initial_intervals=8)
        refined.observe(successes=n - failures, failures=failures)
        fixed = BeliefEstimator(8)
        fixed.observe(successes=n - failures, failures=failures)
        fixed_width = 1.0 / 8
        lo, hi = refined.map_bounds()
        assert hi - lo < fixed_width / 4

    def test_comparable_to_u100_with_fewer_intervals(self):
        """Streamed observations (the protocol's reality: one per
        heartbeat/tick) — refinement tracks a U=100 estimator with a
        third of the intervals."""
        true_p = 0.05
        n = 5000
        refined = AdaptiveResolutionEstimator(
            initial_intervals=8, max_intervals=32
        )
        u100 = BeliefEstimator(100)
        for i in range(n):
            if i % 20 == 0:  # exactly 5% failures, interleaved
                refined.decrease_reliability(1)
                u100.decrease_reliability(1)
            else:
                refined.increase_reliability(1)
                u100.increase_reliability(1)
        assert abs(refined.point_estimate() - true_p) <= (
            abs(u100.point_estimate() - true_p) + 0.01
        )
        assert refined.intervals <= 32

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(0.01, 0.5), seed=st.integers(0, 1000))
    def test_streaming_convergence_property(self, p, seed):
        est = AdaptiveResolutionEstimator(initial_intervals=6)
        rng = RandomSource("refine-prop", seed)
        n = 1500
        for _ in range(n):
            if rng.bernoulli(p):
                est.decrease_reliability(1)
            else:
                est.increase_reliability(1)
        # generous tolerance: statistical noise at n=1500 plus resolution
        assert est.point_estimate() == pytest.approx(p, abs=0.06)


class TestPartition:
    def test_partition_shape(self):
        est = AdaptiveResolutionEstimator(initial_intervals=4)
        parts = est.partition()
        assert len(parts) == 4
        total = sum(b for _, _, b in parts)
        assert total == pytest.approx(1.0)
        assert parts[0][0] == 0.0
        assert parts[-1][1] == 1.0
