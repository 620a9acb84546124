"""Unit tests for Bayesian belief management (Algorithm 5, Table 1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ValidationError
from repro.core.bayesian import BeliefEstimator, interval_midpoints
from tests.conformance.reference.bayesian import (
    apply_failures,
    apply_successes,
    uniform_beliefs,
)
from tests.conformance.reference.estimates import (
    BeliefEstimator as ReferenceEstimator,
)


def observed(intervals, successes, failures):
    """An estimator after ``successes`` up and ``failures`` down
    observations (the success update lives in the reference model)."""
    est = ReferenceEstimator(intervals)
    est.increase_reliability(successes)
    est.decrease_reliability(failures)
    return est


class TestInitialization:
    def test_midpoints_formula(self):
        mids = interval_midpoints(5)
        assert list(mids) == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])

    def test_uniform_beliefs(self):
        beliefs = uniform_beliefs(4)
        assert list(beliefs) == pytest.approx([0.25] * 4)

    def test_default_intervals_is_paper_value(self):
        assert BeliefEstimator().intervals == 100

    def test_custom_beliefs_validated(self):
        with pytest.raises(ValidationError):
            BeliefEstimator(3, beliefs=np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            BeliefEstimator(2, beliefs=np.array([0.9, 0.9]))
        with pytest.raises(ValidationError):
            BeliefEstimator(2, beliefs=np.array([-0.5, 1.5]))


class TestPaperTable1:
    """The exact worked example of the paper (U=5)."""

    def test_initial_configuration(self):
        est = BeliefEstimator(5)
        assert list(est.beliefs) == pytest.approx([0.2] * 5)

    def test_after_one_suspicion(self):
        est = BeliefEstimator(5)
        est.decrease_reliability(1)
        assert list(est.beliefs) == pytest.approx([0.04, 0.12, 0.20, 0.28, 0.36])


class TestUpdates:
    def test_failure_shifts_mass_up(self):
        est = BeliefEstimator(10)
        before = est.point_estimate()
        est.decrease_reliability(1)
        assert est.point_estimate() > before

    def test_success_shifts_mass_down(self):
        est = ReferenceEstimator(10)
        before = est.point_estimate()
        est.increase_reliability(1)
        assert est.point_estimate() < before

    def test_factor_zero_is_noop(self):
        est = ReferenceEstimator(10)
        before = est.beliefs
        est.decrease_reliability(0)
        est.increase_reliability(0)
        assert np.allclose(est.beliefs, before)

    def test_factor_n_equals_n_single_updates(self):
        a = BeliefEstimator(20)
        a.decrease_reliability(3)
        b = BeliefEstimator(20)
        for _ in range(3):
            b.decrease_reliability(1)
        assert np.allclose(a.beliefs, b.beliefs)

    def test_negative_factor_rejected(self):
        est = BeliefEstimator(5)
        with pytest.raises(ValidationError):
            est.decrease_reliability(-1)

    @given(
        successes=st.integers(0, 50),
        failures=st.integers(0, 50),
        intervals=st.integers(2, 100),
    )
    def test_beliefs_always_sum_to_one(self, successes, failures, intervals):
        """The paper's invariant: sum_u P_B[u] = 1."""
        est = observed(intervals, successes, failures)
        assert est.beliefs.sum() == pytest.approx(1.0)
        assert (est.beliefs >= 0).all()


class TestConsistency:
    """The posterior concentrates on the empirical failure frequency."""

    @pytest.mark.parametrize("true_p", [0.02, 0.1, 0.5, 0.9])
    def test_map_interval_converges(self, true_p):
        n = 4000
        failures = int(round(true_p * n))
        est = observed(100, n - failures, failures)
        target = min(int(true_p * est.intervals), est.intervals - 1)
        assert abs(est.map_interval() - target) <= 1

    @pytest.mark.parametrize("true_p", [0.05, 0.3])
    def test_point_estimate_converges(self, true_p):
        n = 5000
        failures = int(round(true_p * n))
        est = observed(100, n - failures, failures)
        assert est.point_estimate() == pytest.approx(true_p, abs=0.01)

    def test_low_probability_easier_than_high(self):
        """Paper's observation: low probabilities are inferred faster.

        After the same number of observations, the posterior around a
        small p is tighter (Bernoulli variance p(1-p) is smaller).
        """
        n = 200

        def posterior_spread(p):
            failures = int(round(p * n))
            est = observed(100, n - failures, failures)
            mids = est.midpoints
            mean = est.point_estimate()
            return float(np.sqrt(est.beliefs @ (mids - mean) ** 2))

        assert posterior_spread(0.05) < posterior_spread(0.5)


class TestQueries:
    def test_interval_bounds(self):
        est = BeliefEstimator(5)
        assert est.interval_bounds(0) == (0.0, 0.2)
        assert est.interval_bounds(4) == pytest.approx((0.8, 1.0))
        with pytest.raises(ValidationError):
            est.interval_bounds(5)

    def test_copy_is_independent(self):
        a = BeliefEstimator(10)
        b = a.copy()
        b.decrease_reliability(5)
        assert not np.allclose(a.beliefs, b.beliefs)

    def test_equality(self):
        assert BeliefEstimator(10) == BeliefEstimator(10)
        assert BeliefEstimator(10) != BeliefEstimator(11)
        changed = BeliefEstimator(10)
        changed.decrease_reliability(1)
        assert BeliefEstimator(10) != changed


class TestPureFunctions:
    def test_apply_failures_matches_estimator(self):
        mids = interval_midpoints(8)
        beliefs = uniform_beliefs(8)
        updated = apply_failures(beliefs, mids, 2)
        est = BeliefEstimator(8)
        est.decrease_reliability(2)
        assert np.allclose(updated, est.beliefs)

    def test_apply_successes_matches_estimator(self):
        mids = interval_midpoints(8)
        beliefs = uniform_beliefs(8)
        updated = apply_successes(beliefs, mids, 3)
        est = ReferenceEstimator(8)
        est.increase_reliability(3)
        assert np.allclose(updated, est.beliefs)

    def test_inputs_not_mutated(self):
        mids = interval_midpoints(4)
        beliefs = uniform_beliefs(4)
        apply_failures(beliefs, mids, 1)
        assert np.allclose(beliefs, uniform_beliefs(4))
