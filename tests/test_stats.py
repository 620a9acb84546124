"""Unit tests for streaming statistics."""


import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import OnlineStats, percentile
from tests.conformance.reference.stats import mean_confidence_interval, z_quantile

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestOnlineStats:
    def test_empty_raises(self):
        s = OnlineStats()
        with pytest.raises(ValueError):
            _ = s.mean
        with pytest.raises(ValueError):
            _ = s.minimum

    def test_single_value(self):
        s = OnlineStats()
        s.add(4.0)
        assert s.mean == 4.0
        assert s.variance == 0.0
        assert s.stderr == 0.0
        assert s.minimum == 4.0

    def test_known_values(self):
        s = OnlineStats()
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.mean == pytest.approx(5.0)
        assert s.stdev == pytest.approx(np.std([2, 4, 4, 4, 5, 5, 7, 9], ddof=1))

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy(self, values):
        s = OnlineStats()
        s.extend(values)
        assert s.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(
            float(np.var(values, ddof=1)), rel=1e-6, abs=1e-6
        )
        assert s.minimum == min(values)

    @given(
        st.lists(finite_floats, min_size=1, max_size=60),
        st.lists(finite_floats, min_size=1, max_size=60),
    )
    def test_merge_equals_sequential(self, a, b):
        merged = OnlineStats()
        merged.extend(a)
        other = OnlineStats()
        other.extend(b)
        merged.merge(other)
        sequential = OnlineStats()
        sequential.extend(a + b)
        assert merged.count == sequential.count
        assert merged.mean == pytest.approx(sequential.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(
            sequential.variance, rel=1e-6, abs=1e-6
        )

    def test_merge_with_empty(self):
        s = OnlineStats()
        s.extend([1.0, 2.0])
        s.merge(OnlineStats())
        assert s.count == 2
        empty = OnlineStats()
        empty.merge(s)
        assert empty.count == 2
        assert empty.mean == 1.5


class TestZQuantile:
    def test_table_values(self):
        assert z_quantile(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_quantile(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_acklam_fallback_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for level in (0.85, 0.925, 0.975, 0.999):
            expected = float(scipy_stats.norm.ppf(0.5 + level / 2))
            assert z_quantile(level) == pytest.approx(expected, abs=1e-7)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            z_quantile(0.0)
        with pytest.raises(ValueError):
            z_quantile(1.0)


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_nearest_rank(self):
        """Rank ``int(fraction * n)``: an element, never an interpolation."""
        assert percentile([0.0, 10.0], 0.25) == 0.0
        assert percentile([0.0, 10.0], 0.5) == 10.0
        assert percentile([1, 2, 3, 4], 0.99) == 4.0
        assert percentile([5], 0.5) == 5.0
        assert isinstance(percentile([1, 2], 0.5), float)

    def test_extremes(self):
        values = [1.0, 5.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        for fraction in (-0.01, 1.01, 50, float("nan")):
            with pytest.raises(ValueError):
                percentile([1.0], fraction)

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.floats(0, 1))
    def test_rank_bounds(self, values, fraction):
        """At most ``fraction * n`` values lie below the result, and more
        than that lie at or below it unless it is the maximum."""
        ordered = sorted(values)
        result = percentile(ordered, fraction)
        assert result in ordered
        bound = fraction * len(ordered)
        assert sum(v < result for v in ordered) <= bound
        assert sum(v <= result for v in ordered) > bound or result == ordered[-1]


class TestMeanConfidenceInterval:
    def test_basic(self):
        mean, lo, hi = mean_confidence_interval([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert lo < 2.0 < hi
