"""Unit tests for crash models."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sim.crash import (
    IidCrashModel,
    MarkovCrashModel,
    NoCrashModel,
)
from repro.util.rng import RandomSource


class TestNoCrashModel:
    def test_never_crashes(self):
        model = NoCrashModel()
        assert not model.crashed_step(0, 0.0)
        assert not model.is_down(0, 100.0)


class TestIidCrashModel:
    def test_zero_probability(self):
        model = IidCrashModel(np.zeros(3), RandomSource(1))
        assert not any(model.crashed_step(0, t) for t in range(100))

    def test_one_probability(self):
        model = IidCrashModel(np.array([1.0]), RandomSource(1))
        assert all(model.crashed_step(0, t) for t in range(10))

    def test_empirical_rate(self):
        model = IidCrashModel(np.array([0.2]), RandomSource(2))
        crashed = sum(model.crashed_step(0, t) for t in range(20_000))
        assert 0.19 < crashed / 20_000 < 0.21

    def test_per_process_probabilities(self):
        model = IidCrashModel(np.array([0.0, 0.5]), RandomSource(3))
        assert not any(model.crashed_step(0, t) for t in range(200))
        crashed = sum(model.crashed_step(1, t) for t in range(5000))
        assert 0.45 < crashed / 5000 < 0.55

    def test_is_down_always_false(self):
        """i.i.d. step crashes are instantaneous: no down periods."""
        model = IidCrashModel(np.array([0.9]), RandomSource(1))
        assert not model.is_down(0, 5.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            IidCrashModel(np.array([[0.1]]), RandomSource(1))
        with pytest.raises(ValidationError):
            IidCrashModel(np.array([1.5]), RandomSource(1))


class TestMarkovCrashModel:
    def test_stationary_fraction(self):
        model = MarkovCrashModel(
            np.array([0.2]), RandomSource(4), mean_down_ticks=5.0
        )
        down = sum(model.crashed_step(0, float(t)) for t in range(1, 50_001))
        assert 0.17 < down / 50_000 < 0.23

    def test_zero_probability_stays_up(self):
        model = MarkovCrashModel(np.array([0.0]), RandomSource(4))
        assert not any(model.crashed_step(0, float(t)) for t in range(1, 200))

    def test_bursts_are_contiguous(self):
        """Down periods should have mean length ~ mean_down_ticks."""
        model = MarkovCrashModel(
            np.array([0.3]), RandomSource(5), mean_down_ticks=8.0
        )
        states = [model.crashed_step(0, float(t)) for t in range(1, 30_001)]
        bursts = []
        current = 0
        for s in states:
            if s:
                current += 1
            elif current:
                bursts.append(current)
                current = 0
        assert bursts, "expected at least one down burst"
        mean_burst = sum(bursts) / len(bursts)
        assert 6.0 < mean_burst < 10.5

    def test_callbacks_fire(self):
        crashes, recoveries = [], []
        model = MarkovCrashModel(
            np.array([0.3]),
            RandomSource(6),
            mean_down_ticks=3.0,
            on_crash=lambda p, t: crashes.append((p, t)),
            on_recover=lambda p, t, n: recoveries.append((p, t, n)),
        )
        for t in range(1, 2000):
            model.crashed_step(0, float(t))
        assert crashes
        assert recoveries
        # every recovery reports a positive whole-tick downtime
        assert all(n >= 1 for _, _, n in recoveries)
        # crash/recovery events alternate
        assert abs(len(crashes) - len(recoveries)) <= 1

    def test_probability_one_rejected(self):
        with pytest.raises(ValidationError):
            MarkovCrashModel(np.array([1.0]), RandomSource(1))

    def test_short_mean_down_rejected(self):
        with pytest.raises(ValidationError):
            MarkovCrashModel(np.array([0.1]), RandomSource(1), mean_down_ticks=0.5)

    @pytest.mark.parametrize("mean_down", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_non_positive_or_non_finite_mean_down_rejected(self, mean_down):
        """NaN used to pass the ``< 1`` rule and silently never crash."""
        with pytest.raises(ValidationError, match="mean_down_ticks"):
            MarkovCrashModel(
                np.array([0.1]), RandomSource(1), mean_down_ticks=mean_down
            )
