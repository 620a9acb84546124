"""Unit tests for the two-path analytic model (Appendix A, Figure 1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.api as api
from repro.analysis.two_paths import (
    adaptive_reach,
    gossip_reach,
    message_ratio,
    required_messages,
    simulate_two_paths,
)
from repro.errors import ValidationError
from repro.util.rng import RandomSource


class TestClosedForms:
    def test_gossip_reach_formula(self):
        # k0=2, one message per path: 1 - L * (alpha L)
        assert gossip_reach(0.1, 4.0, 2) == pytest.approx(1 - (0.2) ** 2)

    def test_adaptive_reach_formula(self):
        assert adaptive_reach(0.1, 3) == pytest.approx(1 - 1e-3)

    def test_alpha_one_no_difference(self):
        assert message_ratio(0.01, 1.0) == 1.0

    def test_paper_anchor_87_percent(self):
        """Intro: alpha=10, L=1e-4 -> adaptive needs ~87% of the messages."""
        assert message_ratio(1e-4, 10.0) == pytest.approx(0.875, abs=1e-3)

    def test_ratio_decreases_with_alpha(self):
        ratios = [message_ratio(0.01, a) for a in (1, 2, 5, 10)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_ratio_lower_for_lossier_environment(self):
        """Figure 1: the L=0.01 curve is below the L=0.0001 curve."""
        assert message_ratio(1e-2, 5.0) < message_ratio(1e-4, 5.0)

    def test_equal_reliability_consistency(self):
        """k1 = ratio * k0 gives (approximately) equal reach probabilities."""
        loss, alpha, k0 = 1e-3, 6.0, 10
        ratio = message_ratio(loss, alpha)
        k1 = ratio * k0  # real-valued message count
        lhs = 1 - (math.sqrt(alpha) * loss) ** k0
        rhs = 1 - loss**k1
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_required_messages(self):
        assert required_messages(0.1, 0.999) == 3
        assert required_messages(0.5, 0.99) == 7

    def test_validation(self):
        with pytest.raises(ValidationError):
            message_ratio(0.0, 2.0)
        with pytest.raises(ValidationError):
            message_ratio(0.1, 0.5)  # alpha < 1
        with pytest.raises(ValidationError):
            gossip_reach(0.5, 4.0, 2)  # alpha*L > 1
        with pytest.raises(ValidationError):
            simulate_two_paths(0.1, 2.0, 4, "telepathy", RandomSource(1))


class TestFigure1Table:
    def test_paper_curves(self):
        result = api.run_experiment("figure1", backend="serial")
        curves = ["L=0.01", "L=0.001", "L=0.0001"]
        assert list(result.columns) == ["alpha", *curves]
        assert result.column("alpha") == [float(a) for a in range(1, 11)]
        # all ratios in (0, 1], each the closed form at its point
        for curve, loss in zip(curves, (1e-2, 1e-3, 1e-4)):
            ys = result.column(curve)
            assert all(0.0 < y <= 1.0 for y in ys)
            assert ys == [message_ratio(loss, a) for a in range(1, 11)]

    def test_custom_axes(self):
        result = api.run_experiment(
            "figure1", params={"loss": 0.1, "alpha": (1, 2)}, backend="serial"
        )
        assert list(result.columns) == ["alpha", "L=0.1"]
        assert result.column("alpha") == [1.0, 2.0]


class TestMonteCarloAgreement:
    """The closed forms match simulation (the Appendix A derivation)."""

    @pytest.mark.parametrize(
        "loss,alpha,k", [(0.3, 2.0, 4), (0.2, 3.0, 6), (0.4, 2.0, 2)]
    )
    def test_gossip_strategy(self, loss, alpha, k):
        simulated = simulate_two_paths(
            loss, alpha, k, "gossip", RandomSource("mc", k), trials=30_000
        )
        assert simulated == pytest.approx(gossip_reach(loss, alpha, k), abs=0.01)

    @pytest.mark.parametrize("loss,k", [(0.3, 4), (0.5, 3)])
    def test_adaptive_strategy(self, loss, k):
        simulated = simulate_two_paths(
            loss, 2.0, k, "adaptive", RandomSource("mc2", k), trials=30_000
        )
        assert simulated == pytest.approx(adaptive_reach(loss, k), abs=0.01)

    @settings(max_examples=10, deadline=None)
    @given(
        loss=st.floats(0.05, 0.45),
        alpha=st.floats(1.0, 2.0),
        half_k=st.integers(1, 3),
    )
    def test_gossip_reach_property(self, loss, alpha, half_k):
        # the Appendix A closed form assumes an even path split
        k = 2 * half_k
        simulated = simulate_two_paths(
            loss, alpha, k, "gossip", RandomSource("mc3", k), trials=8000
        )
        assert simulated == pytest.approx(gossip_reach(loss, alpha, k), abs=0.03)
