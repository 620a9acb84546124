"""Tests for the heterogeneous-environment extension experiment."""

import pytest

import repro.api as api
from repro.experiments.campaign import Campaign, chunked
from repro.experiments.heterogeneous import _aggregate_point, heterogeneity_build
from repro.experiments.runner import QUICK, scaled

TINY = scaled(
    QUICK, n=12, connectivities=(4,), trials=5, calibration_trials=10, k_target=0.9
)


def point(spread=1.0):
    """One connectivity-4 point, folded the way the aggregate folds it."""
    campaign = Campaign()
    phase1, specs = heterogeneity_build(
        TINY, campaign, mean_loss=0.05, connectivities=(4,), spread=spread
    )
    chunks = list(chunked(campaign.run(specs), TINY.trials))
    return _aggregate_point(4, phase1, chunks)


class TestHeterogeneityPoint:
    def test_fields(self):
        fields = point()
        for key in (
            "uniform_optimal",
            "uniform_reference",
            "uniform_ratio",
            "hetero_optimal",
            "hetero_reference",
            "hetero_ratio",
            "gain_delta",
        ):
            assert key in fields
        assert fields["uniform_ratio"] > 0
        assert fields["hetero_ratio"] > 0

    def test_gain_delta_consistent(self):
        fields = point()
        assert fields["gain_delta"] == pytest.approx(
            fields["hetero_ratio"] - fields["uniform_ratio"]
        )

    def test_spread_zero_equals_uniform_mean(self):
        """With zero spread the heterogeneous config degenerates to uniform."""
        fields = point(spread=0.0)
        # same optimal plan size up to tie-breaking noise in the MRT
        assert fields["hetero_optimal"] == pytest.approx(
            fields["uniform_optimal"], abs=3
        )


class TestHeterogeneityTable:
    def test_table_structure(self):
        result = api.run_experiment(
            "heterogeneous", scale=TINY, params={"loss": 0.05}, backend="serial"
        )
        assert result.columns[1:] == (
            "ratio (uniform L)",
            "ratio (heterogeneous L)",
        )
        assert result.column("connectivity (links/process)") == [4.0]
        assert result.column("ratio (uniform L)") == [point()["uniform_ratio"]]
