"""Tests for the experiment harness (scales, runner, figure modules).

Heavy experiments run at a tiny scale here — the paper's curve shapes
are asserted at the quick preset in tests/conformance/.
"""

import math

import pytest

import repro.api as api
from repro.errors import ValidationError
from repro.experiments import figure4
from repro.experiments.campaign import Campaign
from repro.experiments.figure4 import optimal_messages
from repro.experiments.figure5 import convergence_messages_per_link
from repro.experiments.registry import ExperimentContext, Figure4bParams
from repro.experiments.runner import (
    DEFAULT,
    FULL,
    QUICK,
    SCALE_ENV,
    current_scale,
    fitting_connectivities,
    make_network,
    point_grid,
    scaled,
)
from repro.experiments.table1 import PAPER_AFTER_SUSPICION
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular, ring

TINY = scaled(
    QUICK,
    n=10,
    connectivities=(2, 4),
    trials=3,
    calibration_trials=10,
    convergence_deadline=1200.0,
    figure6_sizes=(10, 14),
    k_target=0.9,
)


class TestScales:
    def test_presets(self):
        assert QUICK.n < DEFAULT.n < FULL.n
        assert FULL.k_target == 0.9999  # the paper's K

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV, "quick")
        assert current_scale().name == "quick"
        monkeypatch.delenv(SCALE_ENV)
        assert current_scale().name == "default"

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV, "quick")
        assert current_scale("full").name == "full"

    def test_unknown_scale(self):
        with pytest.raises(ValidationError):
            current_scale("galactic")

    def test_scaled_replaces(self):
        derived = scaled(QUICK, n=99)
        assert derived.n == 99
        assert derived.k_target == QUICK.k_target


class TestMakeNetwork:
    def test_deterministic_network(self):
        g = ring(5)
        c = Configuration.uniform(g, loss=0.2)
        n1 = make_network(c, "s", 1)
        n2 = make_network(c, "s", 1)
        n1.send(0, 1, "x")
        n2.send(0, 1, "x")
        assert n1.stats.snapshot() == n2.stats.snapshot()


class TestConnectivityGrid:
    def test_keeps_the_connectivities_below_n_in_order(self):
        assert fitting_connectivities([6, 2, 10, 4], 6) == [2, 4]

    def test_refuses_when_no_connectivity_fits(self):
        with pytest.raises(ValidationError, match="fits below n=2"):
            fitting_connectivities([2, 4], 2)

    def test_point_grid_pairs_each_value_with_each_fitting_connectivity(self):
        scale = scaled(TINY, connectivities=(2, 4, 12))
        assert point_grid(scale, [0.1, 0.2]) == [
            (0.1, 2), (0.1, 4), (0.2, 2), (0.2, 4),
        ]

    def test_point_grid_refuses_when_no_connectivity_fits(self):
        with pytest.raises(ValidationError, match="fits below n=2"):
            point_grid(scaled(TINY, n=2), [0.1])


def run(name, scale=None, **params):
    return api.run_experiment(name, scale=scale, params=params, backend="serial")


class TestFigure1:
    def test_table_shape(self):
        result = run("figure1")
        assert len(result.columns) == 1 + 3
        assert len(result.rows) == 10

    def test_anchor_points(self):
        result = run("figure1")
        for curve in result.columns[1:]:
            assert result.column(curve)[0] == pytest.approx(1.0)  # alpha = 1
        at_alpha = dict(zip(result.column("alpha"), result.column("L=0.0001")))
        # "When alpha = 10 ... L = 0.0001, an adaptive algorithm only needs
        # about 87% of the messages sent by a traditional gossip algorithm"
        assert at_alpha[10.0] == pytest.approx(0.875, abs=1e-3)


class TestTable1:
    def test_rows_match_paper(self):
        result = run("table1")
        after = result.column("P_B after suspicion")
        assert [round(b, 2) for b in after] == list(PAPER_AFTER_SUSPICION)
        assert result.column("P_B initial") == pytest.approx([0.2] * 5)

    def test_render_contains_intervals(self):
        text = run("table1").render()
        assert "[0.0, 0.2)" in text
        assert "0.36" in text


class TestFigure4:
    def test_point_fields(self):
        scale = scaled(TINY, connectivities=(2,))
        campaign = Campaign()
        ctx = ExperimentContext(scale, campaign, Figure4bParams(loss=(0.05,)))
        (cell,) = figure4.cells("loss", ctx)
        (_, _, optimal), specs = cell
        phase1 = {"optimal_messages": optimal, "rounds": specs[0].kwargs()["rounds"]}
        result = figure4.fold("loss", ctx, campaign.run_cells([cell]))
        assert result.column("L=0.05")[0] > 0
        assert phase1["optimal_messages"] >= TINY.n - 1
        assert phase1["rounds"] >= 1

    def test_optimal_messages_monotone_in_k(self):
        g = k_regular(10, 4)
        c = Configuration.uniform(g, loss=0.1)
        assert optimal_messages(g, c, 0.999) >= optimal_messages(g, c, 0.9)

    def test_table_variants(self):
        result = run("figure4b", TINY, loss=0.05)
        assert result.columns[1:] == ("L=0.05",)
        assert result.column("connectivity (links/process)") == [2.0, 4.0]
        with pytest.raises(ValueError):
            figure4.cells(
                "nope", ExperimentContext(TINY, Campaign(), Figure4bParams())
            )


class TestFigure5:
    def test_convergence_run(self):
        g = ring(8)
        c = Configuration.reliable(g)
        effort = convergence_messages_per_link(
            g, c, seed_tag="t", deadline=2000.0
        )
        assert 0 < effort < 2000

    def test_timeout_strict(self):
        from repro.errors import ConvergenceTimeoutError

        g = ring(8)
        c = Configuration.uniform(g, loss=0.05)
        with pytest.raises(ConvergenceTimeoutError):
            convergence_messages_per_link(g, c, "t", deadline=4.0)

    def test_timeout_lenient(self):
        g = ring(8)
        c = Configuration.uniform(g, loss=0.05)
        effort = convergence_messages_per_link(
            g, c, "t", deadline=4.0, strict=False
        )
        assert math.isinf(effort)

    def test_point(self):
        result = run("figure5a", TINY, connectivity=2, crash=0.0, trials=2)
        assert result.column("connectivity (links/process)") == [2.0]
        assert result.column("P=0")[0] > 0


class TestFigure6:
    def test_points(self):
        result = run("figure6", TINY, size=10, trials=2)
        assert result.column("number of processes") == [10.0]
        assert result.column("ring")[0] > 0
        assert result.column("tree")[0] > 0
        with pytest.raises(ValueError):
            run("figure6", TINY, size=10, trials=1, topology="torus")
