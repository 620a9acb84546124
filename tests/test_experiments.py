"""Tests for the experiment harness (scales, runner, figure modules).

Heavy experiments run at a tiny scale here — the paper's curve shapes
are asserted at the quick preset in tests/conformance/.
"""

import math

import pytest

from repro.errors import ValidationError
from repro.experiments.figure1 import expected_anchor_points, figure1_table
from repro.experiments.figure4 import figure4_point, figure4_table, optimal_messages
from repro.experiments.figure5 import convergence_messages_per_link, figure5_point
from repro.experiments.figure6 import figure6_point
from repro.experiments.report import ExperimentRecord, ReportWriter
from repro.experiments.runner import (
    DEFAULT,
    FULL,
    QUICK,
    SCALE_ENV,
    current_scale,
    make_network,
    scaled,
)
from repro.experiments.table1 import PAPER_AFTER_SUSPICION, table1_render, table1_rows
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular, ring
from repro.util.tables import Series, SeriesTable

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


class TestFigure1:
    def test_table_shape(self):
        table = figure1_table()
        assert len(table.series) == 3
        assert len(table.x_values()) == 10

    def test_anchor_points(self):
        anchors = expected_anchor_points()
        table = figure1_table()
        for series in table.series:
            assert series.ys[0] == pytest.approx(1.0)  # alpha = 1
        l4 = next(s for s in table.series if s.name == "L=0.0001")
        assert l4.as_dict()[10.0] == pytest.approx(
            anchors[("alpha=10", "L=1e-4")], abs=1e-3
        )


class TestTable1:
    def test_rows_match_paper(self):
        rows = table1_rows()
        assert [round(r[3], 2) for r in rows] == list(PAPER_AFTER_SUSPICION)
        assert all(r[2] == pytest.approx(0.2) for r in rows)

    def test_render_contains_intervals(self):
        text = table1_render()
        assert "[0.0, 0.2)" in text
        assert "0.36" in text


class TestFigure4:
    def test_point_fields(self):
        point = figure4_point(2, crash=0.0, loss=0.05, scale=TINY)
        assert point["ratio"] > 0
        assert point["optimal_messages"] >= TINY.n - 1
        assert point["rounds"] >= 1

    def test_optimal_messages_monotone_in_k(self):
        g = k_regular(10, 4)
        c = Configuration.uniform(g, loss=0.1)
        assert optimal_messages(g, c, 0.999) >= optimal_messages(g, c, 0.9)

    def test_table_variants(self):
        table = figure4_table(variant="loss", scale=TINY, values=(0.05,))
        assert table.series[0].name == "L=0.05"
        assert len(table.series[0].xs) == 2
        with pytest.raises(ValueError):
            figure4_table(variant="nope", scale=TINY)


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

    def test_object_view_is_refused_not_ignored(self):
        """``view_impl`` is selectable on AdaptiveParameters only; the
        registry deploys the vector view, so figure 5 must say so."""
        import dataclasses

        from repro.core.adaptive import AdaptiveParameters
        from repro.errors import ValidationError
        from repro.protocols.partial_view import AdaptivePVParams
        from repro.protocols.registry import AdaptiveProtocolParams

        g = ring(8)
        with pytest.raises(ValidationError, match="view_impl='object'"):
            convergence_messages_per_link(
                g, Configuration.reliable(g), "t", deadline=2000.0,
                params=AdaptiveParameters(view_impl="object"),
            )
        for forwarder in (AdaptiveProtocolParams, AdaptivePVParams):
            names = [f.name for f in dataclasses.fields(forwarder)]
            assert "view_impl" not in names

    def test_point(self):
        point = figure5_point(2, crash=0.0, loss=0.0, scale=TINY, trials=2)
        assert point["trials"] == 2.0
        assert point["messages_per_link"] > 0


class TestFigure6:
    def test_points(self):
        ring_point = figure6_point("ring", 10, TINY, trials=2)
        tree_point = figure6_point("tree", 10, TINY, trials=2)
        assert ring_point["messages_per_link"] > 0
        assert tree_point["messages_per_link"] > 0
        with pytest.raises(ValueError):
            figure6_point("torus", 10, TINY, trials=1)


class TestReport:
    def test_writer_outputs(self, tmp_path):
        table = SeriesTable(title="T", x_label="x")
        s = Series("a")
        s.add(1, 2.0)
        table.add_series(s)
        record = ExperimentRecord(
            experiment_id="Fig X", description="demo", scale="quick", table=table
        )
        writer = ReportWriter(str(tmp_path))
        writer.add(record)
        assert (tmp_path / "fig_x.txt").exists()
        assert (tmp_path / "fig_x.json").exists()
        combined = writer.render_all()
        assert "Fig X" in combined
        assert "demo" in combined
