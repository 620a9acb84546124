"""Unit tests for table/series rendering."""

import pytest

from repro.results.schema import ResultSet
from repro.util.tables import (
    format_cell,
    line_plot,
    render_table,
    sparkline,
)


def figure(*curves):
    """A figure-shaped result set with x axis ``x`` and title ``T``."""
    return ResultSet.from_curves("fig", "T", "x", list(curves))


class TestFormatCell:
    def test_none(self):
        assert format_cell(None) == "-"

    def test_float_precision(self):
        assert format_cell(3.14159, precision=3) == "3.14"

    def test_int_and_str(self):
        assert format_cell(42) == "42"
        assert format_cell("x") == "x"

    def test_bool(self):
        assert format_cell(True) == "True"


class TestRenderTable:
    def test_alignment_and_borders(self):
        out = render_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("+")
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "| 33 |" in out

    def test_title(self):
        out = render_table(["x"], [[1]], title="My Title")
        assert out.splitlines()[0] == "My Title"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])


class TestSeries:
    def test_add_and_lookup(self):
        result = figure(("curve", {1: 2.0, 2: None}))
        assert dict(zip(result.column("x"), result.column("curve"))) == {
            1.0: 2.0,
            2.0: None,
        }


class TestSeriesTable:
    def _table(self):
        return figure(("a", {1: 10.0, 2: 20.0}), ("b", {2: 200.0, 3: 300.0}))

    def test_x_values_union_sorted(self):
        assert self._table().column("x") == [1.0, 2.0, 3.0]

    def test_render_fills_gaps(self):
        out = self._table().render()
        assert "-" in out  # missing cells
        assert "300" in out

    def test_str_is_render(self):
        t = self._table()
        assert str(t) == t.render()


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat(self):
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"

    def test_shape(self):
        out = sparkline([0.0, 1.0])
        assert out[0] == "▁"
        assert out[-1] == "█"

    def test_downsampling(self):
        out = sparkline(list(range(1000)), width=50)
        assert len(out) == 50


class TestLinePlot:
    def test_contains_markers_and_legend(self):
        out = line_plot(figure(("only", {0: 0.0, 1: 1.0})))
        assert "*" in out
        assert "only" in out

    def test_no_data(self):
        assert line_plot(figure(("empty", {0: None}))) == "(no data)"
