"""Unit tests for table rendering and trial statistics."""

import pytest

from repro.util.stats import mean_std
from repro.util.tables import render_table


class TestRenderTable:
    def test_basic_layout(self):
        out = render_table(["x", "value"], [[1, 2.5], [10, 3.25]])
        lines = out.splitlines()
        assert lines[0].startswith("x")
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_column_alignment(self):
        out = render_table(["n"], [[1], [100]])
        rows = out.splitlines()[2:]
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_float_formatting(self):
        out = render_table(["v"], [[0.000001], [123456.0], [1.5], [0.0]])
        assert "1e-06" in out
        assert "1.23e+05" in out or "123456" in out
        assert "1.500" in out

    def test_strings_pass_through(self):
        out = render_table(["scheme"], [["WW"], ["WPs"]])
        assert "WPs" in out


class TestMeanStd:
    def test_single_value(self):
        assert mean_std([5.0]) == (5.0, 0.0)

    def test_known_values(self):
        mean, std = mean_std([2.0, 4.0, 6.0])
        assert mean == pytest.approx(4.0)
        assert std == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])
