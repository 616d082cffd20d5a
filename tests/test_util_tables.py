"""Tests for repro.util.tables: plain-text table/chart rendering."""

import pytest

from repro.util.tables import render_cdf, render_table


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(["name", "qoe"], [["BB", 1.5], ["Random", -2.0]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "name" in lines[0] and "qoe" in lines[0]
        assert "BB" in lines[2]
        assert "-2.000" in lines[3]

    def test_column_alignment(self):
        text = render_table(["a"], [["xxxxxxxx"], ["y"]])
        lines = text.splitlines()
        assert len(lines[0]) == len(lines[1])

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_empty_rows_ok(self):
        text = render_table(["a", "b"], [])
        assert "a" in text


class TestRenderCdf:
    def test_sample_points(self):
        text = render_cdf({"s": ([1.0, 2.0, 3.0], [0.33, 0.66, 1.0])}, points=3)
        assert "s:" in text
        assert "(1.00, 0.33)" in text
        assert "(3.00, 1.00)" in text

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_cdf({"s": ([], [])})
