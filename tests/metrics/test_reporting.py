"""Tests for report formatting helpers."""

import pytest

from repro.metrics.reporting import FigureResult, Series, format_table, speedup


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["a", "b"], [(1, 2.5), (3, 4.0)], title="T")
        assert "T" in text
        assert "a" in text and "b" in text
        assert "2.5" in text

    def test_handles_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text

    def test_columns_aligned(self):
        text = format_table(["name", "v"], [("long-name-here", 1), ("s", 2)])
        lines = text.splitlines()
        # All data lines have the value column starting at the same offset.
        offsets = {line.rstrip().rfind(" ") for line in lines[2:]}
        assert len(offsets) == 1


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series(name="s", x=[1, 2], y=[1])


class TestFigureResult:
    def test_add_and_get(self):
        fig = FigureResult(figure_id="f", description="d")
        fig.add("line", [1, 2], [3, 4])
        assert fig.get("line").y == [3, 4]

    def test_get_missing_raises(self):
        fig = FigureResult(figure_id="f", description="d")
        with pytest.raises(KeyError):
            fig.get("nope")

    def test_render_includes_notes(self):
        fig = FigureResult(figure_id="f", description="d")
        fig.add("line", [1], [2])
        fig.notes.append("a note")
        assert "a note" in fig.render()


class TestRatios:
    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0

    def test_speedup_rejects_zero(self):
        with pytest.raises(ValueError):
            speedup(10.0, 0.0)
