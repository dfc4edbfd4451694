"""Tests for the terminal plotting helpers."""

import pytest

from repro.metrics.reporting import Series
from repro.viz import line_chart


@pytest.fixture()
def two_series():
    return [
        Series(name="a", x=[1, 2, 3], y=[1.0, 2.0, 3.0]),
        Series(name="b", x=[1, 2, 3], y=[3.0, 2.0, 1.0]),
    ]


class TestLineChart:
    def test_contains_markers_and_legend(self, two_series):
        out = line_chart(two_series, title="T")
        assert "T" in out
        assert "o a" in out and "x b" in out
        assert "o" in out and "x" in out

    def test_axis_labels_present(self, two_series):
        out = line_chart(two_series)
        assert "1" in out and "3" in out

    def test_log_axes(self):
        s = [Series(name="s", x=[1e8, 1e10, 1e12], y=[1.0, 10.0, 100.0])]
        out = line_chart(s, logx=True, logy=True)
        assert "1e+08" in out or "1e+8" in out or "100" in out

    def test_log_rejects_nonpositive(self):
        s = [Series(name="s", x=[0.0, 1.0], y=[1.0, 2.0])]
        with pytest.raises(ValueError):
            line_chart(s, logx=True)

    def test_flat_series_centered(self):
        s = [Series(name="s", x=[1, 2], y=[5.0, 5.0])]
        out = line_chart(s)
        assert "o" in out

    def test_validation(self, two_series):
        with pytest.raises(ValueError):
            line_chart([])
        with pytest.raises(ValueError):
            line_chart(two_series, width=2)

