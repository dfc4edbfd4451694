"""Terminal plotting for experiment output (the artifact's plot step).

The paper's artifact renders matplotlib figures; this environment is
offline-only, so the harness renders Unicode multi-series line charts
instead, all pure text. The experiment runner draws one per figure
(``python -m repro.experiments.runner --plots``).
"""

from __future__ import annotations

import math
from typing import Sequence

from .metrics.reporting import Series

#: Per-series plot markers, cycled.
MARKERS = "ox+*#@%&"


def _nice_num(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-2:
        return f"{value:.1e}"
    return f"{value:.3g}"


def _scale(value: float, lo: float, hi: float, *, log: bool) -> float:
    """Map *value* to [0, 1] given axis bounds."""
    if log:
        if value <= 0 or lo <= 0:
            raise ValueError("log axis requires positive values")
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5
    return (value - lo) / (hi - lo)


def line_chart(
    series: "Sequence[Series]",
    *,
    width: int = 60,
    height: int = 16,
    title: str = "",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render multiple (x, y) series on one character canvas.

    Each series gets a marker from :data:`MARKERS`; a legend follows the
    axes. Both axes support log scaling (needed for the paper's
    datastore-size sweeps).
    """
    if not series:
        raise ValueError("need at least one series")
    if width < 10 or height < 4:
        raise ValueError("canvas too small")
    xs = [x for s in series for x in s.x]
    ys = [y for s in series for y in s.y]
    if not xs:
        raise ValueError("series contain no points")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    canvas = [[" "] * width for _ in range(height)]
    for si, s in enumerate(series):
        marker = MARKERS[si % len(MARKERS)]
        for x, y in zip(s.x, s.y):
            col = round(_scale(x, x_lo, x_hi, log=logx) * (width - 1))
            row = round((1.0 - _scale(y, y_lo, y_hi, log=logy)) * (height - 1))
            canvas[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    y_top, y_bottom = _nice_num(y_hi), _nice_num(y_lo)
    label_width = max(len(y_top), len(y_bottom))
    for r, row in enumerate(canvas):
        if r == 0:
            label = y_top.rjust(label_width)
        elif r == height - 1:
            label = y_bottom.rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    x_left, x_right = _nice_num(x_lo), _nice_num(x_hi)
    axis = " " * label_width + " +" + "-" * width
    lines.append(axis)
    gap = width - len(x_left) - len(x_right)
    lines.append(" " * (label_width + 2) + x_left + " " * max(gap, 1) + x_right)
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {s.name}" for i, s in enumerate(series)
    )
    lines.append("  " + legend)
    return "\n".join(lines)

