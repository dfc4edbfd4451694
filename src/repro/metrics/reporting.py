"""Plain-text tables and series for experiment output.

Every experiment module renders its result through these helpers so the
benchmark harness prints rows/series in the same shape as the paper's tables
and figures (EXPERIMENTS.md records the side-by-side values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    float_fmt: str = "{:.4g}",
) -> str:
    """Render an aligned monospace table."""

    def cell(value: object) -> str:
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in str_rows)) if str_rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class Series:
    """One named (x, y) series of a figure."""

    name: str
    x: list[float]
    y: list[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"series {self.name!r}: x and y lengths differ")


@dataclass
class FigureResult:
    """All the series of one reproduced figure, with provenance."""

    figure_id: str
    description: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, x: Sequence[float], y: Sequence[float]) -> None:
        self.series.append(Series(name=name, x=list(x), y=list(y)))

    def get(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"no series named {name!r} in {self.figure_id}")

    def render(self) -> str:
        """Render the figure's data as aligned text blocks."""
        lines = [f"== {self.figure_id}: {self.description} =="]
        for s in self.series:
            lines.append(f"-- {s.name}")
            lines.append(
                format_table(["x", "y"], list(zip(s.x, s.y)))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def latency_breakdown(
    roots,
    *,
    title: str | None = "latency breakdown",
    float_fmt: str = "{:.4g}",
) -> str:
    """Aggregate a span tree (or forest) into a per-stage latency table.

    Accepts anything shaped like :class:`repro.obs.trace.Span` — duck-typed
    on ``walk()``/``name``/``duration_s`` so this module needs no dependency
    on the tracer. Spans are grouped by name; the share column is relative to
    the summed root durations, so nested stages can exceed 100% only when a
    name repeats along one path (e.g. per-stride phases).
    """
    if hasattr(roots, "walk"):
        roots = [roots]
    else:
        roots = list(roots)
    if not roots:
        return "(no finished spans)"
    root_total = sum(r.duration_s for r in roots)
    order: list[str] = []
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for root in roots:
        for span in root.walk():
            if span.name not in totals:
                order.append(span.name)
                totals[span.name] = 0.0
                counts[span.name] = 0
            totals[span.name] += span.duration_s
            counts[span.name] += 1
    rows = []
    for name in sorted(order, key=lambda n: -totals[n]):
        total = totals[name]
        count = counts[name]
        share = (total / root_total * 100.0) if root_total > 0 else 0.0
        rows.append((name, count, total, total / count, f"{share:.1f}%"))
    return format_table(
        ["stage", "spans", "total (s)", "mean (s)", "share"],
        rows,
        title=title,
        float_fmt=float_fmt,
    )


def speedup(baseline: float, improved: float) -> float:
    """Ratio ``baseline / improved`` (>1 means *improved* is better/lower)."""
    if improved <= 0:
        raise ValueError(f"improved value must be positive, got {improved}")
    return baseline / improved

