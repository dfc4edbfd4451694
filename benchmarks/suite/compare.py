"""Compare two sets of suite results, one row per (workload, end-to-end metric).

Usage::

    python benchmarks/suite/compare.py A.json B.json
    python benchmarks/suite/compare.py A1.json,A2.json,... B1.json,B2.json,...

Each file is a ``run.py --out`` report. ``A`` is the base (the parent commit,
or the first of two runs of the same commit); every ratio is ``B / A``. With
several files per side the medians are compared and A's own run-to-run spread
(interquartile range over its median) is known, which is what separates
"unresolved" from "within-bound".

Verdicts, after turning the change so that positive means worse:

- ``worse``        worsened by more than the metric's bound;
- ``unresolved``   A's spread is wider than the bound, so a change of that
                   size cannot be told from noise (unless every B run beats
                   every A run, which is ``better``);
- ``better``       improved by more than A's spread (by more than the bound
                   when single files leave the spread unknown);
- ``within-bound`` everything else.

Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402

#: Runs per side below which a spread is not computed.
MIN_RUNS_FOR_SPREAD = 4


def load(arg: str) -> list:
    return [json.loads(Path(p).read_text()) for p in arg.split(",") if p]


def values(reports: list, workload: str, metric: str) -> list:
    out = []
    for report in reports:
        entry = report["workloads"].get(workload)
        if entry is not None and metric in entry["end_to_end"]:
            out.append(float(entry["end_to_end"][metric]["value"]))
    return out


def spread(runs: list) -> float | None:
    """Interquartile range over the median, or None with too few runs."""
    if len(runs) < MIN_RUNS_FOR_SPREAD:
        return None
    q1, _, q3 = statistics.quantiles(runs, n=4)
    mid = statistics.median(runs)
    return (q3 - q1) / mid if mid else None


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """(verdict, ratio B/A, A's spread) for one metric on one workload."""
    base, new = statistics.median(a), statistics.median(b)
    ratio = new / base if base else float("inf")
    sign = 1.0 if better == "lower" else -1.0
    worsened = sign * (ratio - 1.0)
    noise = spread(a)
    if noise is not None and noise > bound:
        clean_win = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("better" if clean_win else "unresolved"), ratio, noise
    if worsened > bound:
        return "worse", ratio, noise
    if worsened < -(bound if noise is None else noise):
        return "better", ratio, noise
    return "within-bound", ratio, noise


def compare(a_reports: list, b_reports: list) -> list:
    rows = []
    for workload in spec.WORKLOADS:
        for m in spec.END_TO_END:
            a = values(a_reports, workload, m["name"])
            b = values(b_reports, workload, m["name"])
            if not a or not b:
                continue
            what, ratio, noise = verdict(a, b, m["better"], m["bound"])
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "a": statistics.median(a), "b": statistics.median(b), "ratio": ratio,
                "bound": m["bound"], "better": m["better"], "spread_a": noise,
                "runs": (len(a), len(b)), "verdict": what,
            })
    return rows


def render(rows: list) -> str:
    lines = [
        f"{'workload':12s} {'metric':18s} {'A (base)':>12s} {'B':>12s} {'B/A':>7s} "
        f"{'bound':>6s} {'A spread':>8s}  verdict"
    ]
    for r in rows:
        noise = "-" if r["spread_a"] is None else f"{100 * r['spread_a']:.1f}%"
        lines.append(
            f"{r['workload']:12s} {r['metric']:18s} {r['a']:12.4f} {r['b']:12.4f} "
            f"{r['ratio']:7.3f} {100 * r['bound']:5.0f}% {noise:>8s}  {r['verdict']}"
            f"  ({r['better']} is better, {r['unit']}, runs {r['runs'][0]}+{r['runs'][1]})"
        )
    return "\n".join(lines)


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    if not rows:
        print("no (workload, metric) pair is present in both sides", file=sys.stderr)
        return 2
    print(render(rows))
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"\n{len(rows)} rows, {len(worse)} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
