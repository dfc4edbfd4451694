"""Golden-trace regression: the span taxonomy is pinned, durations are not.

A seeded ``hermes-repro trace`` run must produce the same *skeleton* —
span names and nesting, with every timestamp normalized out — as the
checked-in JSON next to this test. Durations vary run to run (and the
parallel build / shard fan-out attaches children in completion order), so
skeletons are canonicalized by recursively sorting children before
comparison: structure is load-bearing, scheduling order is not.

To regenerate after an intentional instrumentation change:

    PYTHONPATH=src python tests/obs/test_trace_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.experiments import tracing
from repro.obs.trace import trace_skeleton

pytestmark = pytest.mark.obs

GOLDEN_DIR = Path(__file__).parent / "golden"
#: generation runs on a virtual clock (fully deterministic ordering);
#: retrieval exercises the threaded build + shard fan-out (completion-order
#: nondeterminism is what the canonicalization absorbs); e2e is the live
#: stride-scheduled pipeline, whose encode spans run through the encoder.
GOLDEN_EXPERIMENTS = ("retrieval", "generation", "e2e")


def golden_path(experiment) -> Path:
    return GOLDEN_DIR / f"{experiment}_skeleton.json"


def canonicalize(skeleton):
    """Recursively sort children so thread completion order can't differ."""

    def canon(node):
        out = {"name": node["name"]}
        if node.get("children"):
            out["children"] = sorted(
                (canon(c) for c in node["children"]),
                key=lambda n: json.dumps(n, sort_keys=True),
            )
        return out

    return sorted(
        (canon(r) for r in skeleton), key=lambda n: json.dumps(n, sort_keys=True)
    )


def current_skeleton(experiment):
    run = tracing.run(experiment, seed=0)
    return canonicalize(trace_skeleton(run.roots))


@pytest.mark.parametrize("experiment", GOLDEN_EXPERIMENTS)
def test_skeleton_matches_golden(experiment):
    golden = json.loads(golden_path(experiment).read_text())
    actual = current_skeleton(experiment)
    assert actual == golden, (
        f"trace skeleton for {experiment!r} drifted from {golden_path(experiment)}; "
        "if the instrumentation change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/obs/test_trace_golden.py`"
    )


def test_golden_has_no_timing_fields():
    # the checked-in artifact must stay duration-free, or it could never
    # match a live run
    for experiment in GOLDEN_EXPERIMENTS:
        text = golden_path(experiment).read_text()
        for field in ("start_s", "end_s", "duration", "ts", "dur"):
            assert f'"{field}"' not in text


def test_seeded_runs_are_reproducible():
    # same seed, two fresh runs: canonical skeletons must agree even though
    # thread scheduling differs
    for experiment in GOLDEN_EXPERIMENTS:
        assert current_skeleton(experiment) == current_skeleton(experiment), experiment


def _regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for experiment in GOLDEN_EXPERIMENTS:
        path = golden_path(experiment)
        path.write_text(json.dumps(current_skeleton(experiment), indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
