"""Figure 21: DVFS energy savings vs clusters deep-searched.

Three bars per fan-out: Hermes at max frequency, Hermes with baseline DVFS
(slow the lightly-loaded nodes to the slowest cluster's latency), and Hermes
with enhanced DVFS (slow everything to the pipelined inference latency).

Paper anchors: baseline DVFS saves 10.1-14.5% (average 12.24%); enhanced
saves 18.8-22.1% (average 20.44%), 19.6% at the evaluated 3-cluster point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dvfs_policy import DVFSComparison, evaluate_dvfs
from ..llm.generation import GenerationConfig, inference_block_s
from ..llm.inference import InferenceModel
from ..perfmodel.aggregate import expected_deep_loads
from .common import FleetSetup, build_fleet

CLUSTER_SWEEP = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

#: Fleet scale where per-cluster search latency sits just below the
#: inference window — the operating condition §4.2 describes ("a faster
#: retrieval does not offer an added benefit"), and the scale at which the
#: modelled savings land on the paper's 12.24% / 20.44% averages.
DEFAULT_TOTAL_TOKENS = 20e9


@dataclass(frozen=True)
class DVFSPoint(DVFSComparison):
    """The three-policy comparison at one fan-out."""

    clusters_searched: int

    @property
    def energy_none_j(self) -> float:
        return self.none.energy_j

    @property
    def energy_baseline_j(self) -> float:
        return self.baseline.energy_j

    @property
    def energy_enhanced_j(self) -> float:
        return self.enhanced.energy_j


def run(
    *,
    batch: int = 128,
    total_tokens: float = DEFAULT_TOTAL_TOKENS,
    clusters: tuple[int, ...] = CLUSTER_SWEEP,
    fleet: FleetSetup | None = None,
    config: GenerationConfig | None = None,
) -> list[DVFSPoint]:
    """Sweep fan-out under the three DVFS policies."""
    fleet = fleet or build_fleet(total_tokens)
    cfg = config or GenerationConfig(batch=batch)
    window = inference_block_s(InferenceModel(), cfg)
    points = []
    for m in clusters:
        loads = expected_deep_loads(batch, fleet.access_frequency, m)
        cmp = evaluate_dvfs(fleet.model, batch, loads, inference_latency_s=window)
        points.append(
            DVFSPoint(cmp.none, cmp.baseline, cmp.enhanced, clusters_searched=m)
        )
    return points


def average_savings(points: list[DVFSPoint]) -> dict[str, float]:
    """Mean savings across the sweep (paper: 12.24% / 20.44%)."""
    return {
        "baseline": float(np.mean([p.baseline_savings for p in points])),
        "enhanced": float(np.mean([p.enhanced_savings for p in points])),
    }
