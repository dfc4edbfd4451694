"""Figure 20: retrieval latency and throughput across CPU platforms.

Hermes retrieval modelled on four server CPUs — Neoverse-N1 (at batch 32 and
128), Xeon Gold 6448Y, Platinum 8380, and Silver 4316 — sweeping the number
of clusters deep-searched, against the Gemma2-9B inference latency line.

Paper shapes to reproduce: the Platinum 8380 achieves the best latency and
throughput; the ARM part trails per-core but its 80 cores let large batches
recover competitive throughput when few clusters are searched.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..llm.generation import GenerationConfig, inference_block_s
from ..llm.inference import InferenceModel
from ..perfmodel.aggregate import expected_deep_loads
from .common import build_fleet

#: (label, cpu registry key, batch) series of the figure.
PLATFORM_SERIES = (
    ("Neoverse-N1 (BS=32)", "neoverse_n1", 32),
    ("Neoverse-N1 (BS=128)", "neoverse_n1", 128),
    ("Gold 6448Y", "xeon_gold_6448y", 128),
    ("Platinum 8380", "xeon_platinum_8380", 128),
    ("Silver 4316", "xeon_silver_4316", 128),
)
CLUSTER_SWEEP = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

#: The figure's datastore: the evaluation default (10B tokens, 10 nodes).
DEFAULT_TOTAL_TOKENS = 10e9


@dataclass(frozen=True)
class PlatformPoint:
    """One platform series value at one fan-out."""

    label: str
    cpu_key: str
    batch: int
    clusters_searched: int
    latency_s: float
    throughput_qps: float


def run(
    *,
    total_tokens: float = DEFAULT_TOTAL_TOKENS,
    clusters: tuple[int, ...] = CLUSTER_SWEEP,
    series: tuple[tuple[str, str, int], ...] = PLATFORM_SERIES,
) -> list[PlatformPoint]:
    """Sweep platforms x fan-out."""
    points = []
    for label, cpu_key, batch in series:
        fleet = build_fleet(total_tokens, cpu_key=cpu_key)
        for m in clusters:
            loads = expected_deep_loads(batch, fleet.access_frequency, m)
            result = fleet.model.hermes(batch, loads)
            points.append(
                PlatformPoint(
                    label=label,
                    cpu_key=cpu_key,
                    batch=batch,
                    clusters_searched=m,
                    latency_s=result.latency_s,
                    throughput_qps=fleet.model.throughput_qps(batch, result),
                )
            )
    return points


def inference_latency_line(*, batch: int = 128) -> float:
    """The Gemma2-9B per-stride inference latency reference line."""
    return inference_block_s(InferenceModel(), GenerationConfig(batch=batch))


def best_platform(points: list[PlatformPoint], *, clusters_searched: int = 3) -> str:
    """Platform with the lowest latency at a fan-out (paper: Platinum 8380)."""
    eligible = [p for p in points if p.clusters_searched == clusters_searched]
    return min(eligible, key=lambda p: p.latency_s).label

