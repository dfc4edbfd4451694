"""Figure 10: sizing Hermes clusters to hide retrieval under inference.

Right panel of the paper's Fig. 10: per-cluster search latency vs cluster
size, against the Gemma2-9B per-stride inference latency line. The "pipeline
gap" is the headroom between a cluster's search time and the inference
window; the largest cluster whose search still fits the window is the
recommended split size (the paper picks ~10x10B clusters for a 100B store).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..llm.generation import GenerationConfig, inference_block_s
from ..llm.inference import InferenceModel
from ..metrics.reporting import FigureResult
from .common import monolithic_retrieval_cost

#: Cluster sizes (tokens) on the x axis.
SIZES = (10e6, 100e6, 1e9, 10e9, 100e9)


@dataclass(frozen=True)
class ClusterSizingPoint:
    """Search latency and pipeline gap at one cluster size."""

    cluster_tokens: float
    search_latency_s: float
    inference_latency_s: float

    @property
    def pipeline_gap_s(self) -> float:
        """Positive when retrieval hides under inference."""
        return self.inference_latency_s - self.search_latency_s

    @property
    def hidden(self) -> bool:
        return self.pipeline_gap_s >= 0


def run(
    sizes: tuple[float, ...] = SIZES, *, config: GenerationConfig | None = None
) -> list[ClusterSizingPoint]:
    """Sweep cluster sizes against the inference window."""
    cfg = config or GenerationConfig()
    window = inference_block_s(InferenceModel(), cfg)
    return [
        ClusterSizingPoint(
            cluster_tokens=s,
            search_latency_s=monolithic_retrieval_cost(s, cfg.batch).latency_s,
            inference_latency_s=window,
        )
        for s in sizes
    ]


def max_hidden_cluster_tokens(*, config: GenerationConfig | None = None) -> float:
    """Largest cluster size whose search latency fits the inference window.

    The calibrated latency model is linear in tokens, so this inverts in
    closed form.
    """
    cfg = config or GenerationConfig()
    window = inference_block_s(InferenceModel(), cfg)
    unit = monolithic_retrieval_cost(1e9, cfg.batch).latency_s  # s per 1B tokens
    return 1e9 * window / unit


def recommended_clusters(total_tokens: float, *, config: GenerationConfig | None = None) -> int:
    """How many clusters a datastore needs so every search stays hidden."""
    import math

    max_size = max_hidden_cluster_tokens(config=config)
    return max(1, math.ceil(total_tokens / max_size))


def to_figure(points: list[ClusterSizingPoint]) -> FigureResult:
    fig = FigureResult(
        figure_id="fig10",
        description="Cluster search latency vs size against inference latency",
    )
    xs = [p.cluster_tokens for p in points]
    fig.add("Search Latency", xs, [p.search_latency_s for p in points])
    fig.add("Gemma2 9B Inference Latency", xs, [p.inference_latency_s for p in points])
    return fig
