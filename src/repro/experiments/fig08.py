"""Figure 8: prior RAG optimisations lose their edge at scale.

PipeRAG (pipelining) and RAGCache (ideal prefix caching) are simulated
against the unoptimized baseline across datastore sizes. The paper's
observations to reproduce:

- with small datastores, pipelining overlaps retrieval almost fully (up to
  ~1.6x end-to-end) and caching removes most prefill cost;
- PipeRAG peaks where retrieval and inference latency are comparable, then
  decays as retrieval dominates;
- RAGCache's speedup decays monotonically with datastore size because
  retrieval crowds out the prefill it optimises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..llm.generation import (
    GenerationConfig,
    constant_retrieval,
    inference_block_s,
    simulate_generation,
)
from ..llm.inference import InferenceModel
from ..metrics.reporting import FigureResult
from .common import monolithic_retrieval_cost

#: Datastore sizes (tokens) on the x axis.
SIZES = (100e6, 1e9, 10e9, 100e9, 1e12)


@dataclass(frozen=True)
class SpeedupPoint:
    """E2E speedups of the two prior techniques at one datastore size."""

    datastore_tokens: float
    baseline_e2e_s: float
    piperag_speedup: float
    ragcache_speedup: float


def measure(
    datastore_tokens: float, *, config: GenerationConfig | None = None
) -> SpeedupPoint:
    """Compare baseline / PipeRAG / RAGCache at one size."""
    cfg = config or GenerationConfig()
    inference = InferenceModel()
    cost = monolithic_retrieval_cost(datastore_tokens, cfg.batch)
    provider = constant_retrieval(cost)

    base = simulate_generation(provider, inference, cfg)
    pipe = simulate_generation(provider, inference, replace(cfg, pipelined=True))
    cache = simulate_generation(provider, inference, replace(cfg, prefix_cached=True))
    return SpeedupPoint(
        datastore_tokens=datastore_tokens,
        baseline_e2e_s=base.e2e_s,
        piperag_speedup=base.e2e_s / pipe.e2e_s,
        ragcache_speedup=base.e2e_s / cache.e2e_s,
    )


def run(sizes: tuple[float, ...] = SIZES) -> FigureResult:
    """The Figure 8 (right panel) speedup-vs-size sweep."""
    points = [measure(s) for s in sizes]
    fig = FigureResult(
        figure_id="fig8",
        description="Prior-work speedup over baseline vs datastore size",
    )
    xs = [p.datastore_tokens for p in points]
    fig.add("Baseline", xs, [1.0] * len(points))
    fig.add("PipeRAG", xs, [p.piperag_speedup for p in points])
    fig.add("RAGCache", xs, [p.ragcache_speedup for p in points])
    return fig


def crossover_size(
    *, config: GenerationConfig | None = None, lo: float = 1e8, hi: float = 1e13
) -> float:
    """Datastore size where retrieval equals the inference block.

    Below it pipelining hides retrieval entirely; above it retrieval is the
    critical path and PipeRAG's benefit saturates. Solved by bisection on the
    calibrated cost model.
    """
    cfg = config or GenerationConfig()
    block = inference_block_s(InferenceModel(), cfg)
    for _ in range(80):
        mid = (lo * hi) ** 0.5
        if monolithic_retrieval_cost(mid, cfg.batch).latency_s < block:
            lo = mid
        else:
            hi = mid
    return (lo * hi) ** 0.5
