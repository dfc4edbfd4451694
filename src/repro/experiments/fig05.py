"""Figure 5: retrieval stride vs. perplexity and retrieval latency.

Left panel: smaller strides (more frequent retrieval) lower perplexity —
RETRO 578M at stride 4 matches GPT-2 1.5B, a model with ~2.6x the parameters.
Right panel: total retrieval time for a generation grows sharply as stride
shrinks (ceil(output/stride) retrievals), with 10B and 100B datastore curves.

The paper's headline cost example: for a 100B datastore, retrieving every 4
tokens instead of every 64 raises end-to-end latency ~12.12x (32.0 s →
388.5 s).
"""

from __future__ import annotations

import math

from ..llm.generation import GenerationConfig, constant_retrieval, simulate_generation
from ..llm.inference import InferenceModel
from ..llm.perplexity import PERPLEXITY_CURVES, perplexity_vs_stride
from ..metrics.reporting import FigureResult
from .common import monolithic_retrieval_cost

#: Strides swept in the figure.
STRIDES = (2, 4, 8, 16, 32, 64)


def perplexity_panel(strides: tuple[int, ...] = STRIDES) -> FigureResult:
    """Perplexity-vs-stride curves for the three models."""
    fig = FigureResult(
        figure_id="fig5-left",
        description="Perplexity vs retrieval stride (model law fit to Fig. 5)",
    )
    for curve in PERPLEXITY_CURVES.values():
        fig.add(curve.name, strides, perplexity_vs_stride(curve, strides))
    # The paper's claim: RETRO 578M at its optimal stride (4) matches GPT-2
    # 1.5B despite ~2.6x fewer parameters.
    retro4 = PERPLEXITY_CURVES["retro_578m"].perplexity(4)
    gpt15 = PERPLEXITY_CURVES["gpt2_1_5b"].perplexity(16)
    fig.notes.append(
        f"RETRO-578M@stride4 = {retro4:.1f} vs GPT-2-1.5B@stride16 = {gpt15:.1f}"
    )
    return fig


def retrieval_latency_panel(
    strides: tuple[int, ...] = STRIDES,
    *,
    output_tokens: int = 256,
    batch: int = 32,
) -> FigureResult:
    """Total retrieval seconds per generation vs stride, for 10B and 100B."""
    fig = FigureResult(
        figure_id="fig5-right",
        description="Total retrieval latency per generation vs stride",
    )
    for tokens, label in ((10e9, "Retrieval Latency 10B"), (100e9, "Retrieval Latency 100B")):
        per_stride = monolithic_retrieval_cost(tokens, batch).latency_s
        fig.add(
            label,
            strides,
            [per_stride * math.ceil(output_tokens / s) for s in strides],
        )
    return fig


def e2e_stride_cost_ratio(
    *, tokens: float = 100e9, fast_stride: int = 4, slow_stride: int = 64
) -> float:
    """End-to-end latency ratio between two strides (paper: 12.12x @100B)."""
    inference = InferenceModel()
    cost = monolithic_retrieval_cost(tokens, 32)
    fast = simulate_generation(
        constant_retrieval(cost), inference, GenerationConfig(stride=fast_stride)
    )
    slow = simulate_generation(
        constant_retrieval(cost), inference, GenerationConfig(stride=slow_stride)
    )
    return fast.e2e_s / slow.e2e_s


def run() -> dict[str, FigureResult]:
    """Both panels of Figure 5."""
    return {
        "perplexity": perplexity_panel(),
        "retrieval_latency": retrieval_latency_panel(),
    }
