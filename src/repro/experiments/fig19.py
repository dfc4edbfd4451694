"""Figure 19: optimal cluster size across inference serving scenarios.

Different applications have different sequence shapes (coding tasks: short
outputs; conversation: long outputs — the paper cites production traces), and
the inference window they create determines how large a Hermes cluster can be
while retrieval still hides under inference. This experiment reproduces both
panels:

- **left**: inference latency across (batch, input/output shape) grid;
- **right**: the largest hidden cluster size for each input length at a fixed
  output shape — the paper's example: with 32 output tokens, growing input
  from 32 to 2048 tokens lets clusters grow from ~34B to ~114B tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..llm.generation import GenerationConfig, inference_block_s
from ..llm.inference import InferenceModel
from .common import monolithic_retrieval_cost

#: (input_tokens, output_tokens) scenarios of the left panel.
SEQUENCE_SCENARIOS = ((32, 4), (256, 32))
BATCHES = (8, 16, 32, 64, 128, 256)

#: Input lengths of the right panel (fixed output 32, stride 16).
INPUT_LENGTHS = (32, 256, 2048)


@dataclass(frozen=True)
class InferenceLatencyCell:
    """One (batch, sequence shape) inference latency."""

    batch: int
    input_tokens: int
    output_tokens: int
    latency_s: float


def inference_latency_grid(
    *,
    batches: tuple[int, ...] = BATCHES,
    scenarios: tuple[tuple[int, int], ...] = SEQUENCE_SCENARIOS,
) -> list[InferenceLatencyCell]:
    """Left panel: full-generation inference latency across the grid."""
    inference = InferenceModel()
    cells = []
    for batch in batches:
        for input_tokens, output_tokens in scenarios:
            latency = inference.generation_latency(batch, input_tokens, output_tokens)
            cells.append(
                InferenceLatencyCell(
                    batch=batch,
                    input_tokens=input_tokens,
                    output_tokens=output_tokens,
                    latency_s=latency,
                )
            )
    return cells


@dataclass(frozen=True)
class OptimalClusterCell:
    """One input-length's inference window and hidden cluster size."""

    input_tokens: int
    inference_window_s: float
    optimal_cluster_tokens: float


def optimal_cluster_sizes(
    *,
    input_lengths: tuple[int, ...] = INPUT_LENGTHS,
    batch: int = 128,
    stride: int = 16,
) -> list[OptimalClusterCell]:
    """Right panel: largest cluster hidden under each scenario's window."""
    inference = InferenceModel()
    unit = monolithic_retrieval_cost(1e9, batch).latency_s  # s per 1B tokens
    cells = []
    for input_tokens in input_lengths:
        window = inference_block_s(
            inference, GenerationConfig(batch=batch, input_tokens=input_tokens, stride=stride)
        )
        cells.append(
            OptimalClusterCell(
                input_tokens=input_tokens,
                inference_window_s=window,
                optimal_cluster_tokens=1e9 * window / unit,
            )
        )
    return cells


def run() -> dict[str, list]:
    """Both panels of Figure 19."""
    return {
        "inference_grid": inference_latency_grid(),
        "optimal_clusters": optimal_cluster_sizes(),
    }
