"""Prefill/decode latency and energy model for LLM serving.

Calibrated to the paper's measured operating points for Gemma2-9B on an
A6000 Ada at batch 32 with 512 input / 256 output tokens and stride 16:

- prefill: 132 QPS → 0.242 s per batch, 2.2 J/query (≈290 W effective);
- decode: 67 QPS per 16-token stride → 0.478 s per stride-batch,
  2.2 J/query/stride (≈147 W effective, decode is memory-bound).

Other (model, GPU, batch, sequence) points scale from these anchors with the
standard serving cost shape: prefill is compute-bound (∝ params x tokens x
batch / effective TFLOPS), decode is bandwidth-bound (∝ params x tokens /
effective bandwidth, nearly batch-independent until the compute roof).
Tensor parallelism divides both with an all-reduce efficiency loss and
multiplies power by the GPU count — reproducing the paper's observation that
adding GPUs to small models wastes energy for little speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.gpu import A6000_ADA, GPUPlatform, tensor_parallel_speedup
from .models import GEMMA2_9B, ModelSpec

#: Anchor operating point (Gemma2-9B, A6000 Ada, batch 32).
ANCHOR_MODEL = GEMMA2_9B
ANCHOR_GPU = A6000_ADA
ANCHOR_BATCH = 32
ANCHOR_INPUT_TOKENS = 512
ANCHOR_STRIDE_TOKENS = 16
ANCHOR_PREFILL_LATENCY_S = 32 / 132.0  # 132 QPS at batch 32
ANCHOR_DECODE_STRIDE_LATENCY_S = 32 / 67.0  # 67 QPS per 16-token stride
ANCHOR_PREFILL_POWER_W = 290.0
ANCHOR_DECODE_POWER_W = 147.0

#: Below this many tokens x batch, prefill latency stops shrinking (kernel
#: launch and scheduling floors dominate).
PREFILL_FLOOR_FRACTION = 0.15


@dataclass(frozen=True)
class StageCost:
    """Latency and energy of one inference stage execution (whole batch)."""

    latency_s: float
    energy_j: float


@dataclass(frozen=True)
class InferenceModel:
    """Serving cost model for one (model, GPU platform) pair.

    Parameters
    ----------
    model:
        The LLM being served.
    gpu:
        GPU platform; ``n_gpus`` defaults to the minimum count whose combined
        memory fits the model (matching the paper's Fig. 17 configurations).
    """

    model: ModelSpec = ANCHOR_MODEL
    gpu: GPUPlatform = ANCHOR_GPU
    n_gpus: int | None = None

    def __post_init__(self) -> None:
        required = self.gpu.gpus_required(self.model.min_mem_gb)
        if self.n_gpus is None:
            object.__setattr__(self, "n_gpus", required)
        elif self.n_gpus < required:
            raise ValueError(
                f"{self.model.name} needs >= {required}x {self.gpu.name} "
                f"({self.model.min_mem_gb} GB), got {self.n_gpus}"
            )

    # -- scaling helpers ------------------------------------------------------
    def _compute_scale(self) -> float:
        """Prefill slowdown vs. the anchor configuration (per token x query)."""
        model_ratio = self.model.params_b / ANCHOR_MODEL.params_b
        flops_ratio = ANCHOR_GPU.peak_tflops / self.gpu.peak_tflops
        tp = tensor_parallel_speedup(self.n_gpus)
        return model_ratio * flops_ratio / tp

    def _bandwidth_scale(self) -> float:
        """Decode slowdown vs. the anchor configuration (per token)."""
        model_ratio = self.model.params_b / ANCHOR_MODEL.params_b
        bw_ratio = ANCHOR_GPU.mem_bandwidth_gbs / self.gpu.mem_bandwidth_gbs
        tp = tensor_parallel_speedup(self.n_gpus)
        return model_ratio * bw_ratio / tp

    # -- stages ------------------------------------------------------------------
    def prefill(self, batch: int, input_tokens: int) -> StageCost:
        """Cost of prefilling *input_tokens* of context for a batch."""
        if batch <= 0 or input_tokens <= 0:
            raise ValueError("batch and input_tokens must be positive")
        work_ratio = (batch * input_tokens) / (ANCHOR_BATCH * ANCHOR_INPUT_TOKENS)
        latency = ANCHOR_PREFILL_LATENCY_S * self._compute_scale() * max(
            work_ratio, PREFILL_FLOOR_FRACTION
        )
        power = ANCHOR_PREFILL_POWER_W / ANCHOR_GPU.tdp_w * self.gpu.tdp_w * self.n_gpus
        return StageCost(latency_s=latency, energy_j=power * latency)

    def decode(self, batch: int, n_tokens: int) -> StageCost:
        """Cost of generating *n_tokens* per query for a batch.

        Decode is bandwidth-bound: weights stream once per token regardless
        of batch, so latency is batch-independent until the batch saturates
        compute; a mild superlinear term models that roof.
        """
        if batch <= 0 or n_tokens <= 0:
            raise ValueError("batch and n_tokens must be positive")
        token_ratio = n_tokens / ANCHOR_STRIDE_TOKENS
        batch_factor = max(1.0, (batch / ANCHOR_BATCH) ** 0.3)
        latency = (
            ANCHOR_DECODE_STRIDE_LATENCY_S
            * self._bandwidth_scale()
            * token_ratio
            * batch_factor
        )
        power = ANCHOR_DECODE_POWER_W / ANCHOR_GPU.tdp_w * self.gpu.tdp_w * self.n_gpus
        return StageCost(latency_s=latency, energy_j=power * latency)

    # -- conveniences -------------------------------------------------------------
    def prefill_qps(self, batch: int, input_tokens: int) -> float:
        """Steady-state prefill throughput in queries/s."""
        return batch / self.prefill(batch, input_tokens).latency_s

    def decode_stride_qps(self, batch: int, stride_tokens: int) -> float:
        """Steady-state per-stride decode throughput in queries/s."""
        return batch / self.decode(batch, stride_tokens).latency_s

    def generation_latency(
        self, batch: int, input_tokens: int, output_tokens: int
    ) -> float:
        """Prefill + full decode latency, no retrieval (GPU-only inference)."""
        pre = self.prefill(batch, input_tokens)
        dec = self.decode(batch, output_tokens)
        return pre.latency_s + dec.latency_s

