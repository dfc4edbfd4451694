"""Strided RAG generation timeline.

Composes the four pipeline stages of the paper's Fig. 3 — query encoding,
retrieval, prefill, decode — into TTFT / end-to-end latency and per-device
energy. The overlap rule is written once, in :func:`stride_timeline`: each
stride's query side (encode + retrieval) either blocks after the previous
stride's inference block or was issued at that block's start and ran under
it. The analytic model (:func:`simulate_generation`) and the live stride
scheduler (:mod:`repro.serving.pipeline`) both feed it per-stride durations
and read back ``ttft_s``, ``e2e_s`` and the span intervals; the disciplines
the paper compares are just different inputs:

- **sequential** (unoptimized baseline): no stride overlapped;
- **prefix-cached** (RAGCache): prefill after the first stride shrinks to the
  newly generated tokens (ideal 100% KV hit rate, §3 Takeaway 3);
- **pipelined** (PipeRAG) / accepted **lookahead** (TeleRAG): every later
  stride overlapped, costing ``max(block, encode + retrieval)`` — which is
  why pipelining stops helping once retrieval dwarfs inference on large
  datastores;
- any combination (Hermes composes with both).

Retrieval is supplied per stride as a :class:`RetrievalCost`, so monolithic,
naively split, and Hermes retrieval all plug into the same timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..obs.trace import Tracer
from ..perfmodel.measurements import EncoderCostModel
from .inference import InferenceModel, StageCost
from .kvcache import IdealPrefixCache


@dataclass(frozen=True)
class RetrievalCost:
    """Latency and energy of one batched retrieval call."""

    latency_s: float
    energy_j: float

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.energy_j < 0:
            raise ValueError("retrieval latency and energy must be non-negative")


#: Supplies the retrieval cost of stride *i* (0-based).
RetrievalProvider = Callable[[int], RetrievalCost]


def constant_retrieval(cost: RetrievalCost) -> RetrievalProvider:
    """Provider returning the same cost every stride (steady-state serving)."""

    def provide(stride_index: int) -> RetrievalCost:
        del stride_index
        return cost

    return provide


@dataclass(frozen=True)
class GenerationConfig:
    """Serving configuration for one generation run (paper §5 defaults)."""

    batch: int = 32
    input_tokens: int = 512
    output_tokens: int = 256
    stride: int = 16
    pipelined: bool = False
    prefix_cached: bool = False

    def __post_init__(self) -> None:
        if min(self.batch, self.input_tokens, self.output_tokens, self.stride) <= 0:
            raise ValueError("batch, token counts, and stride must be positive")

    @property
    def n_strides(self) -> int:
        """Number of retrieval strides to generate all output tokens."""
        return math.ceil(self.output_tokens / self.stride)


@dataclass(frozen=True)
class GenerationResult:
    """Latency/energy outcome of one simulated generation batch."""

    ttft_s: float
    e2e_s: float
    encode_s: float
    retrieval_s: float
    prefill_s: float
    decode_s: float
    first_retrieval_s: float
    first_prefill_s: float
    cpu_energy_j: float
    gpu_energy_j: float
    config: GenerationConfig

    @property
    def total_energy_j(self) -> float:
        return self.cpu_energy_j + self.gpu_energy_j

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Per-stage busy time (sums can exceed e2e when pipelined)."""
        return {
            "encoding": self.encode_s,
            "retrieval": self.retrieval_s,
            "prefill": self.prefill_s,
            "decoding": self.decode_s,
        }

    @property
    def retrieval_fraction_of_ttft(self) -> float:
        """Retrieval share of TTFT (the paper quotes 61% @10B, 94% @100B)."""
        if self.ttft_s <= 0:
            return 0.0
        return self.first_retrieval_s / self.ttft_s


@dataclass(frozen=True)
class StrideTimes:
    """Stage durations (seconds) of one stride of one request.

    ``overlapped`` says the stride's query side (encode + retrieval) was
    issued at the start of the previous stride's inference block and ran
    under it. ``verify_s`` is the true-query encode a lookahead stride pays
    after that block; ``wasted_s`` is a mis-speculated prefetch window that
    ran under the block before the stride fell back to a blocking search.
    ``retrieval_attrs`` ride on the stride's result-bearing retrieval span.
    """

    encode_s: float
    retrieval_s: float
    prefill_s: float
    decode_s: float
    verify_s: float = 0.0
    wasted_s: float = 0.0
    overlapped: bool = False
    retrieval_attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Timeline:
    """One request's virtual timeline from t=0.

    ``intervals`` is the ordered list of ``(stage, worker, start_s, end_s,
    attrs)``; same-worker intervals are disjoint and the last one ends at
    ``e2e_s``.
    """

    ttft_s: float
    e2e_s: float
    intervals: tuple


def stride_timeline(
    strides: Sequence[StrideTimes], *, encode_worker: str = "cpu"
) -> Timeline:
    """The stride-overlap rule: per-stride durations in, timeline out.

    With ``block`` the previous stride's ``prefill + decode``, each stride
    costs

    - ``block + verify + encode + retrieval`` when it blocks (sequential, or
      a mis-speculation whose ``wasted_s`` prefetch ran under the block —
      clamped to the block on the cpu track, the full window in the attrs);
    - ``max(block, encode + retrieval) + verify`` when ``overlapped``.

    Nothing precedes stride 0, so it blocks whatever its flag says and
    ``ttft = encode[0] + retrieval[0] + prefill[0]`` in every discipline.
    Retrieval always runs on worker ``cpu`` and prefill/decode on ``gpu``;
    the encoder is on the host in live serving and on the GPU in the
    analytic model (which encodes once, up front), hence ``encode_worker``.
    Zero-length encode/verify intervals are omitted.
    """
    intervals: list = []

    def emit(stage: str, worker: str, start: float, end: float, **attrs) -> None:
        intervals.append((stage, worker, start, end, attrs))

    ttft_s = 0.0
    t = 0.0  # start of the previous stride's inference block ...
    block = 0.0  # ... and its length
    for i, s in enumerate(strides):
        window = s.encode_s + s.retrieval_s
        spec = {"speculative": True} if s.overlapped else {}
        if s.overlapped:
            query_at = t
            verify_at = t + max(block, window)
            t = verify_at + s.verify_s
        else:
            if s.wasted_s:
                emit(
                    "retrieval", "cpu", t, t + min(s.wasted_s, block), stride=i,
                    speculative=True, wasted=True, measured_window_s=s.wasted_s,
                )
            verify_at = t + block
            query_at = verify_at + s.verify_s
            t = query_at + window
        if s.verify_s:
            emit(
                "encode", encode_worker, verify_at, verify_at + s.verify_s,
                stride=i, verify=True,
            )
        if s.encode_s:
            emit(
                "encode", encode_worker, query_at, query_at + s.encode_s,
                stride=i, **spec,
            )
        emit(
            "retrieval", "cpu", query_at + s.encode_s, query_at + window,
            stride=i, **s.retrieval_attrs, **spec,
        )
        block = s.prefill_s + s.decode_s
        emit("prefill", "gpu", t, t + s.prefill_s, stride=i)
        emit("decode", "gpu", t + s.prefill_s, t + block, stride=i)
        if i == 0:
            ttft_s = t + s.prefill_s
    return Timeline(ttft_s=ttft_s, e2e_s=t + block, intervals=tuple(intervals))


def record_timeline(tracer: Tracer, name: str, timeline: Timeline, **attrs) -> None:
    """Emit *timeline* as one span tree: a ``timeline``-worker root closing
    at ``e2e_s`` with one child span per interval."""
    root = tracer.start_span(name, start_s=0.0, worker="timeline", **attrs)
    for stage, worker, start_s, end_s, span_attrs in timeline.intervals:
        tracer.record(
            stage, start_s=start_s, end_s=end_s, parent=root, worker=worker,
            **span_attrs,
        )
    root.finish(timeline.e2e_s)


def stride_costs(
    inference: InferenceModel, config: GenerationConfig, stride_index: int
) -> tuple[StageCost, StageCost]:
    """Modelled ``(prefill, decode)`` cost of one stride.

    Prefill covers the full context, or only the newly generated tokens
    after stride 0 under prefix caching; the last stride decodes whatever
    output remains. Every consumer of a per-stride inference cost (the
    timeline, the inference window) reads it from here.
    """
    fraction = 1.0
    if config.prefix_cached:
        fraction = IdealPrefixCache(
            input_tokens=config.input_tokens, stride_tokens=config.stride
        ).prefill_fraction(stride_index)
    tokens = max(1, int(round(config.input_tokens * fraction)))
    remaining = config.output_tokens - stride_index * config.stride
    return (
        inference.prefill(config.batch, tokens),
        inference.decode(config.batch, min(config.stride, remaining)),
    )


def inference_block_s(inference: InferenceModel, config: GenerationConfig) -> float:
    """Stride 0's inference block (full prefill + one stride of decode): the
    window a retrieval must fit in to hide under pipelined inference."""
    prefill, decode = stride_costs(inference, config, 0)
    return prefill.latency_s + decode.latency_s


def simulate_generation(
    retrieval: RetrievalProvider,
    inference: InferenceModel,
    config: GenerationConfig,
    *,
    tracer: Tracer | None = None,
) -> GenerationResult:
    """Run the strided-generation timeline and return its latency/energy.

    The query is encoded once; each of the ``n_strides`` strides retrieves,
    prefills (full context, or the cached fraction under RAGCache), and
    decodes ``stride`` tokens. Under pipelining, every later stride's
    retrieval overlaps the previous stride's inference; energy is unaffected
    by overlap (both devices are busy), only wall-clock latency changes.
    Encoding is costed by :class:`EncoderCostModel`. With an enabled
    ``tracer`` the timeline is emitted as a ``generation`` span tree on a
    virtual clock from t=0.
    """
    encoder = EncoderCostModel()
    n_strides = config.n_strides
    encode_s = encoder.batch_latency(config.batch)
    retrieval_costs = [retrieval(i) for i in range(n_strides)]
    prefill_costs, decode_costs = zip(
        *(stride_costs(inference, config, i) for i in range(n_strides))
    )

    timeline = stride_timeline(
        [
            StrideTimes(
                encode_s=encode_s if i == 0 else 0.0,
                retrieval_s=r.latency_s,
                prefill_s=p.latency_s,
                decode_s=d.latency_s,
                overlapped=config.pipelined and i > 0,
            )
            for i, (r, p, d) in enumerate(
                zip(retrieval_costs, prefill_costs, decode_costs)
            )
        ],
        encode_worker="gpu",
    )
    if tracer is not None and tracer.enabled:
        record_timeline(
            tracer,
            "generation",
            timeline,
            batch=config.batch,
            strides=n_strides,
            pipelined=config.pipelined,
            prefix_cached=config.prefix_cached,
            e2e_s=timeline.e2e_s,
        )

    return GenerationResult(
        ttft_s=timeline.ttft_s,
        e2e_s=timeline.e2e_s,
        encode_s=encode_s,
        retrieval_s=sum(r.latency_s for r in retrieval_costs),
        prefill_s=sum(p.latency_s for p in prefill_costs),
        decode_s=sum(d.latency_s for d in decode_costs),
        first_retrieval_s=retrieval_costs[0].latency_s,
        first_prefill_s=prefill_costs[0].latency_s,
        cpu_energy_j=sum(r.energy_j for r in retrieval_costs),
        gpu_energy_j=encoder.batch_energy(config.batch)
        + sum(p.energy_j for p in prefill_costs)
        + sum(d.energy_j for d in decode_costs),
        config=config,
    )
