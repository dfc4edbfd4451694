"""Live end-to-end RAG serving pipeline: stride scheduler + lookahead retrieval.

Until now the serving stack (:class:`ServingFrontend` / :class:`DynamicBatcher`,
admission, caching) and the generation timeline (:mod:`repro.llm.generation`)
never touched: generation consumed canned :class:`RetrievalCost` values, so
nothing end-to-end was ever actually served. This module closes that gap with
a **stride scheduler** that advances a cohort of requests through the paper's
retrieval-interleaved generation loop — encode, retrieve, prefill, decode,
stride by stride — where

- **retrieval is real**: every stride's query batch flows through the live
  :class:`DynamicBatcher` → :class:`ServingFrontend` →
  :class:`~repro.core.hierarchical.HierarchicalSearcher` path (coalescing,
  exact-digest cache with generation-aware lookups, deadline shedding), and
  its latency is *measured* wall-clock from submit to future completion;
- **GPU stages are modelled**: prefill/decode advance on the calibrated
  :class:`~repro.llm.inference.InferenceModel` clock (there is no GPU in the
  loop), exactly as the paper composes measured CPU-side retrieval with its
  GPU-side serving model.

Each request owns a virtual timeline stitched from those two clocks. The
scheduler itself only does the I/O (encode, submit/resolve retrieval waves,
verify, shed, charge energy) and records one :class:`StrideRecord` per
stride; ``ttft_s``, ``e2e_s`` and the span tree are then derived from the
records by :func:`repro.llm.generation.stride_timeline` — the one place the
overlap rule is written. Three execution disciplines are supported
(:attr:`PipelineConfig.mode`):

- ``sequential`` — stride *i+1*'s query is encoded and retrieved only after
  stride *i*'s decode completes: each stride costs ``encode + retrieval +
  block`` back to back.
- ``pipelined`` — PipeRAG-style overlap: stride *i+1*'s retrieval is issued
  with the context available when stride *i*'s inference block starts (a
  *stale* query, missing stride *i*'s decoded tokens) and runs concurrently
  with it, so each stride costs ``max(block, encode + retrieval)``. The
  stale results are used as-is; quality is whatever the stale query finds.
- ``lookahead`` — TeleRAG-style speculation on top of the overlap: the stale
  retrieval is a *speculative prefetch*. When the block ends, the true query
  (including the freshly decoded tokens) is encoded and verified against the
  speculative one; a cosine match ≥
  :attr:`PipelineConfig.speculation_threshold` accepts the prefetched
  results (``pipeline_lookahead_hits_total``) at fully-overlapped cost plus
  the verify encode, while a mis-speculation falls back to a fresh blocking
  search with the true query (``pipeline_lookahead_misses_total``), paying
  sequential cost for that stride with the speculative work wasted.

TTFT is identical under all three modes — ``encode + retrieval[0] +
prefill[0]``, the first two measured live — because the first stride has
nothing to overlap with. Generation itself is the deterministic
:func:`~repro.core.session.grounded_decode`: each stride appends tokens
sampled from the top retrieved chunk mixed with the running context, so the
query genuinely drifts and speculation genuinely risks missing.

Per-request span trees (encode/retrieval on worker ``cpu``, prefill/decode on
worker ``gpu``) are emitted on the virtual timeline when tracing is enabled,
so ``hermes-repro trace e2e`` shows the cross-worker overlap; per-stage
energy is stage power × measured time for the CPU-side stages plus the
batch-shared modelled :class:`~repro.llm.inference.StageCost` energy for the
GPU stages.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ..core.errors import DeadlineExceededError
from ..core.hierarchical import HierarchicalSearcher
from ..core.session import grounded_decode
from ..datastore.chunkstore import ChunkStore
from ..datastore.encoder import SyntheticEncoder
from ..hardware.cpu import XEON_GOLD_6448Y
from ..llm.generation import StrideTimes, record_timeline, stride_timeline
from ..llm.inference import InferenceModel
from ..obs.metrics import get_registry
from ..obs.trace import Tracer, get_tracer
from ..perfmodel.measurements import ENCODE_POWER_W
from .frontend import DynamicBatcher, ServedQuery, ServingFrontend

__all__ = [
    "PIPELINE_MODES",
    "PipelineConfig",
    "StrideRecord",
    "RequestResult",
    "PipelineReport",
    "RAGServingPipeline",
]

#: Execution disciplines of the stride scheduler.
PIPELINE_MODES = ("sequential", "pipelined", "lookahead")

#: Upper bound on waiting for any single retrieval future (a stuck batcher
#: should fail the run, not hang it).
RESULT_TIMEOUT_S = 120.0

#: Trailing context tokens a query embedding is encoded from.
CONTEXT_WINDOW = 512
#: Modelled prefill context size per stride.
INPUT_TOKENS = 512
#: Power charged for a retrieval's measured wall time (the CPU node).
RETRIEVAL_POWER_W = XEON_GOLD_6448Y.active_power_w


@dataclass(frozen=True)
class PipelineConfig:
    """One serving run's configuration.

    The whole cohort rides one GPU batch: the stride scheduler advances all
    requests in lockstep, so the cohort *is* the inference batch.
    ``deadline_s`` is each request's end-to-end wall-clock budget,
    propagated into every per-stride retrieval submit so the batcher sheds
    a request whose budget is spent. The speculation threshold is the
    cosine floor between the speculative and true query embeddings for a
    lookahead hit.
    """

    mode: str = "sequential"
    n_strides: int = 4
    stride_tokens: int = 16
    grounding: float = 0.5
    k: int = 10
    speculation_threshold: float = 0.9
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in PIPELINE_MODES:
            raise ValueError(f"mode must be one of {PIPELINE_MODES}, got {self.mode!r}")
        if min(self.n_strides, self.stride_tokens, self.k) <= 0:
            raise ValueError("n_strides, stride_tokens, k must be positive")
        if not 0.0 <= self.grounding <= 1.0:
            raise ValueError("grounding must be in [0, 1]")
        if not 0.0 < self.speculation_threshold <= 1.0:
            raise ValueError("speculation_threshold must be in (0, 1]")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    @property
    def output_tokens(self) -> int:
        return self.n_strides * self.stride_tokens


@dataclass(frozen=True)
class StrideRecord:
    """One stride of one request: what was retrieved and what it cost.

    ``encode_s`` and ``retrieval_s`` are measured wall seconds for the query
    that produced ``ids`` (the retrieval window includes the batcher's
    coalescing wait — that *is* the serving latency); ``verify_s`` is the
    true-query verification encode a lookahead stride pays after the block;
    ``prefill_s``/``decode_s`` are modelled. ``speculative`` marks results
    accepted from a stale/prefetched query; on a lookahead mis-speculation
    ``fallback_s`` carries the wasted speculative window (its encode +
    search) and ``encode_s`` is 0 because the fresh search reuses the verify
    embedding. ``query`` is the embedding that produced ``ids``;
    ``true_query`` the context-complete embedding for the stride (equal to
    ``query`` except on accepted speculative strides) — evaluation scores
    ``ids`` against ``true_query``'s ground truth.
    """

    stride: int
    encode_s: float
    retrieval_s: float
    verify_s: float
    prefill_s: float
    decode_s: float
    kind: int
    degradation_level: int
    speculative: bool
    fallback_s: float
    ids: np.ndarray
    distances: np.ndarray
    query: np.ndarray
    true_query: np.ndarray


@dataclass(frozen=True)
class RequestResult:
    """One request's end-to-end outcome on its virtual timeline.

    ``ttft_s``/``e2e_s`` are :func:`~repro.llm.generation.stride_timeline`
    over ``strides``; for a shed request that is the timeline of the strides
    served before the shed (zero when none was).
    """

    request_id: int
    mode: str
    ttft_s: float
    e2e_s: float
    strides: tuple
    lookahead_hits: int
    lookahead_misses: int
    wasted_retrieval_s: float
    cpu_energy_j: float
    gpu_energy_j: float
    shed: str | None = None

    @property
    def completed(self) -> bool:
        return self.shed is None

    @property
    def total_energy_j(self) -> float:
        return self.cpu_energy_j + self.gpu_energy_j

    @property
    def retrieval_s(self) -> float:
        """Total search seconds paid, including wasted speculative windows."""
        return float(sum(s.retrieval_s + s.fallback_s for s in self.strides))

    @property
    def encode_s(self) -> float:
        return float(sum(s.encode_s + s.verify_s for s in self.strides))


@dataclass(frozen=True)
class PipelineReport:
    """One cohort's serving outcome plus the modelled GPU operating point.

    The latency and energy summaries are over completed requests; with none
    completed (a fully shed cohort) they are NaN, not the 0.0 of a perfect
    run.
    """

    mode: str
    requests: tuple
    gpu_batch: int
    block_s: float

    @property
    def completed(self) -> tuple:
        return tuple(r for r in self.requests if r.completed)

    @property
    def shed(self) -> int:
        return sum(1 for r in self.requests if not r.completed)

    def _values(self, attr: str) -> np.ndarray:
        vals = [getattr(r, attr) for r in self.completed]
        return np.asarray(vals, dtype=np.float64) if vals else np.full(1, np.nan)

    @property
    def mean_ttft_s(self) -> float:
        return float(self._values("ttft_s").mean())

    @property
    def mean_e2e_s(self) -> float:
        return float(self._values("e2e_s").mean())

    def e2e_percentile(self, q: float) -> float:
        return float(np.percentile(self._values("e2e_s"), q))

    @property
    def mean_energy_j(self) -> float:
        return float(self._values("total_energy_j").mean())

    @property
    def lookahead_hits(self) -> int:
        return sum(r.lookahead_hits for r in self.requests)

    @property
    def lookahead_misses(self) -> int:
        return sum(r.lookahead_misses for r in self.requests)

    @property
    def lookahead_hit_rate(self) -> float:
        total = self.lookahead_hits + self.lookahead_misses
        return self.lookahead_hits / total if total else 0.0

    @property
    def wasted_retrieval_s(self) -> float:
        return float(sum(r.wasted_retrieval_s for r in self.requests))


class _Request:
    """Mutable per-request scheduler state."""

    __slots__ = (
        "rid", "context", "rng", "records", "hits", "misses",
        "wasted_s", "cpu_j", "gpu_j", "served", "deadline_at", "shed",
    )

    def __init__(self, rid: int, tokens: np.ndarray, seed: int) -> None:
        self.rid = rid
        self.context = np.asarray(tokens, dtype=np.int64)
        if not len(self.context):
            raise ValueError(f"request {rid}: query tokens must be non-empty")
        self.rng = np.random.default_rng(seed)
        self.records: list = []
        self.hits = 0
        self.misses = 0
        self.wasted_s = 0.0
        self.cpu_j = 0.0
        self.gpu_j = 0.0
        self.served: ServedQuery | None = None
        self.deadline_at: float | None = None
        self.shed: str | None = None


class _Call:
    """One in-flight retrieval: future + measured window."""

    __slots__ = ("req", "future", "submit_s", "done_s", "encode_s", "emb", "served")

    def __init__(self, req: _Request, emb: np.ndarray, encode_s: float) -> None:
        self.req = req
        self.emb = emb
        self.encode_s = encode_s
        self.future: Future | None = None
        self.submit_s = 0.0
        self.done_s = 0.0
        self.served: ServedQuery | None = None

    @property
    def wall_s(self) -> float:
        return max(self.done_s - self.submit_s, 0.0)

    @property
    def window_s(self) -> float:
        """Encode + retrieval: the stride's full query-side critical path."""
        return self.encode_s + self.wall_s


class RAGServingPipeline:
    """Stride scheduler driving live retrieval under a modelled GPU clock.

    Owns a :class:`ServingFrontend` (default cache) + :class:`DynamicBatcher`
    (default window, no admission control) over the given searcher (close
    with :meth:`close` or use as a context manager). One
    pipeline serves one mode; run separate pipelines (fresh caches) to
    compare modes fairly.
    """

    def __init__(
        self,
        searcher: HierarchicalSearcher,
        encoder: SyntheticEncoder,
        chunk_store: ChunkStore,
        *,
        config: PipelineConfig | None = None,
        inference: InferenceModel | None = None,
        tracer: Tracer | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config or PipelineConfig()
        self.encoder = encoder
        self.chunk_store = chunk_store
        self.inference = inference or InferenceModel()
        self.frontend = ServingFrontend(searcher)
        self.batcher = DynamicBatcher(self.frontend)
        self.tracer = tracer
        self.seed = seed
        self._wall = time.perf_counter

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self.batcher.close()

    def __enter__(self) -> "RAGServingPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- encoding / generation ----------------------------------------------
    def _encode(self, req: _Request) -> tuple:
        """Encode the request's current windowed context; measured."""
        t0 = self._wall()
        emb = self.encoder.encode_tokens(req.context[-CONTEXT_WINDOW:])
        return emb.astype(np.float32, copy=False), self._wall() - t0

    def _generate(self, req: _Request) -> None:
        """Grounded pseudo-decode of one stride (drifts the query)."""
        cfg = self.config
        generated = grounded_decode(
            req.rng,
            req.context,
            req.served.ids,
            self.chunk_store,
            stride_tokens=cfg.stride_tokens,
            grounding=cfg.grounding,
        )
        req.context = np.concatenate([req.context, generated])

    # -- retrieval waves -----------------------------------------------------
    def _shed(self, req: _Request, exc: BaseException, registry) -> None:
        req.shed = f"{type(exc).__name__}: {exc}"
        registry.counter(
            "pipeline_shed_total",
            "pipeline requests shed by a spent deadline",
        ).inc()

    def _submit_wave(self, calls: Sequence[_Call], registry) -> list:
        """Submit one wave of retrievals; the batcher coalesces them live."""
        submitted = []
        for call in calls:
            req = call.req
            deadline = None
            if req.deadline_at is not None:
                deadline = req.deadline_at - self._wall()
            try:
                if deadline is not None and deadline <= 0:
                    raise DeadlineExceededError(deadline, stage="pipeline")
                call.submit_s = self._wall()
                call.future = self.batcher.submit(
                    call.emb, k=self.config.k, deadline_s=deadline
                )
            except DeadlineExceededError as exc:
                self._shed(req, exc, registry)
                continue
            # Completion timestamp from the resolving thread, so wall_s is
            # the true submit→done window rather than submit→result() call.
            call.future.add_done_callback(
                lambda _f, c=call: setattr(c, "done_s", self._wall())
            )
            submitted.append(call)
        return submitted

    def _resolve_wave(self, calls: Sequence[_Call], registry) -> list:
        """Wait for a wave; sheds requests whose retrieval hit the deadline."""
        resolved = []
        for call in calls:
            try:
                call.served = call.future.result(timeout=RESULT_TIMEOUT_S)
            except DeadlineExceededError as exc:
                self._shed(call.req, exc, registry)
                continue
            if not call.done_s:  # pragma: no cover - callback always ran
                call.done_s = self._wall()
            resolved.append(call)
        return resolved

    def _retrieve_blocking(self, reqs: Sequence[_Request], registry) -> dict:
        """Encode + retrieve one wave synchronously; returns rid -> _Call."""
        calls = []
        for req in reqs:
            emb, encode_s = self._encode(req)
            calls.append(_Call(req, emb, encode_s))
        resolved = self._resolve_wave(self._submit_wave(calls, registry), registry)
        return {c.req.rid: c for c in resolved}

    def _charge_cpu(self, req: _Request, call: _Call, verify_s: float = 0.0) -> None:
        req.cpu_j += RETRIEVAL_POWER_W * call.wall_s
        req.cpu_j += ENCODE_POWER_W * (call.encode_s + verify_s)

    # -- main loop -----------------------------------------------------------
    def serve(self, requests: Sequence[np.ndarray]) -> PipelineReport:
        """Serve one cohort of token-id query requests end to end.

        Only the I/O happens here; each stride's measured and modelled
        durations go into a :class:`StrideRecord`, and the request timelines
        are derived from the records once the cohort is done.
        """
        cfg = self.config
        registry = get_registry()
        tracer = self.tracer if self.tracer is not None else get_tracer()
        reqs = [
            _Request(i, tokens, self.seed + 7919 * i)
            for i, tokens in enumerate(requests)
        ]
        if not reqs:
            raise ValueError("serve needs at least one request")
        registry.counter(
            "pipeline_requests_total", "requests entering the serving pipeline"
        ).inc(len(reqs))
        if cfg.deadline_s is not None:
            start = self._wall()
            for req in reqs:
                req.deadline_at = start + cfg.deadline_s

        gpu_batch = len(reqs)
        prefill = self.inference.prefill(gpu_batch, INPUT_TOKENS)
        decode = self.inference.decode(gpu_batch, cfg.stride_tokens)
        # Batch-shared modelled GPU energy per stride per request.
        gpu_stride_j = (prefill.energy_j + decode.energy_j) / gpu_batch

        record = partial(self._record_stride, prefill=prefill, decode=decode)

        # Stride 0: nothing to overlap with — encode + blocking retrieval in
        # every mode.
        first = self._retrieve_blocking(reqs, registry)
        live = [r for r in reqs if r.shed is None]
        for req in live:
            self._charge_cpu(req, first[req.rid])
            record(req, 0, first[req.rid])

        overlap = cfg.mode in ("pipelined", "lookahead")
        for i in range(cfg.n_strides):
            if not live:
                break
            last = i + 1 >= cfg.n_strides

            # 1. Overlap modes issue stride i+1's retrieval at block-i start
            #    from the *current* (pre-decode) context — the stale query.
            spec: list = []
            if overlap and not last:
                calls = []
                for req in live:
                    emb, encode_s = self._encode(req)
                    calls.append(_Call(req, emb, encode_s))
                spec = self._submit_wave(calls, registry)
                live = [r for r in live if r.shed is None]

            # 2. The inference block runs on the modelled GPU clock; the
            #    pseudo-decode's tokens drift the context for the true query.
            for req in live:
                self._generate(req)
                req.gpu_j += gpu_stride_j
            if last:
                break

            # 3. Obtain stride i+1's results per discipline.
            if not overlap:
                nxt = self._retrieve_blocking(live, registry)
                live = [r for r in live if r.shed is None]
                for req in live:
                    self._charge_cpu(req, nxt[req.rid])
                    record(req, i + 1, nxt[req.rid])
                continue

            resolved = {c.req.rid: c for c in self._resolve_wave(spec, registry)}
            live = [r for r in live if r.shed is None]
            fallback = []
            for req in live:
                call = resolved[req.rid]
                true_emb, verify_s = self._encode(req)
                if cfg.mode == "pipelined":
                    # PipeRAG: stale results are used unconditionally. The
                    # true-query embedding is kept for evaluation only (its
                    # encode is neither charged nor on the timeline).
                    self._charge_cpu(req, call)
                    record(req, i + 1, call, speculative=True, true_query=true_emb)
                    continue
                self._charge_cpu(req, call, verify_s)
                if float(call.emb @ true_emb) >= cfg.speculation_threshold:
                    req.hits += 1
                    registry.counter(
                        "pipeline_lookahead_hits_total",
                        "speculative stride retrievals verified and reused",
                    ).inc()
                    record(
                        req, i + 1, call,
                        speculative=True, verify_s=verify_s, true_query=true_emb,
                    )
                else:
                    req.misses += 1
                    req.wasted_s += call.window_s
                    registry.counter(
                        "pipeline_lookahead_misses_total",
                        "mis-speculated stride retrievals re-searched fresh",
                    ).inc()
                    # Fresh search reuses the verify embedding: encode_s=0.
                    fallback.append((_Call(req, true_emb, 0.0), verify_s, call.window_s))

            if fallback:
                self._resolve_wave(
                    self._submit_wave([c for c, _, _ in fallback], registry), registry
                )
                live = [r for r in live if r.shed is None]
                for call, verify_s, wasted_s in fallback:
                    if call.req.shed is None:
                        call.req.cpu_j += RETRIEVAL_POWER_W * call.wall_s
                        record(
                            call.req, i + 1, call,
                            verify_s=verify_s, fallback_s=wasted_s,
                        )

        results = [self._finish_request(req, registry, tracer) for req in reqs]
        return PipelineReport(
            mode=cfg.mode,
            requests=tuple(results),
            gpu_batch=gpu_batch,
            block_s=prefill.latency_s + decode.latency_s,
        )

    # -- bookkeeping ---------------------------------------------------------
    def _record_stride(
        self,
        req: _Request,
        stride: int,
        call: _Call,
        *,
        prefill,
        decode,
        speculative: bool = False,
        verify_s: float = 0.0,
        fallback_s: float = 0.0,
        true_query: np.ndarray | None = None,
    ) -> None:
        """Adopt *call*'s results as the request's stride and log its costs."""
        served = req.served = call.served
        req.records.append(
            StrideRecord(
                stride=stride,
                encode_s=call.encode_s,
                retrieval_s=call.wall_s,
                verify_s=verify_s,
                prefill_s=prefill.latency_s,
                decode_s=decode.latency_s,
                kind=int(served.kind),
                degradation_level=int(served.degradation_level),
                speculative=speculative,
                fallback_s=fallback_s,
                ids=np.asarray(served.ids).copy(),
                distances=np.asarray(served.distances).copy(),
                query=call.emb,
                true_query=call.emb if true_query is None else true_query,
            )
        )

    def _finish_request(self, req: _Request, registry, tracer: Tracer) -> RequestResult:
        """Derive the request's timeline (and span tree) from its records."""
        timeline = stride_timeline(
            [
                StrideTimes(
                    encode_s=rec.encode_s,
                    retrieval_s=rec.retrieval_s,
                    prefill_s=rec.prefill_s,
                    decode_s=rec.decode_s,
                    verify_s=rec.verify_s,
                    wasted_s=rec.fallback_s,
                    overlapped=rec.speculative,
                    retrieval_attrs={"kind": rec.kind},
                )
                for rec in req.records
            ]
        )
        if req.shed is None:
            registry.histogram(
                "pipeline_ttft_seconds", "measured time to first token"
            ).observe(timeline.ttft_s)
            registry.histogram(
                "pipeline_e2e_seconds", "measured end-to-end request latency"
            ).observe(timeline.e2e_s)
            if tracer.enabled:
                record_timeline(
                    tracer,
                    "request",
                    timeline,
                    request=req.rid,
                    mode=self.config.mode,
                    strides=len(req.records),
                    ttft_s=timeline.ttft_s,
                    e2e_s=timeline.e2e_s,
                    lookahead_hits=req.hits,
                    lookahead_misses=req.misses,
                )
        return RequestResult(
            request_id=req.rid,
            mode=self.config.mode,
            ttft_s=timeline.ttft_s,
            e2e_s=timeline.e2e_s,
            strides=tuple(req.records),
            lookahead_hits=req.hits,
            lookahead_misses=req.misses,
            wasted_retrieval_s=req.wasted_s,
            cpu_energy_j=req.cpu_j,
            gpu_energy_j=req.gpu_j,
            shed=req.shed,
        )
