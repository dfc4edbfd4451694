"""rag_strides: the live lookahead RAG pipeline at a retrieval-heavy point.

The only workload with the paper's headline numbers. Blocking retrieval is
about half of TTFT and a quarter of a sequential stride (BENCH_e2e: 6 %), so
retrieval work is visible in TTFT while lookahead E2E stays block-bound: a
retrieval speed-up should move latency (TTFT) here and barely move
throughput (1 / E2E), an overlap or speculation change the reverse.
"""

from __future__ import annotations

import numpy as np

import harness as h
import spec
from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher
from repro.datastore.chunkstore import ChunkStore
from repro.datastore.corpus import CorpusGenerator, TokenVocabulary, chunk_documents
from repro.datastore.encoder import SyntheticEncoder
from repro.llm.inference import InferenceModel
from repro.llm.models import PHI_1_5
from repro.serving.pipeline import PipelineConfig, RAGServingPipeline
from workload import NDCG_SAMPLE, Workload, clock, evenly

#: Frontend-span components retrieval[0] is split into.
PARTS = ("cache", "route", "deep", "merge", "frontend_self")


def telescoped(result, block_s: float, slow: float = 1.0) -> float:
    """Rebuild ``e2e_s`` from a request's public stride records.

    *slow* divides every measured (CPU-side) term and leaves the modelled
    inference block alone: the request's timeline at reference machine speed.
    """
    strides = result.strides
    t = (strides[0].encode_s + strides[0].retrieval_s) / slow
    for nxt in strides[1:]:
        if nxt.speculative:  # prefetch overlapped the block, then verified
            window = (nxt.encode_s + nxt.retrieval_s) / slow
            t += max(block_s, window) + nxt.verify_s / slow
        elif nxt.fallback_s:  # mis-speculation: verify, then a fresh search
            t += block_s + (nxt.verify_s + nxt.retrieval_s) / slow
        else:  # sequential
            t += block_s + (nxt.encode_s + nxt.retrieval_s) / slow
    return t + block_s


def e2e_parts(result, block_s: float, prefill_s: float) -> tuple:
    """(encode, blocking retrieval, exposed speculative retrieval, modelled
    prefill, modelled decode): the terms of :func:`telescoped`, grouped."""
    strides = result.strides
    encode = strides[0].encode_s
    blocking = strides[0].retrieval_s
    exposed = 0.0
    for nxt in strides[1:]:
        if nxt.speculative:
            exposed += max(0.0, nxt.encode_s + nxt.retrieval_s - block_s)
            encode += nxt.verify_s
        elif nxt.fallback_s:
            encode += nxt.verify_s
            blocking += nxt.retrieval_s
        else:
            encode += nxt.encode_s
            blocking += nxt.retrieval_s
    n = len(strides)
    return encode, blocking, exposed, n * prefill_s, n * (block_s - prefill_s)


class RagStrides(Workload):
    name = "rag_strides"

    def setup(self) -> None:
        sz = self.sz
        t0 = clock()
        vocab = TokenVocabulary(n_topics=sz["n_topics"], pool_size=200, common_size=100)
        generator = CorpusGenerator(
            vocab, doc_tokens=sz["doc_tokens"], topical_fraction=0.8, seed=50_000 + self.seed)
        self.chunks = chunk_documents(
            generator.generate(sz["docs"]), chunk_tokens=sz["chunk_tokens"])
        t1 = clock()
        self.encoder = SyntheticEncoder(dim=sz["dim"], seed=0)
        self.vectors = self.encoder.encode_chunks(self.chunks)
        t2 = clock()
        self.ds = cluster_datastore(self.vectors, HermesConfig(k=spec.K))
        t3 = clock()
        self.searcher = HermesSearcher(self.ds)
        self.searcher.search(self.vectors[:32])  # first warm search
        self.stage_s = {"corpus": t1 - t0, "encode": t2 - t1, "build": t3 - t2}
        self.inference = InferenceModel(model=PHI_1_5)
        self.store = ChunkStore(self.chunks)
        self.pipeline = self._pipeline("lookahead")
        self.frontend = self.pipeline.frontend
        self.sequential = None

    def _pipeline(self, mode: str) -> RAGServingPipeline:
        sz = self.sz
        config = PipelineConfig(
            mode=mode, n_strides=sz["n_strides"], stride_tokens=sz["stride_tokens"],
            k=spec.K, speculation_threshold=sz["speculation_threshold"],
        )
        return RAGServingPipeline(
            self.searcher, self.encoder, self.store, config=config,
            inference=self.inference, seed=self.seed,
        )

    def close(self) -> None:
        for pipeline in (self.pipeline, self.sequential):
            if pipeline is not None:
                pipeline.close()
        self.pipeline = self.sequential = None

    def instrument(self) -> None:
        proxy, self.searcher_proxy = h.instrument(self.pipeline.frontend, self.rec)
        self.pipeline.batcher.frontend = proxy
        self.searcher = self.searcher_proxy
        self.encoder = h.EncoderProxy(self.encoder, self.rec)
        self.pipeline.encoder = self.encoder

    def cohorts(self):
        """Endless seeded stream of request cohorts (token-id arrays): long
        contexts are speculation-friendly, short ones drift and fall back."""
        sz = self.sz
        rng = np.random.default_rng(60_000 + self.seed)
        while True:
            cohort = []
            for i in range(sz["n_long"] + sz["n_short"]):
                source = self.chunks[int(rng.integers(len(self.chunks)))].tokens
                size = sz["long_tokens"] if i < sz["n_long"] else sz["short_tokens"]
                cohort.append(np.asarray(rng.choice(source, size=size)))
            yield cohort

    def warmup(self) -> None:
        self.stream = self.cohorts()
        self.pipeline.serve(next(self.stream))

    def serve_phase(self, pipeline, stream, seconds: float, *, toggle: bool) -> dict:
        out = {"reports": [], "began": [], "traced": []}
        rec = self.rec
        start = clock()
        stop = start + seconds
        c = 0
        while clock() < stop:
            cohort = next(stream)
            rec.enabled = toggle and c % 2 == 0
            rec.unit = c
            for _ in range(3):  # a cohort takes ~0.25 s: three probes between each
                self.speed.sample(clock() - start, force=True)
            span = rec.begin("serving.pipeline.serve", requests=len(cohort))
            out["began"].append(clock() - start)
            out["reports"].append(pipeline.serve(cohort))
            rec.end(span)
            out["traced"].append(span is not None)
            c += 1
        rec.enabled = False
        return out

    def measure(self) -> None:
        self.cache_before = self.cache_snapshot()
        stats = self.pipeline.batcher.stats
        self.batcher_before = (stats.requests, stats.batches)
        degraded_before = h.counter_total("retrieval_degraded_batches_total")
        self.phase = self.serve_phase(
            self.pipeline, self.stream, self.seconds, toggle=self.traced)
        self.degraded = self.degraded_since(degraded_before)
        self.check_lookup_conservation()

    def _ndcg(self, reports: list) -> tuple:
        """Served ids of a sample of strides vs each stride's *true* query."""
        strides = [s for r in reports for q in r.completed for s in q.strides]
        pick = evenly(len(strides), NDCG_SAMPLE)
        queries = np.stack([strides[i].true_query for i in pick])
        served = np.stack([strides[i].ids for i in pick])
        return served, h.brute_force_topk(queries, self.vectors, spec.K)

    def score(self) -> None:
        reports = self.phase["reports"]
        requests = [q for r in reports for q in r.requests]
        done = [q for q in requests if q.completed]
        shed = len(requests) - len(done)
        broken = 0
        for report in reports:
            for q in report.completed:
                first = q.strides[0]
                ttft = first.encode_s + first.retrieval_s + first.prefill_s
                broken += (abs(telescoped(q, report.block_s) - q.e2e_s) > 1e-9
                           or abs(ttft - q.ttft_s) > 1e-9)
        browned = sum(any(s.degradation_level for s in q.strides) for q in done)
        self.attempted = len(requests)
        self.failed = shed + broken + browned + self.degraded
        self.checks.add(
            "no_failures", self.failed == 0,
            f"shed {shed}, telescoping violations {broken}, brownout-served {browned}, "
            f"degraded batches {self.degraded}",
        )
        self.checks.add(
            "strides_telescope", broken == 0,
            f"{broken} requests whose stride records do not sum to e2e_s / ttft_s",
        )
        began = self.phase["began"]
        at = [t for t, r in zip(began, reports) for _ in r.completed]
        # Modelled prefill is a constant of the cost model, not machine work.
        self.put_latency(at, [q.ttft_s for q in done],
                         fixed_s=[q.strides[0].prefill_s for q in done])
        # Tokens generated per second of cohort makespan on the request
        # timeline, the makespan rebuilt with the measured terms speed-scaled.
        served = [(t, r) for t, r in zip(began, reports) if r.completed]
        at = [t for t, _ in served]
        work = [self.pipeline.config.output_tokens * len(r.completed) for _, r in served]
        self.pooled["throughput_per_s"] = sum(work) / sum(
            max(q.e2e_s for q in r.completed) for _, r in served)
        self.put_throughput(at, work, [
            max(telescoped(q, r.block_s, slow) for q in r.completed)
            for (_, r), slow in zip(served, self.speed.factor(at))
        ])
        self.score_ndcg(*self._ndcg(reports))

    # -- per-layer ----------------------------------------------------------------
    def layers(self) -> None:
        put = self.put
        reports, flags = self.phase["reports"], self.phase["traced"]
        traced = [r for r, t in zip(reports, flags) if t]
        done = [q for r in traced for q in r.completed]
        ttft = np.array([q.ttft_s for q in done])
        e2e = np.array([q.e2e_s for q in done])
        comps = h.frontend_components(self.rec)
        self.common_layers(comps)
        p50 = self.put_tracing_overhead(
            ttft, [q.ttft_s for r, t in zip(reports, flags) if not t for q in r.completed])

        put("serving.pipeline.ttft_p50_ms", 1e3 * p50, len(ttft))
        put("serving.pipeline.e2e_p50_s", h.pctl(e2e, 50), len(e2e))
        put("serving.pipeline.e2e_p95_s", h.pctl(e2e, 95), len(e2e))
        strides = [s for q in done for s in q.strides]
        put("serving.pipeline.retrieval_ms_per_stride",
            1e3 * h.median([s.retrieval_s for s in strides]), len(strides))
        put("serving.pipeline.retrieval_share_of_ttft",
            h.median([q.strides[0].retrieval_s / q.ttft_s for q in done]), len(done))
        hits = sum(r.lookahead_hits for r in traced)
        misses = sum(r.lookahead_misses for r in traced)
        put("serving.pipeline.lookahead_hit_share", h.ratio(hits, hits + misses), hits + misses)
        put("serving.pipeline.wasted_retrieval_ms_per_request",
            1e3 * h.ratio(sum(r.wasted_retrieval_s for r in traced), len(done)))
        prefill_s, block_s = strides[0].prefill_s, traced[0].block_s
        put("llm.inference.prefill_ms", 1e3 * prefill_s)
        put("llm.inference.block_ms", 1e3 * block_s)
        put("datastore.encoder.encode_chunks_s", self.stage_s["encode"])
        stats = self.pipeline.batcher.stats
        requests = stats.requests - self.batcher_before[0]
        batches = stats.batches - self.batcher_before[1]
        put("serving.batcher.mean_batch", h.ratio(requests, batches), batches)
        put("serving.batcher.batches", batches)

        # TTFT budget over the median band of requests.
        split = self._split_first_retrieval(comps, traced)
        band = h.median_band(ttft)
        encode0 = float(np.mean([done[i].strides[0].encode_s for i in band]))
        wait, cache, route, deep, merge, front = split[band].mean(axis=0)
        self.add_budget("ttft_p50", [
            ("encode", encode0), ("queue wait", wait), ("cache", cache), ("route", route),
            ("deep scan", deep), ("merge", merge), ("frontend self", front),
            ("modelled prefill", prefill_s),
        ], p50, shares=True)
        # E2E budget: exact per request from its stride records.
        band = h.median_band(e2e)
        parts = np.mean([e2e_parts(done[i], block_s, prefill_s) for i in band], axis=0)
        names = ("encode", "blocking retrieval", "exposed speculative retrieval",
                 "modelled prefill", "modelled decode")
        self.add_budget("e2e_p50", list(zip(names, parts)), h.pctl(e2e, 50), unit_s=1.0)

        # Sequential discipline over the same cohort stream, fresh caches.
        self.sequential = self._pipeline("sequential")
        seq = self.serve_phase(
            self.sequential, self.cohorts(), max(1.0, 0.25 * self.seconds), toggle=False)
        seq_e2e = [q.e2e_s for r in seq["reports"] for q in r.completed]
        put("serving.pipeline.sequential_e2e_p50_s", h.pctl(seq_e2e, 50), len(seq_e2e))
        put("serving.pipeline.overlap_gain", h.pctl(seq_e2e, 50) / h.pctl(e2e, 50))
        seq_ndcg = float(h.ndcg_at_k(*self._ndcg(seq["reports"])).mean())
        look_ndcg = float(h.ndcg_at_k(*self._ndcg(traced)).mean())
        put("serving.pipeline.ndcg_drop_vs_sequential", seq_ndcg - look_ndcg)

        self.top1_shard_recall(self.vectors)
        self.probe_index_layers(self.vectors[:32])
        if self.full_size:
            share = self.metrics["serving.pipeline.retrieval_share_of_ttft"]
            self.checks.claim(
                share >= 0.4 and hits > 0 and misses > 0,
                f"retrieval share of TTFT {share:.3f}, lookahead hits {hits}, misses {misses}",
            )

    def _split_first_retrieval(self, comps: list, traced: list) -> np.ndarray:
        """Per traced request: (queue wait, *PARTS) summing to retrieval[0].

        Frontend spans run on the batcher thread and encode spans under the
        serve span on the driver thread; both carry the cohort as ``unit``.
        A cohort's stride-0 wave is the first frontend spans covering its
        requests. A request's retrieval[0] is split by the wave's components,
        scaled down when the wave needed several batches and this request
        waited for only some of them; the remainder is queue wait. Also puts
        the span-derived pipeline metrics that need the same grouping.
        """
        sz = self.sz
        by_unit: dict = {}
        for comp in comps:
            by_unit.setdefault(comp["span"].unit, []).append(comp)
        encodes: dict = {}
        for span in self.rec.named("datastore.encode"):
            encodes.setdefault(span.unit, []).append(span.dur)
        cohort_size = sz["n_long"] + sz["n_short"]
        self_ms, rows = [], []
        for serve, report in zip(self.rec.named("serving.pipeline.serve"), traced):
            unit = sorted(by_unit.get(serve.unit, []), key=lambda c: c["span"].start)
            busy = sum(c["total"] for c in unit) + sum(encodes.get(serve.unit, []))
            self_ms.append(1e3 * (serve.dur - busy) / sz["n_strides"])
            wave, seen = [], 0
            for comp in unit:
                if seen >= cohort_size:
                    break
                wave.append(comp)
                seen += comp["queries"]
            front = sum(c["total"] for c in wave)
            for q in report.completed:
                retrieval = q.strides[0].retrieval_s
                scale = min(retrieval, front) / front if front else 0.0
                row = [scale * sum(c[k] for c in wave) for k in PARTS]
                rows.append([retrieval - sum(row), *row])
        rows = np.asarray(rows)
        every_encode = [d for durs in encodes.values() for d in durs]
        self.put("datastore.encoder.encode_us_per_query",
                 1e6 * float(np.mean(every_encode)), len(every_encode))
        self.put("serving.pipeline.self_ms_per_stride", h.median(self_ms), len(self_ms))
        self.put("serving.batcher.queue_wait_p50_ms", 1e3 * h.pctl(rows[:, 0], 50), len(rows))
        self.put("serving.batcher.queue_wait_p95_ms", 1e3 * h.pctl(rows[:, 0], 95), len(rows))
        return rows
