"""Tests for the live end-to-end serving pipeline (stride scheduler).

The pipeline composes two clocks — measured wall time for encode/retrieval
through the live batcher, modelled :class:`InferenceModel` latency for
prefill/decode — into one virtual timeline per request. These tests pin the
timeline arithmetic (TTFT identity, sequential telescoping, trace
reconstruction closing exactly at ``e2e_s``), the discipline semantics
(speculative/verify/fallback flags, hit/miss counters), and the serving
contracts (deadline shedding, fresh-registry metrics).
"""

import numpy as np
import pytest

from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher
from repro.datastore.chunkstore import ChunkStore
from repro.datastore.corpus import CorpusGenerator, TokenVocabulary, chunk_documents
from repro.datastore.encoder import SyntheticEncoder
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer
from repro.obs.validate import validate_trace
from repro.serving.pipeline import (
    PIPELINE_MODES,
    PipelineConfig,
    RAGServingPipeline,
)

N_STRIDES = 4
THRESHOLD = 0.95


@pytest.fixture(scope="module")
def stack():
    """Small token corpus + clustered datastore + searcher + chunk store."""
    vocab = TokenVocabulary(n_topics=4, pool_size=200, common_size=100)
    gen = CorpusGenerator(vocab, doc_tokens=128, topical_fraction=0.8, seed=1)
    chunks = chunk_documents(gen.generate(150), chunk_tokens=64)
    encoder = SyntheticEncoder(dim=32, seed=0)
    datastore = cluster_datastore(
        encoder.encode_chunks(chunks),
        HermesConfig(n_clusters=4, clusters_to_search=2, nlist=8),
    )
    return HermesSearcher(datastore), encoder, ChunkStore(chunks), chunks


@pytest.fixture(scope="module")
def requests(stack):
    """Three long (speculation-friendly) + two short (drift-heavy) requests."""
    _, _, _, chunks = stack
    rng = np.random.default_rng(2)
    out = []
    for i in range(5):
        source = chunks[int(rng.integers(len(chunks)))].tokens
        out.append(np.asarray(rng.choice(source, size=64 if i < 3 else 8)))
    return out


@pytest.fixture()
def fresh_registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def serve(stack, requests, mode, *, tracer=None, **overrides):
    searcher, encoder, store, _ = stack
    config = PipelineConfig(
        mode=mode,
        n_strides=overrides.pop("n_strides", N_STRIDES),
        speculation_threshold=overrides.pop("speculation_threshold", THRESHOLD),
        **overrides,
    )
    with RAGServingPipeline(
        searcher, encoder, store, config=config, tracer=tracer, seed=0
    ) as pipeline:
        return pipeline.serve(requests)


class TestConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PipelineConfig(mode="telepathic")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_strides": 0},
            {"grounding": 1.5},
            {"speculation_threshold": 0.0},
            {"deadline_s": -1.0},
            {"k": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_output_tokens(self):
        assert PipelineConfig(n_strides=4, stride_tokens=16).output_tokens == 64

    def test_empty_cohort_rejected(self, stack, fresh_registry):
        with pytest.raises(ValueError, match="at least one"):
            serve(stack, [], "sequential")

    def test_empty_request_rejected(self, stack, fresh_registry):
        with pytest.raises(ValueError, match="non-empty"):
            serve(stack, [np.empty(0, dtype=np.int64)], "sequential")


class TestTimelineArithmetic:
    @pytest.mark.parametrize("mode", PIPELINE_MODES)
    def test_ttft_is_encode_plus_first_retrieval_plus_prefill(
        self, stack, requests, fresh_registry, mode
    ):
        """Stride 0 blocks in every discipline: the satellite TTFT identity."""
        report = serve(stack, requests, mode)
        assert report.shed == 0
        for result in report.requests:
            first = result.strides[0]
            assert result.ttft_s == pytest.approx(
                first.encode_s + first.retrieval_s + first.prefill_s, abs=1e-12
            )
            assert result.ttft_s < result.e2e_s

    def test_sequential_e2e_telescopes(self, stack, requests, fresh_registry):
        """Sequential: e2e is exactly sum of windows + n_strides blocks."""
        report = serve(stack, requests, "sequential")
        for result in report.requests:
            windows = sum(s.encode_s + s.retrieval_s for s in result.strides)
            assert result.e2e_s == pytest.approx(
                windows + N_STRIDES * report.block_s, rel=1e-9
            )

    def test_overlap_beats_sequential_e2e(self, stack, requests, fresh_registry):
        """Each overlapped stride costs max(block, window), not block+window;
        the block dominates these windows, so the win is deterministic."""
        seq = serve(stack, requests, "sequential")
        pipe = serve(stack, requests, "pipelined")
        assert pipe.mean_e2e_s < seq.mean_e2e_s

    @pytest.mark.parametrize("mode", PIPELINE_MODES)
    def test_energy_accounted(self, stack, requests, fresh_registry, mode):
        report = serve(stack, requests, mode)
        for result in report.requests:
            assert result.cpu_energy_j > 0
            assert result.gpu_energy_j > 0
            assert result.total_energy_j == pytest.approx(
                result.cpu_energy_j + result.gpu_energy_j
            )


class TestDisciplineSemantics:
    def test_sequential_never_speculates(self, stack, requests, fresh_registry):
        report = serve(stack, requests, "sequential")
        assert report.lookahead_hits == report.lookahead_misses == 0
        for result in report.requests:
            assert len(result.strides) == N_STRIDES
            for rec in result.strides:
                assert not rec.speculative
                assert rec.verify_s == 0.0 and rec.fallback_s == 0.0

    def test_pipelined_uses_stale_results_unverified(
        self, stack, requests, fresh_registry
    ):
        report = serve(stack, requests, "pipelined")
        assert report.lookahead_hits == report.lookahead_misses == 0
        for result in report.requests:
            for rec in result.strides[1:]:
                assert rec.speculative
                assert rec.verify_s == 0.0 and rec.fallback_s == 0.0
                # the evaluation query is the context-complete one, kept
                # separately from the stale query that produced the ids
                assert rec.true_query is not rec.query

    def test_lookahead_hits_and_misses(self, stack, requests, fresh_registry):
        report = serve(stack, requests, "lookahead")
        assert report.lookahead_hits > 0  # long requests barely drift
        assert report.lookahead_misses > 0  # short requests drift past 0.95
        assert (
            report.lookahead_hits + report.lookahead_misses
            == len(requests) * (N_STRIDES - 1)
        )
        for result in report.requests:
            for rec in result.strides[1:]:
                if rec.speculative:  # verified hit: pays the verify encode
                    assert rec.verify_s > 0.0 and rec.fallback_s == 0.0
                else:  # miss: wasted window recorded, fresh search reuses
                    # the verify embedding (encode_s folded into verify_s)
                    assert rec.fallback_s > 0.0 and rec.encode_s == 0.0
        wasted = sum(r.wasted_retrieval_s for r in report.requests)
        assert wasted > 0.0

    def test_counters_surface_in_registry(self, stack, requests, fresh_registry):
        report = serve(stack, requests, "lookahead")
        snapshot = fresh_registry.snapshot()
        assert snapshot["pipeline_requests_total"] == len(requests)
        assert snapshot["pipeline_lookahead_hits_total"] == report.lookahead_hits
        assert (
            snapshot["pipeline_lookahead_misses_total"] == report.lookahead_misses
        )


class TestDeadlines:
    def test_spent_deadline_sheds_every_request(
        self, stack, requests, fresh_registry
    ):
        report = serve(stack, requests, "sequential", deadline_s=1e-9)
        assert report.shed == len(requests)
        assert not report.completed
        for result in report.requests:
            assert result.shed is not None
            assert "Deadline" in result.shed
        assert fresh_registry.snapshot()["pipeline_shed_total"] == len(requests)

    def test_fully_shed_cohort_reports_no_latency_or_energy(
        self, stack, requests, fresh_registry
    ):
        """With no request completed there is nothing to average: the
        summaries are NaN, never the 0.0 s / 0.0 J of a perfect run."""
        report = serve(stack, requests, "lookahead", deadline_s=1e-9)
        assert not report.completed
        assert np.isnan(report.mean_ttft_s)
        assert np.isnan(report.mean_e2e_s)
        assert np.isnan(report.e2e_percentile(99))
        assert np.isnan(report.mean_energy_j)

    def test_generous_deadline_sheds_nothing(
        self, stack, requests, fresh_registry
    ):
        report = serve(stack, requests, "lookahead", deadline_s=120.0)
        assert report.shed == 0


class TestTrace:
    @pytest.mark.parametrize("mode", PIPELINE_MODES)
    def test_trace_telescopes_to_e2e(self, stack, requests, fresh_registry, mode):
        """The reconstructed span tree closes exactly at the measured e2e."""
        tracer = Tracer(enabled=True)
        report = serve(stack, requests, mode, tracer=tracer)
        roots = tracer.finished_roots()
        validate_trace(roots)
        assert len(roots) == len(report.requests)
        by_rid = {r.attrs["request"]: r for r in roots}
        for result in report.requests:
            root = by_rid[result.request_id]
            assert root.attrs["mode"] == mode
            assert root.end_s == pytest.approx(result.e2e_s, abs=1e-9)
            # the child cursor telescopes to the root close, i.e. the last
            # reconstructed span ends where the request ends
            assert max(c.end_s for c in root.children) == pytest.approx(
                result.e2e_s, abs=1e-9
            )

    def test_workers_and_overlap_visible(self, stack, requests, fresh_registry):
        tracer = Tracer(enabled=True)
        serve(stack, requests, "lookahead", tracer=tracer)
        overlap = 0.0
        for root in tracer.finished_roots():
            cpu = [c for c in root.children if c.name in ("encode", "retrieval")]
            gpu = [c for c in root.children if c.name in ("prefill", "decode")]
            assert all(c.worker == "cpu" for c in cpu)
            assert all(c.worker == "gpu" for c in gpu)
            for spec in cpu:
                if not spec.attrs.get("speculative"):
                    continue
                for block in gpu:
                    overlap += max(
                        0.0,
                        min(spec.end_s, block.end_s)
                        - max(spec.start_s, block.start_s),
                    )
        assert overlap > 0.0  # speculative retrieval ran under the gpu block

    def test_untraced_run_emits_nothing(self, stack, requests, fresh_registry):
        tracer = Tracer(enabled=False)
        serve(stack, requests, "lookahead", tracer=tracer)
        assert tracer.finished_roots() == []
