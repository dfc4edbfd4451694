"""Latency-accounting invariants over real pipeline traces.

The harness half of the observability PR: every traced slice of the
pipeline — hierarchical retrieval on the wall clock, the generation
timeline on a virtual clock — must produce span trees where time is
accounted coherently (children inside parents, same-worker siblings
serialized, same-worker child durations summing to at most the parent).
"""

import numpy as np
import pytest

from repro.core.hierarchical import HermesSearcher
from repro.llm.generation import (
    GenerationConfig,
    RetrievalCost,
    constant_retrieval,
    simulate_generation,
)
from repro.llm.inference import InferenceModel
from repro.obs.trace import Tracer, disable_tracing, enable_tracing, get_tracer
from repro.obs.validate import (
    TraceInvariantError,
    validate_span_tree,
    validate_trace,
)

pytestmark = pytest.mark.obs


# ---------------------------------------------------------------------------
# Validator semantics (synthetic trees)
# ---------------------------------------------------------------------------


def _span_tree(tracer_builder):
    tracer = Tracer(enabled=True)
    tracer_builder(tracer)
    return tracer.finished_roots()


class TestValidatorSemantics:
    def test_accepts_wellformed_tree(self):
        def build(t):
            root = t.start_span("root", start_s=0.0, worker="w")
            t.record("a", start_s=0.0, end_s=1.0, parent=root)
            t.record("b", start_s=1.0, end_s=2.0, parent=root)
            root.finish(2.0)

        roots = _span_tree(build)
        assert validate_trace(roots) == 3

    def test_rejects_unfinished_span(self):
        tracer = Tracer(enabled=True)
        root = tracer.start_span("root", start_s=0.0)
        with pytest.raises(TraceInvariantError, match="never finished"):
            validate_span_tree(root)

    def test_rejects_child_escaping_parent(self):
        def build(t):
            root = t.start_span("root", start_s=0.0, worker="w")
            t.record("late", start_s=1.5, end_s=2.5, parent=root)
            root.finish(2.0)

        with pytest.raises(TraceInvariantError, match="escapes"):
            validate_trace(_span_tree(build))

    def test_rejects_same_worker_sibling_overlap(self):
        def build(t):
            root = t.start_span("root", start_s=0.0, worker="w")
            t.record("a", start_s=0.0, end_s=1.2, parent=root)
            t.record("b", start_s=1.0, end_s=2.0, parent=root)
            root.finish(2.0)

        with pytest.raises(TraceInvariantError, match="overlap"):
            validate_trace(_span_tree(build))

    def test_allows_cross_worker_overlap(self):
        """Pipelined retrieval vs GPU: different workers may overlap."""

        def build(t):
            root = t.start_span("root", start_s=0.0, worker="timeline")
            t.record("gpu_work", start_s=0.0, end_s=1.5, parent=root, worker="gpu")
            t.record("cpu_work", start_s=0.0, end_s=1.8, parent=root, worker="cpu")
            root.finish(2.0)

        assert validate_trace(_span_tree(build)) == 3

    def test_touching_boundaries_are_not_overlap(self):
        def build(t):
            root = t.start_span("root", start_s=0.0, worker="w")
            t.record("a", start_s=0.0, end_s=1.0, parent=root)
            t.record("zero", start_s=1.0, end_s=1.0, parent=root)
            t.record("b", start_s=1.0, end_s=2.0, parent=root)
            root.finish(2.0)

        assert validate_trace(_span_tree(build)) == 4

    def test_eps_absorbs_float_noise(self):
        def build(t):
            root = t.start_span("root", start_s=0.0, worker="w")
            t.record("a", start_s=-1e-12, end_s=1.0, parent=root)
            root.finish(1.0)

        roots = _span_tree(build)
        with pytest.raises(TraceInvariantError):
            validate_trace(roots)
        assert validate_trace(roots, eps=1e-9) == 2


# ---------------------------------------------------------------------------
# Real traced retrieval (wall clock)
# ---------------------------------------------------------------------------


def _traced(search):
    """Run *search* under a fresh process-wide tracer: ``(result, the
    batch's retrieval root span, tracer)``."""
    tracer = enable_tracing()
    try:
        result = search()
    finally:
        disable_tracing()
    [root] = [r for r in tracer.finished_roots() if r.name == "retrieval"]
    return result, root, tracer


class TestTracedRetrieval:
    @pytest.fixture(scope="class")
    def traced_result(self, clustered, small_queries):
        return _traced(
            lambda: HermesSearcher(clustered).search(small_queries.embeddings, k=5)
        )

    def test_trace_validates(self, traced_result):
        _, _, tracer = traced_result
        assert validate_trace(tracer.finished_roots()) > 0

    def test_batch_has_one_finished_root_span(self, traced_result):
        _, root, _ = traced_result
        assert root.finished

    def test_phase_children_in_order(self, traced_result):
        _, root, _ = traced_result
        names = [c.name for c in root.children]
        assert names == ["route", "deep_search", "merge"]

    def test_phases_sum_to_at_most_total(self, traced_result):
        _, root, _ = traced_result
        assert sum(c.duration_s for c in root.children) <= root.duration_s

    def test_shard_fanout_spans_cover_routed_shards(self, traced_result, clustered):
        result, root, _ = traced_result
        shard_spans = root.find_all("shard_search")
        routed = set(np.unique(result.routing.clusters))
        assert {s.attrs["shard"] for s in shard_spans} == routed
        assert all(s.worker == f"shard{s.attrs['shard']}" for s in shard_spans)

    def test_threaded_fanout_also_validates(self, clustered, small_queries):
        """Parallel shard spans overlap in time but live on distinct
        workers, so the same-worker serialization invariant still holds."""
        searcher = HermesSearcher(clustered, max_workers=4)
        _, root, tracer = _traced(lambda: searcher.search(small_queries.embeddings))
        assert validate_trace(tracer.finished_roots()) > 0
        assert root.find_all("shard_search")

    def test_deadline_attempts_hold_the_shard_spans(self, clustered, small_queries):
        """A deadline runs each attempt on the caller's thread, so the
        shard's own scan span nests under its ``attempt`` span."""
        _, root, tracer = _traced(
            lambda: HermesSearcher(clustered).search(
                small_queries.embeddings, deadline_s=30.0
            )
        )
        assert validate_trace(tracer.finished_roots()) > 0
        attempts = root.find_all("attempt")
        assert len(attempts) == len(root.find_all("shard_search")) > 0
        assert all(a.find("ivf_scan") is not None for a in attempts)

    def test_no_trace_by_default(self, clustered, small_queries):
        """Tracing is off until someone opts in: a search records no span."""
        tracer = get_tracer()
        assert not tracer.enabled
        HermesSearcher(clustered).search(small_queries.embeddings)
        assert tracer.finished_roots() == []


# ---------------------------------------------------------------------------
# Generation timeline (virtual clock, cross-worker overlap)
# ---------------------------------------------------------------------------


class TestGenerationTimeline:
    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("prefix_cached", [False, True])
    def test_timeline_validates_and_matches_e2e(self, pipelined, prefix_cached):
        tracer = Tracer(enabled=True)
        config = GenerationConfig(
            batch=8,
            output_tokens=64,
            stride=16,
            pipelined=pipelined,
            prefix_cached=prefix_cached,
        )
        result = simulate_generation(
            constant_retrieval(RetrievalCost(latency_s=0.05, energy_j=10.0)),
            InferenceModel(),
            config,
            tracer=tracer,
        )
        (root,) = tracer.finished_roots()
        validate_span_tree(root)
        assert root.duration_s == pytest.approx(result.e2e_s, abs=1e-9)
        assert root.total("retrieval") == pytest.approx(result.retrieval_s)
        assert root.total("prefill") == pytest.approx(result.prefill_s)
        assert root.total("decode") == pytest.approx(result.decode_s)

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_timeline_telescopes_to_returned_e2e(self, pipelined):
        """`_emit_generation_trace` claims the root closes at ``e2e_s`` "up
        to floating-point association order": the reconstructed timeline must
        *telescope* — the last emitted span ends exactly where the request
        ends, and prefill hands off to decode with no gap inside each
        stride — for both the sequential and the pipelined schedules. (The
        gpu track may idle *between* strides: that is the sequential
        retrieval stall the pipeline exists to hide.)"""
        tracer = Tracer(enabled=True)
        config = GenerationConfig(
            batch=8, output_tokens=64, stride=16, pipelined=pipelined
        )
        result = simulate_generation(
            constant_retrieval(RetrievalCost(latency_s=0.05, energy_j=10.0)),
            InferenceModel(),
            config,
            tracer=tracer,
        )
        (root,) = tracer.finished_roots()
        last_end = max(s.end_s for s in root.walk() if s is not root)
        assert last_end == pytest.approx(result.e2e_s, abs=1e-9)
        assert root.end_s == pytest.approx(result.e2e_s, abs=1e-9)
        prefills = {s.attrs["stride"]: s for s in root.find_all("prefill")}
        decodes = {s.attrs["stride"]: s for s in root.find_all("decode")}
        assert set(prefills) == set(decodes)
        for stride, prefill in prefills.items():
            assert decodes[stride].start_s == pytest.approx(
                prefill.end_s, abs=1e-9
            )

    def test_pipelined_overlap_visible_cross_worker(self):
        """Under pipelining, stride i+1's retrieval (cpu) starts exactly
        with stride i's prefill (gpu) — TeleRAG-style overlap analysis."""
        tracer = Tracer(enabled=True)
        config = GenerationConfig(
            batch=8, output_tokens=48, stride=16, pipelined=True
        )
        simulate_generation(
            constant_retrieval(RetrievalCost(latency_s=0.5, energy_j=10.0)),
            InferenceModel(),
            config,
            tracer=tracer,
        )
        (root,) = tracer.finished_roots()
        retrievals = {s.attrs["stride"]: s for s in root.find_all("retrieval")}
        prefills = {s.attrs["stride"]: s for s in root.find_all("prefill")}
        for i in range(config.n_strides - 1):
            assert retrievals[i + 1].start_s == prefills[i].start_s
        assert all(s.worker == "cpu" for s in retrievals.values())
        assert all(s.worker == "gpu" for s in prefills.values())

    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(enabled=False)
        config = GenerationConfig(batch=8, output_tokens=32, stride=16)
        simulate_generation(
            constant_retrieval(RetrievalCost(latency_s=0.05, energy_j=10.0)),
            InferenceModel(),
            config,
            tracer=tracer,
        )
        assert tracer.finished_roots() == []
