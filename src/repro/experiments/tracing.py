"""Seeded trace-emitting runs behind ``hermes-repro trace``.

Each experiment here is a tiny, deterministic slice of the pipeline run with
tracing enabled, producing a span forest suitable for the Chrome trace
viewer and the latency-breakdown table — the reproduction's analogue of the
paper's Fig. 7/12 stage decompositions:

- ``retrieval``: build a small clustered datastore (build + cache spans) and
  run one traced hierarchical search batch (route/sample, per-shard deep
  search, merge) on the wall clock;
- ``generation``: the strided RAG generation timeline on a virtual clock,
  pipelined and prefix-cached, with cross-worker overlap visible;
- ``e2e``: the **live** stride-scheduled serving pipeline
  (:class:`~repro.serving.pipeline.RAGServingPipeline`, lookahead
  discipline) on a small corpus: one ``request`` root per served request,
  with measured encode/retrieval spans on worker ``cpu`` overlapping the
  modelled prefill/decode block on worker ``gpu`` — open the artifact in
  the Chrome viewer to see the speculative retrieval running *under* the
  inference block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.clustering import cluster_datastore
from ..core.config import HermesConfig
from ..core.hierarchical import HermesSearcher
from ..datastore.embeddings import make_corpus
from ..llm.generation import (
    GenerationConfig,
    RetrievalCost,
    constant_retrieval,
    simulate_generation,
)
from ..llm.inference import InferenceModel
from ..metrics.reporting import latency_breakdown
from ..obs.metrics import MetricsRegistry, set_registry
from ..obs.trace import Tracer, chrome_trace, set_tracer
from ..obs.validate import validate_trace
from . import serve_pipeline


@dataclass
class TraceRun:
    """Outcome of one trace experiment: validated spans + summaries."""

    experiment: str
    roots: list
    metrics: dict
    #: True when the artifact mixes wall-clock and virtual-clock trees.
    mixed_clocks: bool = False

    @property
    def n_spans(self) -> int:
        return sum(1 for r in self.roots for _ in r.walk())

    def breakdown(self) -> str:
        return latency_breakdown(
            self.roots, title=f"latency breakdown: {self.experiment}"
        )

    def chrome(self) -> dict:
        return chrome_trace(self.roots, align_roots=self.mixed_clocks)

    def write(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.chrome(), indent=2))
        return path


def _traced_retrieval(seed: int, tracer: Tracer) -> list:
    """Build a small datastore and run one traced search batch."""
    corpus = make_corpus(2_000, n_topics=4, dim=32, seed=seed)
    config = HermesConfig(
        n_clusters=4,
        clusters_to_search=2,
        nlist=8,
        build_workers=2,
        kmeans_seeds=(0, 1),
    )
    previous = set_tracer(tracer)
    try:
        datastore = cluster_datastore(corpus.embeddings, config)
        queries, _ = corpus.topic_model.sample_documents(8)
        searcher = HermesSearcher(datastore)
        searcher.search(np.asarray(queries), k=5)
    finally:
        set_tracer(previous)
    return tracer.finished_roots()


def _traced_generation(seed: int, tracer: Tracer) -> list:
    del seed  # the timeline is deterministic given the config
    config = GenerationConfig(
        batch=32, output_tokens=64, stride=16, pipelined=True, prefix_cached=True
    )
    simulate_generation(
        constant_retrieval(RetrievalCost(latency_s=0.05, energy_j=25.0)),
        InferenceModel(),
        config,
        tracer=tracer,
    )
    return tracer.finished_roots()


def _traced_e2e(seed: int, tracer: Tracer) -> list:
    """Serve a small cohort through the live pipeline, traced.

    Lookahead discipline so the artifact shows both outcomes: speculative
    retrieval spans running under the inference block (hits) and the wasted
    window + fresh search of a mis-speculation. Every root is a per-request
    virtual timeline starting at t=0, so no cross-clock alignment is needed.
    """
    serve_pipeline.run(
        ("lookahead",),
        docs=200,
        n_long=3,
        n_short=1,
        n_strides=4,
        seed=seed,
        tracer=tracer,
    )
    return tracer.finished_roots()


_EXPERIMENTS = {
    "retrieval": _traced_retrieval,
    "generation": _traced_generation,
    "e2e": _traced_e2e,
}


def run(experiment: str, *, seed: int = 0) -> TraceRun:
    """Run one seeded trace experiment; spans are invariant-validated."""
    if experiment not in _EXPERIMENTS:
        raise ValueError(
            f"unknown trace experiment {experiment!r}; "
            f"choose from {', '.join(_EXPERIMENTS)}"
        )
    registry = MetricsRegistry()
    previous_registry = set_registry(registry)
    try:
        roots = _EXPERIMENTS[experiment](seed, Tracer(enabled=True))
    finally:
        set_registry(previous_registry)
    validate_trace(roots)
    return TraceRun(
        experiment=experiment,
        roots=roots,
        metrics=registry.snapshot(),
        mixed_clocks=False,
    )


__all__ = ["TraceRun", "run"]
