"""Baselines the paper compares Hermes against.

Monolithic single-index retrieval and the RAGCache prefix-cache analyses.
The naive broadcast split is :class:`repro.core.hierarchical.ExhaustiveSplitSearcher`
over :func:`repro.core.clustering.split_datastore_evenly`; the PipeRAG and
RAGCache serving disciplines are the ``pipelined`` / ``prefix_cached`` flags
of :class:`repro.llm.generation.GenerationConfig`.
"""

from .monolithic import MonolithicRetriever
from .ragcache import simulate_cache_hit_rate, stride_overlap_fraction

__all__ = [
    "MonolithicRetriever",
    "simulate_cache_hit_rate",
    "stride_overlap_fraction",
]
