"""Hermes framework configuration (the paper's Table 2).

One dataclass gathers every tunable the paper exposes:

========================  =================================================
Configuration aspect      Tuning options (Table 2)
========================  =================================================
Latency & accuracy        sample search depth (``sample_nprobe``),
                          deep search depth (``deep_nprobe``),
                          number of clusters to search (``clusters_to_search``),
                          number of documents to retrieve (``k``)
Node scaling              number of search indices (``n_clusters``)
Memory efficiency         size of search indices (via ``n_clusters`` and the
                          quantization scheme)
========================  =================================================

The defaults are the paper's evaluated operating point: 10 clusters, sample
nProbe 8, deep nProbe 128, 3 clusters deep-searched, 5 documents retrieved
with the best 1 prepended after reranking (§5, §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class HermesConfig:
    """All Hermes tunables, with the paper's defaults."""

    #: Number of datastore clusters / search indices / retrieval nodes.
    n_clusters: int = 10
    #: nProbe of the cheap sampling search into every cluster.
    sample_nprobe: int = 8
    #: nProbe of the in-depth search into the routed clusters.
    deep_nprobe: int = 128
    #: How many top-ranked clusters receive the in-depth search.
    clusters_to_search: int = 3
    #: Documents retrieved per query by the deep search.
    k: int = 5
    #: Documents kept after reranking and prepended to the prompt.
    rerank_top: int = 1
    #: Inverted lists per cluster index; ``None`` uses the paper's
    #: ``nlist ≈ sqrt(N)`` heuristic at build time.
    nlist: int | None = None
    #: Quantization scheme of every cluster index (Table 1 pick).
    quantization: str = "sq8"
    #: Similarity metric (the paper reranks by inner product).
    metric: str = "ip"
    #: K-means seeds swept to minimise cluster-size imbalance (§4.1).
    kmeans_seeds: tuple[int, ...] = field(default=(0, 1, 2, 3, 4, 5, 6, 7))
    #: Subset fraction for the cheap imbalance-estimation runs (§4.1: 1-2%).
    kmeans_subset_fraction: float = 0.02
    #: Threads for shard builds / seed-sweep trials (None = one per task up
    #: to the host CPUs). Does not change results, only wall-clock.
    build_workers: int | None = None

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        if not 1 <= self.clusters_to_search <= self.n_clusters:
            raise ValueError(
                f"clusters_to_search must be in [1, {self.n_clusters}], "
                f"got {self.clusters_to_search}"
            )
        if self.sample_nprobe <= 0 or self.deep_nprobe <= 0:
            raise ValueError("nProbe values must be positive")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if not 1 <= self.rerank_top <= self.k:
            raise ValueError(f"rerank_top must be in [1, {self.k}]")
        if not self.kmeans_seeds:
            raise ValueError("kmeans_seeds must be non-empty")
        if not 0 < self.kmeans_subset_fraction <= 1:
            raise ValueError("kmeans_subset_fraction must be in (0, 1]")
        if self.build_workers is not None and self.build_workers <= 0:
            raise ValueError("build_workers must be positive (or None for auto)")
