"""Figure 13: cluster size and access-frequency imbalance.

Left panel: K-means cluster sizes after the seed sweep still vary (the paper
measures largest/smallest ≈ 2x). Right panel: deep-search access frequency
over NQ-like queries is also skewed (hottest accessed >2x the coldest).
Together these motivate the DVFS load balancing of §4.2.

This is a *real-search* experiment: the clustering is a real K-means split
and the access counts come from actually routing 512 NQ-like queries with
the Hermes sampling router.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hierarchical import HermesSearcher
from ..perfmodel.trace import ClusterAccessTrace, routing_to_batch
from .common import clustered_accuracy_datastore, nq_queries


@dataclass(frozen=True)
class ImbalanceReport:
    """Both panels of Figure 13."""

    cluster_sizes: np.ndarray
    access_counts: np.ndarray

    @property
    def size_imbalance(self) -> float:
        return float(self.cluster_sizes.max()) / float(self.cluster_sizes.min())

    @property
    def access_imbalance(self) -> float:
        coldest = self.access_counts.min()
        if coldest == 0:
            return float("inf")
        return float(self.access_counts.max()) / float(coldest)


def run(*, clusters_to_search: int = 3, batch_size: int = 128) -> ImbalanceReport:
    """Cluster the corpus, route NQ-like queries, tally accesses."""
    datastore = clustered_accuracy_datastore()
    queries = nq_queries().embeddings
    searcher = HermesSearcher(datastore)
    trace = ClusterAccessTrace(n_clusters=datastore.n_clusters)
    for start in range(0, len(queries), batch_size):
        batch = queries[start : start + batch_size]
        result = searcher.search(batch, clusters_to_search=clusters_to_search)
        trace.record(routing_to_batch(result.routing))
    return ImbalanceReport(
        cluster_sizes=datastore.sizes(), access_counts=trace.access_counts()
    )
