"""Cluster-access traces.

The paper's multi-node tool pairs per-node measurements with "a trace of the
top clusters accessed during the deep search based on TriviaQA" (its Fig. 15)
to model end-to-end behaviour, and analyses access-frequency imbalance on
Natural Questions queries (its Fig. 13). This module is that artefact: the
per-cluster access bookkeeping derived from routing decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BatchRouting:
    """Deep-search routing of one query batch.

    ``clusters`` is an ``(batch, m)`` int matrix: the clusters each query
    deep-searches (``-1`` entries are ignored, supporting variable fan-out).
    """

    clusters: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.clusters)
        if arr.ndim != 2:
            raise ValueError(f"clusters must be 2-D (batch, m), got shape {arr.shape}")
        object.__setattr__(self, "clusters", arr.astype(np.int64))

    @property
    def batch_size(self) -> int:
        return len(self.clusters)

    def node_loads(self, n_clusters: int) -> np.ndarray:
        """Queries routed to each cluster in this batch (length n_clusters)."""
        flat = self.clusters.ravel()
        valid = flat[flat >= 0]
        if valid.size and valid.max() >= n_clusters:
            raise ValueError(
                f"routing references cluster {valid.max()} but only {n_clusters} exist"
            )
        return np.bincount(valid, minlength=n_clusters).astype(np.int64)


def routing_to_batch(decision) -> BatchRouting:
    """A router's :class:`~repro.core.router.RoutingDecision` as a load record:
    ``routing_to_batch(result.routing).node_loads(n)`` is the served batch's
    per-node deep-search load that ``MultiNodeModel.hermes`` costs."""
    return BatchRouting(clusters=decision.clusters)


@dataclass
class ClusterAccessTrace:
    """Accumulated routing decisions across many batches (Fig. 13/15 traces).

    Fig. 13's hottest / coldest ratio over :meth:`access_counts` is stated
    once, as ``experiments.fig13.ImbalanceReport.access_imbalance``.
    """

    n_clusters: int
    batches: list[BatchRouting] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {self.n_clusters}")

    def record(self, routing: BatchRouting) -> None:
        self.batches.append(routing)

    def __len__(self) -> int:
        return len(self.batches)

    def access_counts(self) -> np.ndarray:
        """Total deep-search accesses per cluster across the trace."""
        counts = np.zeros(self.n_clusters, dtype=np.int64)
        for batch in self.batches:
            counts += batch.node_loads(self.n_clusters)
        return counts

