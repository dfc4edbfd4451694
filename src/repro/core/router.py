"""Cluster-routing strategies: which shards should a query deep-search?

Fig. 11 of the paper compares three ways of picking clusters:

- **Hermes (document sampling)**: run a cheap low-nProbe search into every
  cluster, retrieve one real document from each, and rank clusters by that
  document's similarity to the query. Real documents beat centroid
  generalisations, which is the paper's key accuracy argument.
- **Centroid-based**: rank clusters by query-to-centroid similarity only.
- **All (naive)**: search every cluster (the naive-split baseline's only
  option, since random shards have no routable structure).

Routers return, per query, the ranked cluster ids to deep-search; Hermes's
router also reports the sampling work so the performance model can charge
for it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..ann.distances import as_matrix, pairwise_distance, top_k
from ..obs.trace import get_tracer
from .clustering import ClusteredDatastore
from .errors import ShardError


@dataclass(frozen=True)
class RoutingDecision:
    """Routing output for one query batch.

    ``clusters`` is ``(nq, m)``: ranked shard ids per query (best first).
    ``scores`` carries the per-(query, shard) routing distances (smaller is
    better) for all shards, useful for diagnostics and ablations.
    ``failed_clusters`` lists shards whose sampling probe raised a
    :class:`~repro.core.errors.ShardError`: they score ``inf`` (routed
    around) and the searcher reports them as failed.
    """

    clusters: np.ndarray
    scores: np.ndarray
    failed_clusters: frozenset = frozenset()

    @property
    def batch_size(self) -> int:
        return len(self.clusters)

    @property
    def fanout(self) -> int:
        return self.clusters.shape[1]


class ClusterRouter(abc.ABC):
    """Strategy interface for deep-search cluster selection."""

    name: str = "router"

    @abc.abstractmethod
    def route(
        self,
        queries: np.ndarray,
        datastore: ClusteredDatastore,
        m: int,
        *,
        exclude: frozenset = frozenset(),
    ) -> RoutingDecision:
        """Pick the *m* clusters each query should deep-search.

        ``exclude`` lists failed/unreachable clusters (node-failure
        handling): they are never probed nor routed to.
        """

    @staticmethod
    def _check_fanout(m: int, datastore: ClusteredDatastore, exclude: frozenset) -> int:
        alive = datastore.n_clusters - len(exclude)
        if alive <= 0:
            raise ValueError("no clusters left alive to route to")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return min(m, alive)


class SampledRouter(ClusterRouter):
    """Hermes document-sampling router (§4.2).

    Every cluster is probed with a low nProbe for its single most similar
    document; clusters are ranked by that document's distance to the query.

    Sampling is best-effort: a probe that raises a
    :class:`~repro.core.errors.ShardError` (crash, transient blip, modelled
    fault) leaves the cluster's score at ``inf`` so routing flows to the
    survivors, and the shard is reported via ``failed_clusters``. The cheap
    probes are not retried — the next batch re-probes anyway, which is the
    natural recovery path for transient sampling failures.
    """

    name = "hermes-sampled"

    def __init__(self, *, sample_nprobe: int | None = None) -> None:
        self.sample_nprobe = sample_nprobe

    def route(
        self,
        queries: np.ndarray,
        datastore: ClusteredDatastore,
        m: int,
        *,
        exclude: frozenset = frozenset(),
    ) -> RoutingDecision:
        q = as_matrix(queries)
        nprobe = self.sample_nprobe or datastore.config.sample_nprobe
        m = self._check_fanout(m, datastore, exclude)
        scores = np.full((len(q), datastore.n_clusters), np.inf, dtype=np.float32)
        failed = set()
        tracer = get_tracer()
        for shard in datastore.shards:
            if shard.shard_id in exclude:
                continue  # a failed node cannot be sampled
            with tracer.span("sample", shard=int(shard.shard_id), nprobe=nprobe):
                try:
                    # One document per cluster: its distance is the score.
                    dists, _ = shard.search(q, 1, nprobe=nprobe)
                except ShardError:
                    failed.add(int(shard.shard_id))
                    continue  # score stays inf: routing flows to survivors
                scores[:, shard.shard_id] = dists[:, 0]
        _, ranked = top_k(scores, m)
        return RoutingDecision(
            clusters=ranked, scores=scores, failed_clusters=frozenset(failed)
        )


class CentroidRouter(ClusterRouter):
    """Centroid-only router (Fig. 11's "Centroid-Based" ablation)."""

    name = "centroid"

    def route(
        self,
        queries: np.ndarray,
        datastore: ClusteredDatastore,
        m: int,
        *,
        exclude: frozenset = frozenset(),
    ) -> RoutingDecision:
        q = as_matrix(queries)
        m = self._check_fanout(m, datastore, exclude)
        scores = pairwise_distance(q, datastore.centroids(), datastore.config.metric)
        scores = scores.astype(np.float32)
        for dead in exclude:
            scores[:, dead] = np.inf
        _, ranked = top_k(scores, m)
        return RoutingDecision(clusters=ranked, scores=scores)


class AllRouter(ClusterRouter):
    """Search-everything router (naive distributed baseline)."""

    name = "all"

    def route(
        self,
        queries: np.ndarray,
        datastore: ClusteredDatastore,
        m: int,
        *,
        exclude: frozenset = frozenset(),
    ) -> RoutingDecision:
        q = as_matrix(queries)
        del m  # the naive baseline always searches every live cluster
        n = datastore.n_clusters
        alive = np.array(
            [c for c in range(n) if c not in exclude], dtype=np.int64
        )
        if not len(alive):
            raise ValueError("no clusters left alive to route to")
        clusters = np.tile(alive, (len(q), 1))
        scores = np.zeros((len(q), n), dtype=np.float32)
        for dead in exclude:
            scores[:, dead] = np.inf
        return RoutingDecision(clusters=clusters, scores=scores)

