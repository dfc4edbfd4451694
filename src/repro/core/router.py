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
from dataclasses import dataclass, field

import numpy as np

from ..ann.distances import as_matrix, pairwise_distance, top_k
from ..ann.ivf import KeptScan
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

    ``kept`` is the sampling router's hand-over to the deep phase: per shard
    id, the :class:`~repro.ann.ivf.KeptScan` its dense sample filled, or
    ``None``. The searcher narrows each to the rows routed to that shard,
    passes it to the deep call, and drops it before returning.
    """

    clusters: np.ndarray
    scores: np.ndarray
    failed_clusters: frozenset = frozenset()
    kept: "tuple | None" = field(default=None, repr=False, compare=False)

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
    natural recovery path for transient sampling failures. Only shards that
    were sampled are ranked, and the fan-out is capped at their count, so an
    excluded or failed shard is never routed to, whatever ties its ``inf``
    score would win.

    Each probe gets an empty :class:`~repro.ann.ivf.KeptScan`; a shard whose
    sample ran the dense kernel fills it, and the decision's ``kept``
    carries it to that shard's deep call, which then selects from the
    sample's distances instead of computing them again.
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
        sampled = []
        kept = [None] * datastore.n_clusters
        tracer = get_tracer()
        for shard in datastore.shards:
            sid = int(shard.shard_id)
            if sid in exclude:
                continue  # a failed node cannot be sampled
            with tracer.span("sample", shard=sid, nprobe=nprobe):
                scan = KeptScan()
                try:
                    # One document per cluster: its distance is the score.
                    dists, _ = shard.search(q, 1, nprobe=nprobe, kept=scan)
                except ShardError:
                    failed.add(sid)
                    continue  # score stays inf: routing flows to survivors
                scores[:, sid] = dists[:, 0]
            sampled.append(sid)
            if scan.dists is not None:
                kept[sid] = scan
        # Rank the sampled shards only: an excluded or failed shard's inf
        # must not tie into a slot the survivors cannot fill.
        sampled = np.asarray(sampled, dtype=np.int64)
        ranked = np.empty((len(q), 0), dtype=np.int64)
        if len(sampled):
            ranked = sampled[top_k(scores[:, sampled], min(m, len(sampled)))[1]]
        return RoutingDecision(
            clusters=ranked,
            scores=scores,
            failed_clusters=frozenset(failed),
            kept=tuple(kept),
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

