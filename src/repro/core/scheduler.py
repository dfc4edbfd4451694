"""Hermes scheduler: turning routing decisions into per-node work.

The Hermes scheduler (the box in the paper's Fig. 9) receives each batch's
routing decision and dispatches per-node deep-search sub-batches. This module
bridges the algorithm layer (real searches over
:class:`~repro.core.clustering.ClusteredDatastore`) and the system layer
(:class:`~repro.perfmodel.aggregate.MultiNodeModel`): it converts routing
matrices into :class:`~repro.perfmodel.trace.BatchRouting` loads, accumulates
access traces, and evaluates batch latency/energy under a DVFS policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.node import NodeCluster
from ..perfmodel.aggregate import (
    DistributedRetrievalResult,
    DVFSPolicy,
    MultiNodeModel,
)
from ..perfmodel.measurements import index_memory_bytes
from ..perfmodel.trace import BatchRouting, ClusterAccessTrace
from .clustering import ClusteredDatastore
from .config import HermesConfig
from .router import RoutingDecision


def routing_to_batch(decision: RoutingDecision) -> BatchRouting:
    """Convert a router's decision matrix into a trace/load record."""
    return BatchRouting(clusters=decision.clusters)


@dataclass
class HermesScheduler:
    """Dispatches routed batches across the retrieval fleet.

    Built from a clustered datastore and a nominal total datastore size in
    tokens: each node hosts the shard whose token share mirrors the real
    clustering's document share, so size imbalance flows into the latency and
    DVFS models exactly as in the paper's §4.1/§4.2 analysis.
    """

    datastore: ClusteredDatastore
    total_tokens: float
    cluster: NodeCluster | None = None
    config: HermesConfig | None = None

    def __post_init__(self) -> None:
        self.config = self.config or self.datastore.config
        if self.total_tokens <= 0:
            raise ValueError("total_tokens must be positive")
        if self.cluster is None:
            # Default nodes are provisioned to fit their shard with headroom
            # (the capacity check still guards user-supplied fleets).
            largest = max(
                index_memory_bytes(t)
                for t in self.datastore.shard_token_sizes(self.total_tokens)
            )
            self.cluster = NodeCluster.homogeneous(
                self.datastore.n_clusters,
                memory_gb=max(1024.0, 2 * largest / 1e9),
            )
        if len(self.cluster) != self.datastore.n_clusters:
            raise ValueError(
                f"fleet has {len(self.cluster)} nodes but datastore has "
                f"{self.datastore.n_clusters} clusters"
            )
        shard_tokens = self.datastore.shard_token_sizes(self.total_tokens)
        shard_bytes = [index_memory_bytes(t) for t in shard_tokens]
        self.cluster.host_shards(shard_tokens, shard_bytes)
        self.model = MultiNodeModel(self.cluster)
        self.trace = ClusterAccessTrace(n_clusters=self.datastore.n_clusters)

    # -- dispatch ------------------------------------------------------------
    def dispatch(
        self,
        decision: RoutingDecision,
        *,
        dvfs: DVFSPolicy = DVFSPolicy.NONE,
        latency_target_s: float | None = None,
    ) -> DistributedRetrievalResult:
        """Model one batch's retrieval cost from its routing decision.

        Records the batch in the scheduler's access trace (the paper's
        Fig. 13/15 artefact) and returns the fleet latency/energy.
        """
        batch_routing = routing_to_batch(decision)
        self.trace.record(batch_routing)
        loads = batch_routing.node_loads(self.datastore.n_clusters)
        return self.model.hermes(
            decision.batch_size,
            loads,
            sample_nprobe=self.config.sample_nprobe,
            deep_nprobe=self.config.deep_nprobe,
            dvfs=dvfs,
            latency_target_s=latency_target_s,
        )

    def naive_dispatch(self, batch: int) -> DistributedRetrievalResult:
        """Model the naive broadcast-to-all-nodes baseline for comparison."""
        return self.model.naive_split(batch, nprobe=self.config.deep_nprobe)

    def monolithic_dispatch(self, batch: int):
        """Model the single-node monolithic baseline for comparison."""
        return self.model.monolithic(
            self.total_tokens, batch, nprobe=self.config.deep_nprobe
        )

    # -- diagnostics -----------------------------------------------------------
    def access_imbalance(self) -> float:
        """Hottest/coldest cluster access ratio accumulated so far."""
        return self.trace.imbalance()

    def mean_node_loads(self) -> np.ndarray:
        """Average per-batch deep-search load per node."""
        return self.trace.mean_loads()
