"""Hermes core: the paper's primary contribution.

Datastore disaggregation (K-means split with seed sweep), hierarchical
sample-then-deep search, fleet scheduling, DVFS load balancing, and the
end-to-end RAG pipeline facade.
"""

from .build_cache import (
    BuildCache,
    CacheStats,
    build_fingerprint,
    cached_cluster_datastore,
)
from .clustering import (
    ClusteredDatastore,
    IndexShard,
    cluster_datastore,
    split_datastore_evenly,
)
from .config import HermesConfig
from .dvfs_policy import DVFSComparison, evaluate_dvfs
from .errors import (
    RetrievalError,
    RetrievalUnavailableError,
    ShardCrashedError,
    ShardError,
    ShardSearchError,
    ShardTimeoutError,
    TransientShardError,
)
from .hierarchical import (
    ExhaustiveSplitSearcher,
    HermesSearcher,
    HierarchicalSearcher,
    RetrievalPolicy,
    SearchResult,
    ShardCallStats,
    ShardHealth,
)
from .pipeline import HermesSystem, RAGResponse, RetrievalOutcome
from .router import (
    AllRouter,
    CentroidRouter,
    ClusterRouter,
    RoutingDecision,
    SampledRouter,
)
from .scheduler import HermesScheduler, routing_to_batch
from .store_io import load_datastore, save_datastore

__all__ = [
    "BuildCache",
    "CacheStats",
    "build_fingerprint",
    "cached_cluster_datastore",
    "ClusteredDatastore",
    "IndexShard",
    "cluster_datastore",
    "split_datastore_evenly",
    "HermesConfig",
    "DVFSComparison",
    "evaluate_dvfs",
    "ExhaustiveSplitSearcher",
    "HermesSearcher",
    "HierarchicalSearcher",
    "RetrievalPolicy",
    "SearchResult",
    "ShardCallStats",
    "ShardHealth",
    "RetrievalError",
    "RetrievalUnavailableError",
    "ShardCrashedError",
    "ShardError",
    "ShardSearchError",
    "ShardTimeoutError",
    "TransientShardError",
    "HermesSystem",
    "RAGResponse",
    "RetrievalOutcome",
    "AllRouter",
    "CentroidRouter",
    "ClusterRouter",
    "RoutingDecision",
    "SampledRouter",
    "HermesScheduler",
    "routing_to_batch",
    "load_datastore",
    "save_datastore",
]
