"""Hermes core: the paper's primary contribution.

Datastore disaggregation (K-means split with seed sweep), hierarchical
sample-then-deep search and DVFS load balancing (a routed batch's modelled
fleet cost is :mod:`repro.perfmodel`'s).
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
    SearchResult,
)
from .policy import RetrievalPolicy, ShardCallStats, ShardHealth
from .router import (
    AllRouter,
    CentroidRouter,
    ClusterRouter,
    RoutingDecision,
    SampledRouter,
)
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
    "AllRouter",
    "CentroidRouter",
    "ClusterRouter",
    "RoutingDecision",
    "SampledRouter",
    "load_datastore",
    "save_datastore",
]
