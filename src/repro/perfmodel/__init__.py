"""Multi-node performance analysis tool (the paper's Fig. 15 methodology).

Calibrated single-node measurement models plus trace-driven multi-node
aggregation of latency, energy, and throughput.
"""

from .aggregate import (
    DistributedRetrievalResult,
    DVFSPolicy,
    MultiNodeModel,
    PhaseResult,
    expected_deep_loads,
)
from .measurements import (
    FIG4_MEASUREMENTS,
    FIG4_MEMORY_GB,
    REF_BATCH,
    REF_DATASTORE_TOKENS,
    REF_NPROBE,
    REF_RETRIEVAL_LATENCY_S,
    SQ8_BYTES_PER_VECTOR,
    TOKENS_PER_VECTOR,
    EncoderCostModel,
    RetrievalCostModel,
    index_memory_bytes,
    vectors_for_tokens,
)
from .trace import BatchRouting, ClusterAccessTrace, routing_to_batch

__all__ = [
    "DistributedRetrievalResult",
    "DVFSPolicy",
    "MultiNodeModel",
    "PhaseResult",
    "expected_deep_loads",
    "FIG4_MEASUREMENTS",
    "FIG4_MEMORY_GB",
    "REF_BATCH",
    "REF_DATASTORE_TOKENS",
    "REF_NPROBE",
    "REF_RETRIEVAL_LATENCY_S",
    "SQ8_BYTES_PER_VECTOR",
    "TOKENS_PER_VECTOR",
    "EncoderCostModel",
    "RetrievalCostModel",
    "index_memory_bytes",
    "vectors_for_tokens",
    "BatchRouting",
    "ClusterAccessTrace",
    "routing_to_batch",
]
