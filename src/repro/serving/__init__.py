"""Online serving: cache/batching frontend plus the event-driven simulator.

Three layers:

- the **serve-time frontend** (:mod:`repro.serving.cache`,
  :mod:`repro.serving.frontend`): an exact-digest LRU retrieval cache and a
  dynamic batcher that coalesces and dedupes cache-missing queries in front
  of the hierarchical searcher;
- the **discrete-event simulator** complementing the closed-form multi-node
  model with batches contending for the GPU and the retrieval fleet;
- the **fault models** (crash-stop, transient, straggler) that chaos-test
  the fleet both per-batch (:mod:`repro.serving.faults` wrapping live
  shards) and at serving scale (:class:`FleetFaultSchedule` driving the
  simulator);
- the **overload layer** (:mod:`repro.serving.admission`,
  :mod:`repro.serving.replication`): bounded-queue admission control,
  deadline shedding, the brownout degradation ladder, and health-aware
  replica groups with automatic failover and probe-based recovery;
- the **live end-to-end pipeline** (:mod:`repro.serving.pipeline`): a stride
  scheduler that drives real batched retrieval through the frontend per
  generation stride while prefill/decode advance on the calibrated inference
  clock, with PipeRAG-style overlap and TeleRAG-style lookahead retrieval.
"""

from .admission import (
    DEGRADATION_BUCKETS,
    AdmissionConfig,
    AdmissionController,
    BrownoutKnobs,
)
from .cache import (
    EXACT_HIT,
    MISS,
    CacheConfig,
    CacheLookup,
    RetrievalCache,
    RetrievalCacheStats,
)
from .events import EventLoop, Resource
from .frontend import (
    BatcherStats,
    DynamicBatcher,
    FrontendResult,
    ServedQuery,
    ServingFrontend,
)
from .faults import (
    CrashStop,
    FaultEvent,
    FaultInjector,
    FaultModel,
    FaultyShard,
    FleetFaultSchedule,
    NodeOutage,
    NodeSlowdown,
    OutageWindow,
    Straggler,
    TransientFault,
    kill_shards,
)
from .node_sim import NodeScheduleResult, schedule_batch, waves_approximation_error
from .pipeline import (
    PIPELINE_MODES,
    PipelineConfig,
    PipelineReport,
    RAGServingPipeline,
    RequestResult,
    StrideRecord,
)
from .replication import ReplicaGroup, kill_replica, replica_groups, replicate_datastore
from .simulator import (
    BatchRecord,
    PipelineSimulator,
    ServingReport,
    StagePlan,
    plan_from_models,
)

__all__ = [
    "MISS",
    "EXACT_HIT",
    "CacheConfig",
    "CacheLookup",
    "RetrievalCache",
    "RetrievalCacheStats",
    "AdmissionConfig",
    "AdmissionController",
    "BrownoutKnobs",
    "DEGRADATION_BUCKETS",
    "BatcherStats",
    "DynamicBatcher",
    "FrontendResult",
    "ServedQuery",
    "ServingFrontend",
    "ReplicaGroup",
    "kill_replica",
    "replica_groups",
    "replicate_datastore",
    "EventLoop",
    "Resource",
    "CrashStop",
    "FaultEvent",
    "FaultInjector",
    "FaultModel",
    "FaultyShard",
    "FleetFaultSchedule",
    "NodeOutage",
    "NodeSlowdown",
    "OutageWindow",
    "Straggler",
    "TransientFault",
    "kill_shards",
    "NodeScheduleResult",
    "schedule_batch",
    "waves_approximation_error",
    "PIPELINE_MODES",
    "PipelineConfig",
    "PipelineReport",
    "RAGServingPipeline",
    "RequestResult",
    "StrideRecord",
    "BatchRecord",
    "PipelineSimulator",
    "ServingReport",
    "StagePlan",
    "plan_from_models",
]
