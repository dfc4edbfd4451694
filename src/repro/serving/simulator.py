"""Discrete-event simulation of the online Hermes serving pipeline.

The analytical model (:mod:`repro.perfmodel`) computes closed-form
steady-state numbers; this simulator *executes* the serving system instead:
batches flow through encode → (sample → deep → prefill → decode) x strides,
contending for one GPU and one retrieval node per cluster. With several
batches in flight the retrieval fleet and the GPU overlap across batches —
the behaviour the paper's "max of stage times" throughput analysis
approximates — and the simulator reports where the approximation holds and
where queueing skews it.

Stage durations come from the same calibrated cost models as the analytical
path, so simulated and closed-form results are directly comparable (see
``tests/serving/test_simulator.py`` for the cross-validation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..llm.generation import GenerationConfig, stride_costs
from ..llm.inference import InferenceModel
from ..obs.trace import Tracer
from ..perfmodel.measurements import EncoderCostModel, RetrievalCostModel
from .events import EventLoop, Resource
from .faults import FleetFaultSchedule


@dataclass(frozen=True)
class StagePlan:
    """Per-batch stage durations driving the simulation.

    ``sample_seconds[i]`` / ``deep_seconds[i]`` are node *i*'s busy time for
    one batch's sampling / deep-search phase (0 when the node is not
    involved); GPU stages are scalars.
    """

    encode_s: float
    sample_seconds: np.ndarray
    deep_seconds: np.ndarray
    first_prefill_s: float
    later_prefill_s: float
    decode_stride_s: float
    n_strides: int

    def __post_init__(self) -> None:
        if self.n_strides <= 0:
            raise ValueError("n_strides must be positive")
        if len(self.sample_seconds) != len(self.deep_seconds):
            raise ValueError("sample and deep vectors must have equal length")

    @property
    def n_nodes(self) -> int:
        return len(self.sample_seconds)


def plan_from_models(
    config: GenerationConfig,
    *,
    shard_tokens: list[float],
    deep_loads: np.ndarray,
    inference: InferenceModel | None = None,
    encoder: EncoderCostModel | None = None,
    sample_nprobe: int = 8,
    deep_nprobe: int = 128,
) -> StagePlan:
    """Build a stage plan from the calibrated cost models.

    ``deep_loads[i]`` is the number of the batch's queries deep-searching
    cluster *i* (e.g. from :func:`repro.perfmodel.aggregate.expected_deep_loads`).
    """
    inference = inference or InferenceModel()
    encoder = encoder or EncoderCostModel()
    cost = RetrievalCostModel()
    loads = np.asarray(deep_loads, dtype=np.int64)
    if len(loads) != len(shard_tokens):
        raise ValueError("deep_loads and shard_tokens must have equal length")
    sample = np.array(
        [
            cost.batch_latency(tokens, config.batch, nprobe=sample_nprobe)
            for tokens in shard_tokens
        ]
    )
    deep = np.array(
        [
            cost.batch_latency(tokens, int(load), nprobe=deep_nprobe) if load else 0.0
            for tokens, load in zip(shard_tokens, loads)
        ]
    )
    first_prefill, decode = stride_costs(inference, config, 0)
    later_prefill, _ = stride_costs(inference, config, min(1, config.n_strides - 1))
    return StagePlan(
        encode_s=encoder.batch_latency(config.batch),
        sample_seconds=sample,
        deep_seconds=deep,
        first_prefill_s=first_prefill.latency_s,
        later_prefill_s=later_prefill.latency_s,
        decode_stride_s=decode.latency_s,
        n_strides=config.n_strides,
    )


@dataclass
class BatchRecord:
    """Lifecycle timestamps of one simulated batch."""

    batch_id: int
    submitted_at: float
    started_at: float = 0.0
    first_token_at: float = 0.0
    completed_at: float = 0.0
    #: retrieval phases that skipped a down node (graceful degradation)
    skipped_nodes: list = field(default_factory=list)

    @property
    def ttft_s(self) -> float:
        return self.first_token_at - self.submitted_at

    @property
    def latency_s(self) -> float:
        return self.completed_at - self.submitted_at

    @property
    def degraded(self) -> bool:
        """True when any retrieval phase lost a node's contribution."""
        return bool(self.skipped_nodes)


@dataclass
class ServingReport:
    """Aggregate outcome of a simulation run."""

    batches: list[BatchRecord]
    batch_size: int
    makespan_s: float
    gpu_utilization: float
    node_utilization: np.ndarray

    @property
    def throughput_qps(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return len(self.batches) * self.batch_size / self.makespan_s

    @property
    def degraded_batches(self) -> int:
        """Batches that lost at least one node's retrieval contribution."""
        return sum(1 for b in self.batches if b.degraded)

    @property
    def availability(self) -> float:
        """Fraction of batches served with full fleet coverage."""
        return 1.0 - self.degraded_batches / len(self.batches)

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean([b.latency_s for b in self.batches]))

    @property
    def mean_ttft_s(self) -> float:
        return float(np.mean([b.ttft_s for b in self.batches]))

    def latency_percentile(self, q: float) -> float:
        return float(np.percentile([b.latency_s for b in self.batches], q))

    def slo_attainment(self, latency_slo_s: float) -> float:
        """Fraction of batches completing within a latency SLO.

        The production-systems lens the paper motivates TTFT work with
        ("minimizing TTFT is crucial for ... quality of service").
        """
        if latency_slo_s <= 0:
            raise ValueError("latency_slo_s must be positive")
        met = sum(1 for b in self.batches if b.latency_s <= latency_slo_s)
        return met / len(self.batches)

    def ttft_slo_attainment(self, ttft_slo_s: float) -> float:
        """Fraction of batches whose first token arrives within the SLO."""
        if ttft_slo_s <= 0:
            raise ValueError("ttft_slo_s must be positive")
        met = sum(1 for b in self.batches if b.ttft_s <= ttft_slo_s)
        return met / len(self.batches)


class PipelineSimulator:
    """Executes a batch stream against one GPU and a retrieval fleet.

    Each batch runs its stages in order; stages contend for their resource,
    so concurrent batches pipeline naturally (batch *k+1* retrieves while
    batch *k* occupies the GPU). A retrieval phase holds **all** of its
    participating nodes and completes when the slowest finishes, matching
    the synchronous scatter-gather of the paper's distributed search.

    With a :class:`~repro.serving.faults.FleetFaultSchedule` the fleet is
    chaotic: a node that is down when a phase reaches it is either skipped
    (``dead_node_policy="skip"`` — the batch proceeds degraded, the
    searcher's deadline/breaker behaviour at serving scale) or waited for
    (``"wait"`` — the synchronous-scatter-gather worst case, where one dead
    node stalls every batch until it recovers). Straggler windows scale the
    node's phase duration by their factor (sampled at phase entry).
    """

    def __init__(
        self,
        plan: StagePlan,
        *,
        batch_size: int,
        faults: FleetFaultSchedule | None = None,
        dead_node_policy: str = "skip",
        tracer: Tracer | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if dead_node_policy not in ("skip", "wait"):
            raise ValueError(
                f"dead_node_policy must be 'skip' or 'wait', got {dead_node_policy!r}"
            )
        if faults is not None:
            if faults.n_nodes != plan.n_nodes:
                raise ValueError(
                    f"fault schedule covers {faults.n_nodes} nodes, "
                    f"plan has {plan.n_nodes}"
                )
            if dead_node_policy == "wait" and faults.has_unrecoverable:
                raise ValueError(
                    "dead_node_policy='wait' with an unrecoverable outage "
                    "would stall the simulation forever; use 'skip'"
                )
        self.plan = plan
        self.batch_size = batch_size
        self.faults = faults
        self.dead_node_policy = dead_node_policy
        self.tracer = tracer
        self.loop = EventLoop()
        self.gpu = Resource(self.loop, "gpu")
        self.nodes = [
            Resource(self.loop, f"node{i}") for i in range(plan.n_nodes)
        ]
        self._records: list[BatchRecord] = []
        #: per-batch phase marks ``(name, end_time, attrs, node_holds)``; the
        #: span tree is reconstructed from these in virtual time at report
        #: time, so simulated traces decompose exactly like measured ones.
        self._marks: list[list] = []

    @property
    def _tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    def _mark(self, record: BatchRecord, name: str, holds=None, **attrs) -> None:
        if self._tracing:
            self._marks[record.batch_id].append(
                (name, self.loop.now, attrs, holds or [])
            )

    # -- batch state machine -----------------------------------------------
    def submit(self, delay: float = 0.0) -> None:
        """Enqueue one batch *delay* seconds from now."""
        record = BatchRecord(batch_id=len(self._records), submitted_at=0.0)
        self._records.append(record)
        self._marks.append([])

        def arrive() -> None:
            record.submitted_at = self.loop.now
            self._start_encode(record)

        self.loop.schedule(delay, arrive)

    def _start_encode(self, record: BatchRecord) -> None:
        def begin() -> None:
            record.started_at = self.loop.now

            def done() -> None:
                self.gpu.release()
                # The encode phase is charged from submission, so the span
                # includes time queued behind the GPU (reported separately).
                self._mark(
                    record,
                    "encode",
                    queue_wait_s=record.started_at - record.submitted_at,
                )
                self._start_stride(record, stride=0)

            self.loop.schedule(self.plan.encode_s, done)

        self.gpu.acquire(begin)

    def _hold_node(self, i: int, duration: float, then, holds: "list | None") -> None:
        """Occupy node *i* for *duration*, logging the actual busy interval.

        The interval starts when the node is *acquired* (FIFO queueing behind
        other batches shifts it past phase entry), which is what a per-node
        span should show.
        """
        if holds is None:
            self.nodes[i].hold_for(duration, then=then)
            return
        node = self.nodes[i]

        def occupied() -> None:
            start = self.loop.now

            def done() -> None:
                node.release()
                holds.append((i, start, self.loop.now))
                then()

            self.loop.schedule(duration, done)

        node.acquire(occupied)

    def _retrieval_phase(
        self,
        durations: np.ndarray,
        record: BatchRecord,
        then_continue,
        holds: "list | None" = None,
    ) -> None:
        """Scatter a phase to all involved nodes; continue when all finish.

        Fault handling happens at phase entry: a down node is skipped (the
        batch degrades) or waited for until recovery; a straggling node's
        busy time is scaled by its slowdown factor.
        """
        involved = [i for i, d in enumerate(durations) if d > 0]
        if not involved:
            then_continue()
            return
        remaining = {"count": len(involved)}

        def node_done() -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                then_continue()

        now = self.loop.now
        for i in involved:
            duration = float(durations[i])
            if self.faults is not None:
                if self.faults.is_down(i, now):
                    if self.dead_node_policy == "skip":
                        record.skipped_nodes.append(i)
                        node_done()
                        continue
                    recovery = self.faults.recovery_time(i, now)
                    duration *= self.faults.slowdown(i, recovery)
                    self.loop.schedule(
                        recovery - now,
                        lambda i=i, d=duration: self._hold_node(
                            i, d, node_done, holds
                        ),
                    )
                    continue
                duration *= self.faults.slowdown(i, now)
            self._hold_node(i, duration, node_done, holds)

    def _start_stride(self, record: BatchRecord, stride: int) -> None:
        plan = self.plan
        sample_holds = [] if self._tracing else None
        deep_holds = [] if self._tracing else None

        def after_deep() -> None:
            self._mark(record, "deep_search", holds=deep_holds, stride=stride)
            prefill = plan.first_prefill_s if stride == 0 else plan.later_prefill_s

            def begin_gpu() -> None:
                def prefill_done() -> None:
                    if stride == 0:
                        record.first_token_at = self.loop.now
                    self._mark(record, "prefill", stride=stride)

                    def decode_done() -> None:
                        self.gpu.release()
                        self._mark(record, "decode", stride=stride)
                        if stride + 1 < plan.n_strides:
                            self._start_stride(record, stride + 1)
                        else:
                            record.completed_at = self.loop.now

                    self.loop.schedule(plan.decode_stride_s, decode_done)

                self.loop.schedule(prefill, prefill_done)

            self.gpu.acquire(begin_gpu)

        def after_sample() -> None:
            self._mark(record, "sample", holds=sample_holds, stride=stride)
            self._retrieval_phase(
                plan.deep_seconds, record, after_deep, holds=deep_holds
            )

        self._retrieval_phase(
            plan.sample_seconds, record, after_sample, holds=sample_holds
        )

    # -- driving ---------------------------------------------------------------
    def run(
        self, n_batches: int, *, arrival_interval_s: float = 0.0
    ) -> ServingReport:
        """Simulate *n_batches* arrivals and return the aggregate report.

        ``arrival_interval_s`` of 0 is a closed burst (everything queued at
        t=0, maximal pipelining); positive values model an open arrival
        process.
        """
        if n_batches <= 0:
            raise ValueError("n_batches must be positive")
        for k in range(n_batches):
            self.submit(delay=k * arrival_interval_s)
        self.loop.run()
        return self._report()

    def run_poisson(
        self, n_batches: int, *, mean_interval_s: float, seed: int = 0
    ) -> ServingReport:
        """Simulate a Poisson (memoryless) open arrival process.

        The open-loop counterpart of :meth:`run`: batch inter-arrival times
        are exponential with the given mean, the standard model for
        independent user traffic. Queueing bursts emerge naturally, which is
        what SLO attainment under load actually measures.
        """
        if n_batches <= 0:
            raise ValueError("n_batches must be positive")
        if mean_interval_s <= 0:
            raise ValueError("mean_interval_s must be positive")
        rng = np.random.default_rng(seed)
        arrival = 0.0
        for _ in range(n_batches):
            self.submit(delay=arrival)
            arrival += float(rng.exponential(mean_interval_s))
        self.loop.run()
        return self._report()

    def _emit_trace(self) -> None:
        """Reconstruct per-batch span trees in virtual (simulated) time.

        Each batch becomes a root span ``[submitted_at, completed_at]`` whose
        phase children tile the interval exactly — consecutive phases share a
        boundary, so child durations telescope to the reported batch latency
        with no gaps. Queue waits are charged to the phase that waited. Node
        busy intervals hang off their phase with ``worker="node<i>"``.
        """
        tracer = self.tracer
        for record, marks in zip(self._records, self._marks):
            root = tracer.record(
                "sim_batch",
                start_s=record.submitted_at,
                end_s=record.completed_at,
                worker=f"batch{record.batch_id}",
                batch_id=record.batch_id,
                batch_size=self.batch_size,
                degraded=record.degraded,
            )
            prev = record.submitted_at
            for name, end, attrs, holds in marks:
                phase = tracer.record(
                    name, start_s=prev, end_s=end, parent=root, **attrs
                )
                for node_id, start, stop in holds:
                    tracer.record(
                        "node_busy",
                        start_s=start,
                        end_s=stop,
                        parent=phase,
                        worker=f"node{node_id}",
                        node=node_id,
                    )
                prev = end

    def _report(self) -> ServingReport:
        if self._tracing:
            self._emit_trace()
        makespan = max(r.completed_at for r in self._records)
        gpu_util = self.gpu.busy_seconds / makespan if makespan else 0.0
        node_util = np.array(
            [n.busy_seconds / makespan if makespan else 0.0 for n in self.nodes]
        )
        return ServingReport(
            batches=list(self._records),
            batch_size=self.batch_size,
            makespan_s=makespan,
            gpu_utilization=gpu_util,
            node_utilization=node_util,
        )
