"""Discrete-event simulation of the online Hermes serving pipeline.

The analytical model (:mod:`repro.perfmodel`) computes closed-form
steady-state numbers; this simulator *executes* the serving system instead:
batches flow through encode → (sample → deep → prefill → decode) x strides,
contending for one GPU and one retrieval node per cluster. With several
batches in flight the retrieval fleet and the GPU overlap across batches —
the behaviour the paper's "max of stage times" throughput analysis
approximates — and the simulator reports where the approximation holds and
where queueing skews it.

Stage durations are the analytical path's own: per-node sample / deep seconds
from ``MultiNodeModel.hermes`` and one ``(prefill, decode)`` per stride from
:func:`~repro.llm.generation.stride_costs`. One uncontended batch is therefore
the sequential :func:`~repro.llm.generation.stride_timeline` for every config
(``tests/serving/test_simulator.py``); what the DES adds is contention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..llm.generation import GenerationConfig, stride_costs
from ..llm.inference import InferenceModel
from ..obs.trace import Tracer
from ..perfmodel.aggregate import DistributedRetrievalResult
from ..perfmodel.measurements import EncoderCostModel
from .events import EventLoop, Resource


@dataclass(frozen=True)
class StagePlan:
    """Per-batch stage durations driving the simulation.

    ``retrieval`` carries node *i*'s busy time for one batch's sampling /
    deep-search phase (0 when the node is not involved); ``strides[i]`` is
    stride *i*'s ``(prefill_s, decode_s)`` on the GPU.
    """

    encode_s: float
    retrieval: DistributedRetrievalResult
    strides: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.strides:
            raise ValueError("a plan needs at least one stride")
        if len(self.sample_seconds) != len(self.deep_seconds):
            raise ValueError("sample and deep vectors must have equal length")

    @property
    def sample_seconds(self) -> np.ndarray:
        sample = self.retrieval.sample
        # a naive-split result has no sample phase
        return np.zeros(self.n_nodes) if sample is None else sample.per_node_latency_s

    @property
    def deep_seconds(self) -> np.ndarray:
        return self.retrieval.deep.per_node_latency_s

    @property
    def n_nodes(self) -> int:
        return len(self.deep_seconds)


def plan_from_models(
    config: GenerationConfig,
    retrieval: DistributedRetrievalResult,
    *,
    inference: InferenceModel | None = None,
    encoder: EncoderCostModel | None = None,
) -> StagePlan:
    """The stage plan of one *config* batch whose retrieval the fleet model
    costed as *retrieval* (any DVFS policy, any CPU mix)."""
    inference = inference or InferenceModel()
    encoder = encoder or EncoderCostModel()
    costs = [stride_costs(inference, config, i) for i in range(config.n_strides)]
    return StagePlan(
        encode_s=encoder.batch_latency(config.batch),
        retrieval=retrieval,
        strides=tuple((prefill.latency_s, decode.latency_s) for prefill, decode in costs),
    )


@dataclass
class BatchRecord:
    """Lifecycle timestamps of one simulated batch."""

    batch_id: int
    submitted_at: float
    started_at: float = 0.0
    first_token_at: float = 0.0
    completed_at: float = 0.0

    @property
    def ttft_s(self) -> float:
        return self.first_token_at - self.submitted_at

    @property
    def latency_s(self) -> float:
        return self.completed_at - self.submitted_at


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
        return self._share_within([b.latency_s for b in self.batches], latency_slo_s)

    def ttft_slo_attainment(self, ttft_slo_s: float) -> float:
        """Fraction of batches whose first token arrives within the SLO."""
        return self._share_within([b.ttft_s for b in self.batches], ttft_slo_s)

    @staticmethod
    def _share_within(seconds: list, slo_s: float) -> float:
        if slo_s <= 0:
            raise ValueError("an SLO must be positive")
        return sum(1 for s in seconds if s <= slo_s) / len(seconds)


class PipelineSimulator:
    """Executes a batch stream against one GPU and a retrieval fleet.

    Each batch runs its stages in order; stages contend for their resource,
    so concurrent batches pipeline naturally (batch *k+1* retrieves while
    batch *k* occupies the GPU). A retrieval phase holds **all** of its
    participating nodes and completes when the slowest finishes, matching
    the synchronous scatter-gather of the paper's distributed search.
    """

    def __init__(
        self,
        plan: StagePlan,
        *,
        batch_size: int,
        tracer: Tracer | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.plan = plan
        self.batch_size = batch_size
        self.tracer = tracer
        self.loop = EventLoop()
        self.gpu = Resource(self.loop, "gpu")
        self.nodes = [
            Resource(self.loop, f"node{i}") for i in range(plan.n_nodes)
        ]
        #: every batch walks the same flat list of ``(resource, name, cost,
        #: stride)`` steps: the encode on the GPU, then per stride both
        #: retrieval phases on the nodes and the inference block on the GPU
        self._steps: list[tuple] = [("gpu", "encode", plan.encode_s, None)]
        for i, (prefill_s, decode_s) in enumerate(plan.strides):
            self._steps += [
                ("nodes", "sample", plan.sample_seconds, i),
                ("nodes", "deep_search", plan.deep_seconds, i),
                ("gpu", "prefill", prefill_s, i),
                ("gpu", "decode", decode_s, i),
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
            self._run_step(record, 0)

        self.loop.schedule(delay, arrive)

    def _run_step(self, record: BatchRecord, index: int) -> None:
        """Run step *index* of the batch, then the next; past the last, done.

        Consecutive GPU steps are one hold: the GPU is acquired entering the
        first and released leaving the last, so a stride's prefill + decode
        cannot be split by another batch.
        """
        if index == len(self._steps):
            record.completed_at = self.loop.now
            return
        resource, name, cost, stride = self._steps[index]
        holds: list = []

        def done() -> None:
            if resource == "gpu" and not self._on_gpu(index + 1):
                self.gpu.release()
            if name == "encode":
                # The encode phase is charged from submission, so the span
                # includes time queued behind the GPU (reported separately).
                self._mark(
                    record, name, queue_wait_s=record.started_at - record.submitted_at
                )
            else:
                if name == "prefill" and stride == 0:
                    record.first_token_at = self.loop.now
                self._mark(record, name, holds=holds, stride=stride)
            self._run_step(record, index + 1)

        def begin() -> None:
            if index == 0:
                record.started_at = self.loop.now
            self.loop.schedule(cost, done)

        if resource == "nodes":
            self._retrieval_phase(cost, done, holds)
        elif self._on_gpu(index - 1):
            begin()
        else:
            self.gpu.acquire(begin)

    def _on_gpu(self, index: int) -> bool:
        return 0 <= index < len(self._steps) and self._steps[index][0] == "gpu"

    def _hold_node(self, i: int, duration: float, then, holds: list) -> None:
        """Occupy node *i* for *duration*, logging the actual busy interval.

        The interval starts when the node is *acquired* (FIFO queueing behind
        other batches shifts it past phase entry), which is what a per-node
        span should show.
        """
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
        then_continue,
        holds: list,
    ) -> None:
        """Scatter a phase to all involved nodes; continue when all finish."""
        involved = [i for i, d in enumerate(durations) if d > 0]
        if not involved:
            then_continue()
            return
        remaining = {"count": len(involved)}

        def node_done() -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                then_continue()

        for i in involved:
            self._hold_node(i, float(durations[i]), node_done, holds)

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
