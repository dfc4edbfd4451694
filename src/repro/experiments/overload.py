"""Overload sweep: goodput, tail latency, and failover under excess load.

The north-star deployment serves "heavy traffic from millions of users", so
the serving layer must stay bounded-latency when offered load exceeds
capacity and when nodes die — not just when everything is healthy. This
experiment drives the real serving stack (:class:`DynamicBatcher` →
:class:`ServingFrontend` → :class:`HierarchicalSearcher`) two ways:

- **Open-loop load sweep.** Capacity is first calibrated closed-loop (a
  saturating burst through a warmed batcher, the median of a few). Then, per offered-load
  multiple λ/capacity, a seeded Poisson arrival process lasting at least
  :data:`POINT_DEADLINES` deadlines replays the query stream twice: once
  through an admission-controlled batcher (bounded queue,
  per-request deadline, CoDel shedding, brownout ladder) and once through
  the legacy unbounded-queue batcher with no deadline. The metric that
  matters is **goodput** — requests completed *within their deadline* per
  second. An unbounded queue completes everything late past capacity, so
  its goodput collapses; admission control rejects the excess in
  microseconds and keeps the admitted requests' p99 inside the deadline.
- **Mid-sweep node kill.** The same query stream runs against a healthy
  fleet, a 2-replica fleet (:func:`replicate_datastore`) that loses one
  replica of *every* cluster mid-run, and an unreplicated fleet that loses
  whole clusters mid-run. Replica failover re-serves each affected call
  from the surviving copy, so NDCG@10 after the kill stays equal to the
  healthy baseline; the unreplicated fleet permanently loses the dead
  clusters' topics and its NDCG drops.

``hermes-repro overload`` prints both sections and writes the JSON
artifact; ``--smoke`` runs a reduced configuration and asserts the
acceptance properties (admission goodput > unbounded goodput at 2×
capacity; failover NDCG equal to healthy while no-replica degrades).
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict, dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from ..core.errors import AdmissionRejectedError, DeadlineExceededError
from ..core.hierarchical import HermesSearcher
from ..core.policy import FLEET_POLICY, RetryBudget
from ..datastore.queries import trivia_queries
from ..metrics.ndcg import ndcg_single
from ..serving.admission import AdmissionConfig
from ..serving.faults import CrashStop, FaultInjector
from ..serving.frontend import DynamicBatcher, ServingFrontend
from ..serving.replication import kill_replica, replica_groups, replicate_datastore
from .common import (
    accuracy_corpus,
    clustered_accuracy_datastore,
    monolithic_accuracy_retriever,
)

#: Offered-load multiples of calibrated capacity swept by default.
LOAD_SWEEP = (0.5, 1.0, 2.0)
#: Retrieval depth for the quality metric (NDCG@10).
K_OVERLOAD = 10
#: Timed calibration bursts; their median rate is the capacity. One burst lasts
#: about a tenth of a second, so a busy host can halve a single reading; the
#: fastest of several would size the admission queue for a host that is
#: faster than the one the sweep then runs on.
CALIBRATION_BURSTS = 3
#: Shortest load point, in deadlines. An unbounded queue at 2x capacity
#: falls one more second behind per second, so it misses deadlines only once
#: the point outlasts the deadline several times over; a point of one
#: deadline lets it serve everything in time and look as good as admission.
POINT_DEADLINES = 8


@dataclass(frozen=True)
class LoadPoint:
    """One offered-load operating point of one batcher configuration."""

    load: float
    offered_qps: float
    offered: int
    admitted: int
    rejected: int
    shed: int
    completed: int
    within_deadline: int
    goodput_qps: float
    goodput_frac: float
    p50_ms: float
    p99_ms: float
    mean_degradation: float
    ndcg: float


@dataclass(frozen=True)
class FailoverPoint:
    """One fleet configuration of the mid-run node-kill comparison."""

    config: str
    ndcg_before: float
    ndcg_after: float
    failovers: int
    replicas_out: int


@dataclass(frozen=True)
class OverloadReport:
    """Both sections plus the calibration they are normalised against."""

    capacity_qps: float
    deadline_ms: float
    max_queue: int
    admission: tuple
    no_admission: tuple
    failover: tuple


class _Completion:
    """Done-callback sink: records completion wall times off the worker."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.done_s: dict = {}

    def watch(self, idx: int, future) -> None:
        def _done(_f, idx=idx):
            now = self._clock()
            with self._lock:
                self.done_s[idx] = now

        future.add_done_callback(_done)


def _fresh_stack(
    searcher, *, max_batch: int, max_wait_s: float, admission: AdmissionConfig | None
) -> DynamicBatcher:
    frontend = ServingFrontend(searcher)
    return DynamicBatcher(
        frontend, max_batch=max_batch, max_wait_s=max_wait_s, admission=admission
    )


def calibrate_capacity(
    searcher, queries: np.ndarray, *, k: int, max_batch: int, max_wait_s: float
) -> float:
    """Closed-loop saturating bursts; returns sustainable requests/second.

    *queries* is cut into ``CALIBRATION_BURSTS + 1`` equal chunks. The first
    warms the stack untimed (worker thread, first-touch buffers), because a
    cold burst reads capacity low; each of the others is one timed burst,
    and the median rate is the capacity. The queries are distinct, so no burst
    finds another's answers in the cache.
    """
    warm, *bursts = np.array_split(np.asarray(queries), CALIBRATION_BURSTS + 1)
    rates = []
    with _fresh_stack(
        searcher, max_batch=max_batch, max_wait_s=max_wait_s, admission=None
    ) as batcher:
        for f in [batcher.submit(q, k=k) for q in warm]:
            f.result(timeout=120)
        for burst in bursts:
            t0 = time.perf_counter()
            futures = [batcher.submit(q, k=k) for q in burst]
            for f in futures:
                f.result(timeout=120)
            rates.append(len(burst) / max(time.perf_counter() - t0, 1e-9))
    return float(np.median(rates))


def _run_load_point(
    searcher,
    queries: np.ndarray,
    truth: np.ndarray,
    *,
    load: float,
    offered_qps: float,
    deadline_s: float,
    k: int,
    max_batch: int,
    max_wait_s: float,
    admission: AdmissionConfig | None,
    seed: int,
) -> LoadPoint:
    """Replay a Poisson arrival stream through one batcher configuration.

    Arrivals are compared against the wall clock, so an oversleeping
    ``time.sleep`` is compensated by the following (already-due) requests
    submitting immediately — the *average* offered rate holds even when the
    interarrival gaps are below timer resolution.
    """
    n = len(queries)
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / offered_qps, size=n))
    use_deadline = admission is not None

    batcher = _fresh_stack(
        searcher, max_batch=max_batch, max_wait_s=max_wait_s, admission=admission
    )
    completion = _Completion(time.perf_counter)
    futures: dict = {}
    submit_s: dict = {}
    rejected = 0
    try:
        t0 = time.perf_counter()
        for i in range(n):
            delay = arrivals[i] - (time.perf_counter() - t0)
            if delay > 0:
                time.sleep(delay)
            try:
                fut = batcher.submit(
                    queries[i], k=k, deadline_s=deadline_s if use_deadline else None
                )
            except AdmissionRejectedError:
                rejected += 1
                continue
            submit_s[i] = time.perf_counter()
            futures[i] = fut
            completion.watch(i, fut)
        last_submit = time.perf_counter()
        results: dict = {}
        shed = 0
        for i, fut in futures.items():
            try:
                results[i] = fut.result(timeout=120)
            except (DeadlineExceededError, AdmissionRejectedError):
                # Only genuine overload outcomes count as shed; anything else
                # (a crashed worker, a bug in the stack) must propagate, or
                # the goodput numbers silently absorb real failures.
                shed += 1
    finally:
        batcher.close()

    latencies_ms = []
    within = 0
    levels = []
    scores = []
    for i, served in results.items():
        latency = completion.done_s[i] - submit_s[i]
        latencies_ms.append(latency * 1e3)
        if latency <= deadline_s:
            within += 1
        levels.append(served.degradation_level)
        scores.append(ndcg_single(served.ids, truth[i]))
    wall = max(
        (max(completion.done_s.values()) if completion.done_s else last_submit) - t0,
        1e-9,
    )
    lat = np.asarray(latencies_ms) if latencies_ms else np.zeros(1)
    return LoadPoint(
        load=float(load),
        offered_qps=n / max(arrivals[-1], last_submit - t0, 1e-9),
        offered=n,
        admitted=n - rejected,
        rejected=rejected,
        shed=shed,
        completed=len(results),
        within_deadline=within,
        goodput_qps=within / wall,
        goodput_frac=within / n,
        p50_ms=float(np.percentile(lat, 50)),
        p99_ms=float(np.percentile(lat, 99)),
        mean_degradation=float(np.mean(levels)) if levels else 0.0,
        ndcg=float(np.mean(scores)) if scores else 0.0,
    )


def run_load_sweep(
    loads: tuple = LOAD_SWEEP,
    *,
    n_requests: int = 600,
    deadline_ms: float = 50.0,
    max_queue: int | None = None,
    max_batch: int = 32,
    max_wait_s: float = 0.002,
    k: int = K_OVERLOAD,
    seed: int = 0,
) -> tuple:
    """Calibrate capacity, then sweep offered load with/without admission.

    Every request is a unique query (no exact-cache shortcut), so each one
    pays the real route + deep-search path and the calibrated capacity is
    the search fleet's, not the cache's. A load point offers at least
    *n_requests*, and more when that many would not last
    :data:`POINT_DEADLINES` deadlines at its rate. ``max_queue=None``
    derives the admission bound from the calibration: half a deadline's
    worth of work at capacity, so a freshly admitted request's queue sojourn
    leaves the other half of its budget for the search itself. Returns
    ``(capacity_qps, max_queue, admission_points, no_admission_points)``.
    """
    corpus = accuracy_corpus()
    searcher = HermesSearcher(clustered_accuracy_datastore())
    deadline_s = deadline_ms / 1e3

    cal_n = (CALIBRATION_BURSTS + 1) * max(n_requests // 2, 4 * max_batch)
    capacity_qps = calibrate_capacity(
        searcher,
        trivia_queries(corpus.topic_model, cal_n, seed=seed + 11).embeddings,
        k=k,
        max_batch=max_batch,
        max_wait_s=max_wait_s,
    )

    span_s = POINT_DEADLINES * deadline_s
    sizes = {
        load: max(n_requests, math.ceil(load * capacity_qps * span_s)) for load in loads
    }
    pool = trivia_queries(
        corpus.topic_model, max(sizes.values()), seed=seed + 11
    ).embeddings
    _, truth = monolithic_accuracy_retriever().ground_truth(pool, k)

    if max_queue is None:
        max_queue = max(max_batch, int(capacity_qps * deadline_s * 0.5))
    admission_cfg = AdmissionConfig(
        max_queue=max_queue, default_deadline_s=deadline_s
    )
    with_admission = []
    without = []
    for load in loads:
        offered = float(load) * capacity_qps
        with_admission.append(
            _run_load_point(
                searcher,
                pool[: sizes[load]],
                truth[: sizes[load]],
                load=float(load),
                offered_qps=offered,
                deadline_s=deadline_s,
                k=k,
                max_batch=max_batch,
                max_wait_s=max_wait_s,
                admission=admission_cfg,
                seed=seed + int(load * 1000),
            )
        )
        without.append(
            _run_load_point(
                searcher,
                pool[: sizes[load]],
                truth[: sizes[load]],
                load=float(load),
                offered_qps=offered,
                deadline_s=deadline_s,
                k=k,
                max_batch=max_batch,
                max_wait_s=max_wait_s,
                admission=None,
                seed=seed + int(load * 1000),
            )
        )
    return capacity_qps, max_queue, with_admission, without


def run_failover(
    *,
    n_queries: int = 96,
    batch: int = 16,
    kill_clusters: int = 3,
    k: int = K_OVERLOAD,
    seed: int = 0,
) -> tuple:
    """Mid-run node kill: healthy vs 2-replica failover vs no replicas.

    The replicated fleet loses replica 0 of *every* cluster halfway through
    (the worst single-replica-wide event); the unreplicated fleet loses
    ``kill_clusters`` whole clusters. Each half's NDCG@10 is measured
    separately — replication should hold the after-kill half equal to the
    healthy baseline, the unreplicated fleet should degrade.
    """
    corpus = accuracy_corpus()
    clustered = clustered_accuracy_datastore()
    queries = trivia_queries(corpus.topic_model, n_queries, seed=seed + 23).embeddings
    _, truth = monolithic_accuracy_retriever().ground_truth(queries, k)
    rng = np.random.default_rng(seed)
    dead = sorted(
        int(s) for s in rng.choice(clustered.n_clusters, size=kill_clusters, replace=False)
    )

    # The fault sweep's policy plus a shared retry budget, so dead shards
    # cannot multiply retries into a storm.
    policy = dc_replace(FLEET_POLICY, retry_budget=RetryBudget())
    replicated_ds = replicate_datastore(clustered, 2)
    # Private shard list so the mid-run kill never touches the memoised
    # datastore other experiments share.
    unreplicated_ds = dc_replace(clustered, shards=list(clustered.shards))
    configs = {
        "healthy": (HermesSearcher(clustered, policy=policy), None),
        "replicated": (
            HermesSearcher(replicated_ds, policy=policy),
            lambda: [
                kill_replica(g, 0, seed=seed) for g in replica_groups(replicated_ds)
            ],
        ),
        "unreplicated": (
            HermesSearcher(unreplicated_ds, policy=policy),
            lambda: [
                unreplicated_ds.shards.__setitem__(
                    s,
                    FaultInjector(seed).wrap_shard(
                        unreplicated_ds.shards[s], CrashStop(at_call=0)
                    ),
                )
                for s in dead
            ],
        ),
    }

    half = (n_queries // (2 * batch)) * batch or batch
    points = []
    for name, (searcher, kill) in configs.items():
        frontend = ServingFrontend(searcher)
        halves = {"before": [], "after": []}
        for start in range(0, n_queries, batch):
            if start == half and kill is not None:
                kill()
            result = frontend.search(queries[start : start + batch], k=k)
            side = "before" if start < half else "after"
            for j in range(len(result.ids)):
                halves[side].append(ndcg_single(result.ids[j], truth[start + j]))
        groups = replica_groups(searcher.datastore)
        points.append(
            FailoverPoint(
                config=name,
                ndcg_before=float(np.mean(halves["before"])),
                ndcg_after=float(np.mean(halves["after"])) if halves["after"] else 0.0,
                failovers=sum(g.failovers for g in groups),
                replicas_out=sum(len(g.out_replicas()) for g in groups),
            )
        )
    return tuple(points)


def run(
    loads: tuple = LOAD_SWEEP,
    *,
    n_requests: int = 600,
    deadline_ms: float = 50.0,
    max_queue: int | None = None,
    max_batch: int = 32,
    k: int = K_OVERLOAD,
    n_failover_queries: int = 96,
    seed: int = 0,
) -> OverloadReport:
    """Both sections; see :func:`run_load_sweep` and :func:`run_failover`."""
    capacity_qps, max_queue, with_admission, without = run_load_sweep(
        loads,
        n_requests=n_requests,
        deadline_ms=deadline_ms,
        max_queue=max_queue,
        max_batch=max_batch,
        k=k,
        seed=seed,
    )
    failover = run_failover(n_queries=n_failover_queries, k=k, seed=seed)
    return OverloadReport(
        capacity_qps=capacity_qps,
        deadline_ms=deadline_ms,
        max_queue=max_queue,
        admission=tuple(with_admission),
        no_admission=tuple(without),
        failover=failover,
    )


TABLE_HEADERS = [
    "load",
    "config",
    "offered qps",
    "rejected",
    "shed",
    "goodput qps",
    "goodput",
    "p50 (ms)",
    "p99 (ms)",
    "degr",
    "NDCG",
]


def table_rows(report: OverloadReport) -> list:
    """Rows for :func:`repro.metrics.reporting.format_table`."""
    rows = []
    for label, points in (("admission", report.admission), ("unbounded", report.no_admission)):
        for p in points:
            rows.append(
                (
                    f"{p.load:.1f}x",
                    label,
                    f"{p.offered_qps:.0f}",
                    p.rejected,
                    p.shed,
                    f"{p.goodput_qps:.0f}",
                    f"{p.goodput_frac:.0%}",
                    f"{p.p50_ms:.1f}",
                    f"{p.p99_ms:.1f}",
                    f"{p.mean_degradation:.2f}",
                    f"{p.ndcg:.3f}",
                )
            )
    return rows


def smoke_check(report: OverloadReport) -> list:
    """Acceptance assertions for ``--smoke``; returns the failure list.

    At ≈2× capacity admission-controlled goodput must exceed the unbounded
    queue's — strictly, so an admission that serves nothing in time fails
    even when the unbounded queue also misses every deadline — and the
    replicated fleet's after-kill NDCG must match the healthy baseline while
    the unreplicated fleet degrades below it.
    """
    problems = []
    overload_pts = [
        (a, b)
        for a, b in zip(report.admission, report.no_admission)
        if a.load >= 2.0
    ]
    for adm, unb in overload_pts:
        if adm.goodput_qps <= unb.goodput_qps:
            problems.append(
                f"goodput with admission ({adm.goodput_qps:.0f} qps) <= without "
                f"({unb.goodput_qps:.0f} qps) at {adm.load:.1f}x capacity"
            )
    if not overload_pts:
        problems.append("no >=2x-capacity load point in the sweep")
    by_name = {p.config: p for p in report.failover}
    healthy = by_name.get("healthy")
    replicated = by_name.get("replicated")
    unreplicated = by_name.get("unreplicated")
    if healthy and replicated and unreplicated:
        if abs(replicated.ndcg_after - healthy.ndcg_after) > 1e-6:
            problems.append(
                f"replicated after-kill NDCG {replicated.ndcg_after:.4f} != "
                f"healthy {healthy.ndcg_after:.4f}"
            )
        if not unreplicated.ndcg_after < healthy.ndcg_after - 1e-3:
            problems.append(
                f"unreplicated after-kill NDCG {unreplicated.ndcg_after:.4f} did "
                f"not degrade below healthy {healthy.ndcg_after:.4f}"
            )
        if replicated.failovers <= 0:
            problems.append("replicated config recorded no failovers after the kill")
    else:
        problems.append("failover section is missing a configuration")
    return problems


def write_artifact(report: OverloadReport, path: "str | Path") -> Path:
    """Persist both sections as a JSON artifact."""
    path = Path(path)
    payload = {
        "experiment": "overload_sweep",
        "description": "open-loop offered-load sweep (goodput/p99/shed/NDCG with "
        "and without admission control) plus mid-run node-kill failover",
        "capacity_qps": report.capacity_qps,
        "deadline_ms": report.deadline_ms,
        "max_queue": report.max_queue,
        "admission": [asdict(p) for p in report.admission],
        "no_admission": [asdict(p) for p in report.no_admission],
        "failover": [asdict(p) for p in report.failover],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
