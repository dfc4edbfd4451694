"""Hermes hierarchical search: sample → rank → deep search → rerank (§4.2).

The full online retrieval path over a :class:`ClusteredDatastore`. The
router's sample search ranks clusters per query, only the top
``clusters_to_search`` of them run the expensive high-nProbe search, and the
per-query candidates merge into a global top-k by distance (equivalently,
inner-product reranking for the paper's normalised embeddings).
:meth:`HierarchicalSearcher.search` reads as those steps, top to bottom.

The search result carries the routing matrix so schedulers and the
performance model can account per-node load, and the number of
shard-queries issued, the work metric behind Fig. 18's throughput/energy
curves.

Fault tolerance
---------------
One index per node (§4/§6) puts every retrieval node on the TTFT critical
path, so every deep-search call runs under :mod:`repro.core.policy`'s
:class:`~repro.core.policy.RetrievalPolicy`: a per-attempt deadline,
bounded retries of transient errors under a fleet-wide retry budget, and a
circuit breaker (:class:`~repro.core.policy.ShardHealth`) whose open shards
join the router's ``exclude`` set until a cooldown expires. The deadline
travels with each attempt as the shard call's ``timeout_s``, and the
attempt runs on the thread that issues it.

A shard that still fails yields its candidate slots as ``(+inf, -1)``
instead of raising — the batch *degrades* to the surviving clusters'
coverage (the semantic-clustering availability argument: losing one cluster
loses one topic, not a slice of every query). :class:`SearchResult` records
``failed_shards``, ``degraded``, and per-shard latency/attempt stats so
schedulers and the perfmodel can charge for retries.

Without a policy the searcher is fail-fast: an unexpected shard exception
propagates wrapped in :class:`~repro.core.errors.ShardSearchError` carrying
the shard id and routed query count.

Every deep search is a ``search`` call on the object in
``datastore.shards``, inline or on the ``max_workers`` thread pool alike, so
whatever wraps a shard — fault models, replica failover, instrumentation —
sees it.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..ann.distances import as_matrix, check_finite_rows
from ..ann.ivf import KeptScan
from ..obs.metrics import MetricHandle, MetricsRegistry, get_registry
from ..obs.trace import Span, Tracer, get_tracer
from .clustering import ClusteredDatastore, Shard
from .config import HermesConfig
from .errors import (
    DeadlineExceededError,
    RetrievalUnavailableError,
    ShardError,
    ShardSearchError,
)
from .policy import RetrievalPolicy, ShardCallStats, ShardHealth, account, run_call
from .router import AllRouter, ClusterRouter, RoutingDecision, SampledRouter


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one hierarchical (or exhaustive-split) search batch."""

    distances: np.ndarray
    ids: np.ndarray
    routing: RoutingDecision
    #: total (query, shard) deep-search pairs issued — the work measure
    shard_queries: int
    #: shards that contributed nothing: sampling failure, deep-search
    #: failure/timeout, or an open circuit breaker (user excludes are not
    #: failures — the caller asked for them)
    failed_shards: tuple = ()
    #: per-shard latency / attempt / outcome accounting
    shard_stats: tuple = ()

    @property
    def batch_size(self) -> int:
        return len(self.ids)

    @property
    def degraded(self) -> bool:
        """True when any shard's candidates are missing from the merge."""
        return bool(self.failed_shards)

    @property
    def shard_queries_attempted(self) -> int:
        """Work actually issued, counting retries (perfmodel cost)."""
        if not self.shard_stats:
            return self.shard_queries
        return int(sum(s.queries * s.attempts for s in self.shard_stats))


class ShardTask(NamedTuple):
    """One shard's slice of a batch — the unit the deep phase runs.

    All queries routed to a shard search it together, exactly how per-node
    batches form in the distributed system.
    """

    shard: Shard
    #: batch rows of the queries routed to this shard
    rows: np.ndarray
    #: for each row, which of its ``clusters_to_search`` routing slots this is
    slots: np.ndarray
    #: the shard's kept sample scan, narrowed to ``rows``, or ``None``
    kept: "KeptScan | None" = None


class ShardAnswer(NamedTuple):
    """What one :class:`ShardTask` came back with.

    ``distances`` / ``ids`` are ``(len(task.rows), k)``, or ``None`` when the
    shard's call failed under a policy (the batch degrades around it).
    """

    task: ShardTask
    distances: "np.ndarray | None"
    ids: "np.ndarray | None"
    stats: ShardCallStats


class _Batch(NamedTuple):
    """One ``search`` call's resolved inputs and trace handle, for its steps."""

    queries: np.ndarray
    k: int
    nprobe: int
    tracer: Tracer
    root: "Span"


#: What a shard call runs under when the searcher has no policy: one attempt,
#: no deadline — and a failure raises instead of degrading.
_FAIL_FAST = RetrievalPolicy()

#: The searcher's per-batch metrics, bound once (they follow set_registry).
_PHASE_LATENCY = MetricHandle(
    MetricsRegistry.histogram,
    "retrieval_latency_seconds",
    "hierarchical search phase latency (route/deep/merge/total)",
)
_BATCHES = MetricHandle(
    MetricsRegistry.counter, "retrieval_batches_total", "hierarchical search batches served"
)
_SHARD_QUERIES = MetricHandle(
    MetricsRegistry.counter, "retrieval_shard_queries_total", "deep-search (query, shard) pairs issued"
)


def check_queries(queries: np.ndarray, dim: int) -> None:
    """Refuse a query batch no shard could answer: the wrong dimension, or a
    NaN / inf entry, which would otherwise fail (or empty) a shard's scan
    and be charged to that shard. ``ValueError`` names the first bad row."""
    if queries.shape[1] != dim:
        raise ValueError(f"queries have dim {queries.shape[1]}, the datastore {dim}")
    check_finite_rows(queries, "query")


def _count_deadline_exceeded(stage: str) -> None:
    get_registry().counter(
        "retrieval_deadline_exceeded_total",
        "searches refused or cut short by an exhausted request budget",
    ).inc(stage=stage)


class HierarchicalSearcher:
    """Search driver combining a router with per-shard deep searches."""

    def __init__(
        self,
        datastore: ClusteredDatastore,
        *,
        router: ClusterRouter | None = None,
        config: HermesConfig | None = None,
        max_workers: int | None = None,
        policy: RetrievalPolicy | None = None,
        clock=None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.datastore = datastore
        self.config = config or datastore.config
        self.router = router if router is not None else SampledRouter()
        self.max_workers = max_workers
        self.policy = policy
        self.health: ShardHealth | None = None
        if policy is not None and policy.breaker_threshold is not None:
            self.health = ShardHealth(
                datastore.n_clusters,
                threshold=policy.breaker_threshold,
                cooldown=policy.breaker_cooldown,
            )
        # Injectable time source (deterministic latency-accounting tests);
        # production uses the monotonic wall clock.
        self._clock = clock if clock is not None else time.perf_counter

    # -- the search: validate → route → plan → run → merge -------------------
    def search(
        self,
        queries: np.ndarray,
        *,
        k: int | None = None,
        clusters_to_search: int | None = None,
        deep_nprobe: int | None = None,
        exclude_clusters: "frozenset | set | None" = None,
        deadline_s: float | None = None,
    ) -> SearchResult:
        """Route then deep-search a query batch; returns global top-k.

        ``deadline_s`` is the request's *remaining end-to-end budget* at call
        time (seconds). It is accounted against this searcher's clock: after
        routing, the per-attempt deadline of the deep-search policy is
        clamped to what is left of the budget, so a 50 ms request never
        launches a deep search allowed to run 200 ms; a budget that does not
        bind leaves the answer bit-identical. A budget that is
        already spent (or runs out before the deep phase starts) raises
        :class:`~repro.core.errors.DeadlineExceededError` and counts on
        ``retrieval_deadline_exceeded_total`` — callers under admission
        control shed the request instead of serving it late.

        Under the process-wide tracer (:func:`repro.obs.enable_tracing`)
        each batch records one span tree (``retrieval`` → ``route`` /
        ``deep_search`` / ``merge``, with per-shard children).

        Queries of the wrong dimension or with a NaN / inf entry raise
        ``ValueError`` (:func:`check_queries`) before anything is routed, so
        no shard is charged with a failure the request caused.

        ``exclude_clusters`` marks failed/unreachable nodes: their shards are
        neither sampled nor deep-searched, so the system degrades to the
        surviving clusters' coverage instead of erroring (node-failure
        handling for the distributed deployment). Unknown ids raise
        ``ValueError``; excluding every shard raises
        :class:`RetrievalUnavailableError`. Shards whose circuit breaker is
        open (see :class:`ShardHealth`) are excluded automatically.

        The per-shard deep searches fan out over a thread pool (numpy's BLAS
        kernels release the GIL), mirroring the paper's one-index-per-node
        parallelism in wall-clock terms, iff the searcher was built with
        ``max_workers``; otherwise they run inline, one shard after another.
        """
        q = as_matrix(queries)
        check_queries(q, self.datastore.dim)
        k, m, nprobe = self.resolve_params(k, clusters_to_search, deep_nprobe)
        user_exclude = self._validated_exclude(exclude_clusters)
        deadline_at = None
        if deadline_s is not None:
            if deadline_s <= 0:
                _count_deadline_exceeded("submit")
                raise DeadlineExceededError(deadline_s, stage="submit")
            deadline_at = self._clock() + float(deadline_s)

        tracer = get_tracer()
        batch_start = self._clock()
        breaker_open = self._tick_breakers()
        exclude = user_exclude | breaker_open
        if len(exclude) >= self.datastore.n_clusters:
            raise RetrievalUnavailableError(
                f"all {self.datastore.n_clusters} shards excluded "
                f"({len(user_exclude)} by caller, "
                f"{len(breaker_open)} by open circuit breakers)"
            )

        root = tracer.start_span(
            "retrieval", batch=len(q), k=k, clusters_to_search=m, deep_nprobe=nprobe
        )
        batch = _Batch(q, k, nprobe, tracer, root)
        try:
            decision = self._route(batch, m, exclude)
            tasks = self.plan(decision)
            answers = self._run(batch, tasks, deadline_at)
            return self._merge(batch, decision, answers, breaker_open)
        finally:
            if root.end_s is None:
                root.finish(tracer.clock() if tracer.enabled else 0.0)
            self._observe_phase("total", batch_start)
            _BATCHES().inc()

    # -- step 1: validate + resolve ------------------------------------------
    def resolve_params(
        self,
        k: int | None = None,
        clusters_to_search: int | None = None,
        deep_nprobe: int | None = None,
    ) -> "tuple[int, int, int]":
        """``(k, clusters_to_search, deep_nprobe)`` as :meth:`search` uses them.

        ``None`` takes the config's value; anything else must be positive
        (an explicit zero is rejected, not swallowed to a default). The
        serving frontend keys its cache on this tuple, which is why it is the
        searcher's resolution and not a copy of it.
        """
        cfg = self.config
        k = cfg.k if k is None else int(k)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        m = cfg.clusters_to_search if clusters_to_search is None else int(clusters_to_search)
        if m <= 0:
            raise ValueError(f"clusters_to_search must be positive, got {m}")
        nprobe = cfg.deep_nprobe if deep_nprobe is None else int(deep_nprobe)
        if nprobe <= 0:
            raise ValueError(f"deep_nprobe must be positive, got {nprobe}")
        return k, m, nprobe

    def _validated_exclude(self, exclude_clusters) -> frozenset:
        """Check user excludes up front: fail clearly, not deep inside the router."""
        if not exclude_clusters:
            return frozenset()
        n = self.datastore.n_clusters
        exclude = frozenset(int(c) for c in exclude_clusters)
        unknown = sorted(c for c in exclude if c < 0 or c >= n)
        if unknown:
            raise ValueError(
                f"exclude_clusters contains unknown shard ids {unknown}; "
                f"datastore has shards 0..{n - 1}"
            )
        if len(exclude) >= n:
            raise RetrievalUnavailableError(
                f"exclude_clusters covers all {n} shards; no shard left to search"
            )
        return exclude

    def _tick_breakers(self) -> frozenset:
        """Advance the breaker clock one batch; the shards it keeps excluded."""
        if self.health is None:
            return frozenset()
        self.health.tick()
        breaker_open = self.health.open_shards()
        get_registry().gauge(
            "retrieval_breaker_open_shards",
            "shards currently auto-excluded by their circuit breaker",
        ).set(len(breaker_open))
        return breaker_open

    def _observe_phase(self, phase: str, start: float) -> None:
        _PHASE_LATENCY().observe(self._clock() - start, phase=phase)

    # -- step 2: route -------------------------------------------------------
    def _route(self, batch: _Batch, m: int, exclude: frozenset) -> RoutingDecision:
        """Rank clusters per query with the router (the sample-search fan-out)."""
        phase_start = self._clock()
        with batch.tracer.span(
            "route", parent=batch.root, router=type(self.router).__name__
        ) as route_span:
            routing = self.router.route(batch.queries, self.datastore, m, exclude=exclude)
            route_span.set(
                fanout=routing.fanout, failed_clusters=len(routing.failed_clusters)
            )
        self._observe_phase("route", phase_start)
        if self.health is not None:
            for sid in routing.failed_clusters:
                self.health.record_failure(sid)
        if len(exclude | routing.failed_clusters) >= self.datastore.n_clusters:
            raise RetrievalUnavailableError(
                f"no live shard left: {sorted(exclude)} excluded and "
                f"{sorted(routing.failed_clusters)} failed during sampling"
            )
        return routing

    # -- step 3: plan --------------------------------------------------------
    def plan(self, routing: RoutingDecision) -> "list[ShardTask]":
        """The deep phase's work list: one task per shard any query routed to,
        carrying the rows of that shard's kept sample scan, if it has one.

        The routing matrix is grouped by shard in one stable sort: a shard's
        ``(row, slot)`` pairs come out in row-major order, ``np.nonzero(
        clusters == shard_id)``'s."""
        tasks = []
        kept = routing.kept
        clusters = routing.clusters
        flat = clusters.ravel()
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=self.datastore.n_clusters)
        bounds = [0] + np.cumsum(counts).tolist()
        rows_of, slots_of = np.divmod(order, clusters.shape[1])
        for shard in self.datastore.shards:
            sid = shard.shard_id
            start, end = bounds[sid], bounds[sid + 1]
            if end > start:
                rows = rows_of[start:end]
                scan = None if kept is None else kept[sid]
                if scan is not None:
                    scan = scan.for_rows(rows)
                tasks.append(ShardTask(shard, rows, slots_of[start:end], scan))
        return tasks

    # -- step 4: run ---------------------------------------------------------
    def _deep_policy(
        self, batch: _Batch, deadline_at: "float | None"
    ) -> "RetrievalPolicy | None":
        """The policy this batch's shard calls run under.

        Deadline propagation: the per-attempt deep-search deadline is
        whatever is left of the request budget after routing. An exhausted
        budget sheds here, before any deep search launches.
        """
        if deadline_at is None:
            return self.policy
        remaining = deadline_at - self._clock()
        if remaining <= 0:
            _count_deadline_exceeded("route")
            raise DeadlineExceededError(remaining, stage="route")
        batch.root.set(budget_s=round(remaining, 6))
        if self.policy is None:
            return RetrievalPolicy(deadline_s=remaining)
        if self.policy.deadline_s is None or self.policy.deadline_s > remaining:
            return replace(self.policy, deadline_s=remaining)
        return self.policy

    def _run(
        self, batch: _Batch, tasks: "list[ShardTask]", deadline_at: "float | None"
    ) -> "list[ShardAnswer]":
        """Deep phase: every task through :meth:`_run_task`, inline or fanned out."""
        policy = self._deep_policy(batch, deadline_at)
        phase_start = self._clock()
        with batch.tracer.span(
            "deep_search", parent=batch.root, shards=len(tasks), nprobe=batch.nprobe
        ) as deep_span:
            run_one = lambda task: self._run_task(batch, task, policy, deep_span)
            if self.max_workers is not None and len(tasks) > 1:
                workers = min(self.max_workers, len(tasks))
                with ThreadPoolExecutor(max_workers=workers) as threads:
                    answers = list(threads.map(run_one, tasks))
            else:
                answers = [run_one(task) for task in tasks]
        self._observe_phase("deep", phase_start)
        return answers

    def _run_task(
        self,
        batch: _Batch,
        task: ShardTask,
        policy: "RetrievalPolicy | None",
        deep_span,
    ) -> ShardAnswer:
        """Run one shard's deep search to its final outcome with
        :func:`~repro.core.policy.run_call`.

        A failed shard under a policy *degrades*: the answer carries no
        candidates and the batch merges around it. Without a policy the
        searcher is fail-fast: the failure raises, a
        :class:`~repro.core.errors.ShardError` as it is (it names its shard)
        and anything else wrapped in :class:`ShardSearchError`.
        """
        sid = int(task.shard.shard_id)
        n_queries = len(task.rows)

        def call(timeout_s):
            return task.shard.search(
                batch.queries[task.rows],
                batch.k,
                nprobe=batch.nprobe,
                kept=task.kept,
                timeout_s=timeout_s,
            )

        with batch.tracer.span(
            "shard_search",
            parent=deep_span,
            worker=f"shard{sid}",
            shard=sid,
            queries=n_queries,
        ) as shard_span:
            value, stats, failure = run_call(
                call,
                policy if policy is not None else _FAIL_FAST,
                shard_id=sid,
                queries=n_queries,
                clock=self._clock,
                tracer=batch.tracer if policy is not None else None,
            )
            shard_span.set(attempts=stats.attempts, outcome=stats.outcome)
            if policy is not None:
                account(stats, self.health)
            elif not stats.ok:
                if isinstance(failure, ShardError):
                    raise failure  # already names its shard
                raise ShardSearchError(sid, n_queries, failure) from failure
        dists, ids = value if stats.ok else (None, None)
        return ShardAnswer(task, dists, ids, stats)

    # -- step 5: merge -------------------------------------------------------
    def _merge(
        self,
        batch: _Batch,
        routing: RoutingDecision,
        answers: "list[ShardAnswer]",
        breaker_open: frozenset,
    ) -> SearchResult:
        """Global top-k by distance over every answered shard's candidates.

        This is the rerank step; for normalised embeddings it is the paper's
        inner-product rerank. The candidate pool holds ``k`` slots for each
        of a query's routed shards; slots of failed shards keep their
        ``(+inf, -1)`` fill — graceful degradation is "those candidates
        simply don't exist".
        """
        nq, k = len(batch.queries), batch.k
        phase_start = self._clock()
        with batch.tracer.span("merge", parent=batch.root, k=k):
            cand_d = np.full((nq, routing.fanout * k), np.inf, dtype=np.float32)
            cand_i = np.full((nq, routing.fanout * k), -1, dtype=np.int64)
            # Slot s of a row owns candidate columns [s * k, (s + 1) * k).
            slot_d = cand_d.reshape(nq, routing.fanout, k)
            slot_i = cand_i.reshape(nq, routing.fanout, k)
            deep_failed = []
            for task, dists, ids, stats in answers:
                if dists is None:
                    deep_failed.append(stats.shard_id)
                    continue
                slot_d[task.rows, task.slots] = dists
                slot_i[task.rows, task.slots] = ids
            failed = sorted(
                set(deep_failed) | set(routing.failed_clusters) | breaker_open
            )
            order = np.argsort(cand_d, axis=1)[:, :k]
            rows = np.arange(nq)[:, np.newaxis]
        self._observe_phase("merge", phase_start)

        shard_queries = sum(len(answer.task.rows) for answer in answers)
        _SHARD_QUERIES().inc(shard_queries)
        if failed:
            get_registry().counter(
                "retrieval_degraded_batches_total",
                "batches merged without at least one shard's candidates",
            ).inc()
            batch.root.set(failed_shards=list(failed))
        return SearchResult(
            distances=cand_d[rows, order],
            ids=cand_i[rows, order],
            # The kept scans served the deep phase; the result does not hold them.
            routing=RoutingDecision(routing.clusters, routing.scores, routing.failed_clusters),
            shard_queries=shard_queries,
            failed_shards=tuple(failed),
            shard_stats=tuple(answer.stats for answer in answers),
        )


class HermesSearcher(HierarchicalSearcher):
    """The paper's configuration: document-sampling router over all shards."""

    def __init__(
        self,
        datastore: ClusteredDatastore,
        *,
        config: HermesConfig | None = None,
        **kwargs,
    ) -> None:
        cfg = config or datastore.config
        super().__init__(
            datastore,
            router=SampledRouter(sample_nprobe=cfg.sample_nprobe),
            config=cfg,
            **kwargs,
        )


class ExhaustiveSplitSearcher(HierarchicalSearcher):
    """Naive distributed baseline: deep-search every shard, aggregate all."""

    def __init__(self, datastore: ClusteredDatastore, **kwargs) -> None:
        super().__init__(datastore, router=AllRouter(), **kwargs)

    def resolve_params(self, k=None, clusters_to_search=None, deep_nprobe=None):
        if clusters_to_search is None:
            clusters_to_search = self.datastore.n_clusters
        return super().resolve_params(k, clusters_to_search, deep_nprobe)
