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
path, so the searcher ships a fleet-survival layer governed by a
:class:`RetrievalPolicy`:

- **per-shard deadlines** bound how long one shard may stall the batch;
- **bounded retries with exponential backoff** absorb transient errors;
- **hedged duplicate requests** cut straggler tails (a second identical
  request is issued after ``hedge_delay_s``; first answer wins);
- a **circuit breaker** (:class:`ShardHealth`) trips after consecutive
  failures and feeds the router's ``exclude`` set automatically, so dead
  nodes stop being probed until a cooldown expires.

A shard that still fails yields its candidate slots as ``(+inf, -1)``
instead of raising — the batch *degrades* to the surviving clusters'
coverage (the semantic-clustering availability argument: losing one cluster
loses one topic, not a slice of every query). :class:`SearchResult` records
``failed_shards``, ``degraded``, and per-shard latency/attempt stats so
schedulers and the perfmodel can charge for retries and hedges.

Without a policy the searcher is fail-fast: an unexpected shard exception
propagates wrapped in :class:`~repro.core.errors.ShardSearchError` carrying
the shard id and routed query count.

Every deep search is a ``search`` call on the object in
``datastore.shards``, in thread and in process mode alike, so whatever wraps
a shard — fault models, replica failover, instrumentation — sees it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..ann.distances import as_matrix
from ..obs.metrics import get_registry
from ..obs.trace import Span, Tracer, get_tracer
from .clustering import ClusteredDatastore, Shard
from .config import HermesConfig
from .errors import (
    DeadlineExceededError,
    RetrievalUnavailableError,
    ShardCrashedError,
    ShardError,
    ShardSearchError,
    ShardTimeoutError,
    TransientShardError,
)
from .router import AllRouter, ClusterRouter, RoutingDecision, SampledRouter


class RetryBudget:
    """Fleet-wide token bucket bounding the *total* retry volume.

    Per-shard retry policies multiply during a correlated outage: with 10
    shards each allowed 2 retries, one bad window turns every batch into up
    to 30 shard calls — a retry storm that keeps the fleet saturated long
    after the fault clears. The classic fix (Finagle/SRE "retry budgets") is
    a shared bucket: every *primary* attempt deposits ``fill_rate`` tokens
    (capped at ``capacity``) and every retry withdraws one, so sustained
    retry traffic is bounded to ``fill_rate`` of primary traffic while short
    bursts can still spend the accumulated capacity.

    Thread-safe — the deep-search fan-out spends from pool threads. Share
    one instance across every :class:`RetrievalPolicy` of a fleet (it is
    deliberately *not* created per policy).
    """

    def __init__(self, capacity: float = 10.0, fill_rate: float = 0.1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0.0 <= fill_rate <= 1.0:
            raise ValueError(f"fill_rate must be in [0, 1], got {fill_rate}")
        self.capacity = float(capacity)
        self.fill_rate = float(fill_rate)
        self._lock = threading.Lock()
        self._tokens = float(capacity)
        self.exhausted = 0

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def deposit(self) -> None:
        """Credit one primary attempt's worth of retry allowance."""
        with self._lock:
            self._tokens = min(self.capacity, self._tokens + self.fill_rate)

    def try_spend(self) -> bool:
        """Withdraw one retry token; False (and counted) when the bucket is dry."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            self.exhausted += 1
        get_registry().counter(
            "retry_budget_exhausted_total",
            "retries suppressed because the fleet-wide retry budget ran dry",
        ).inc()
        return False

    def reset(self) -> None:
        with self._lock:
            self._tokens = self.capacity
            self.exhausted = 0


@dataclass(frozen=True)
class RetrievalPolicy:
    """Fleet-survival knobs for the deep-search fan-out.

    ``deadline_s`` bounds each *attempt* (hedges share the primary's
    deadline); ``max_attempts`` counts the primary plus transient-error
    retries; ``backoff_s`` doubles per retry. ``hedge_delay_s`` launches one
    duplicate request if the primary has not answered in time — the
    tail-tolerance mechanism, distinct from retries which handle *errors*.
    ``breaker_threshold`` consecutive shard failures open the circuit for
    ``breaker_cooldown`` subsequent search batches. ``retry_budget`` is an
    optional *shared* :class:`RetryBudget`: when its bucket is dry, a shard
    fails after its primary attempt instead of retrying, so per-shard retry
    allowances cannot multiply into a fleet-wide retry storm.
    """

    deadline_s: float | None = None
    max_attempts: int = 1
    backoff_s: float = 0.0
    hedge_delay_s: float | None = None
    breaker_threshold: int | None = None
    breaker_cooldown: int = 2
    retry_budget: "RetryBudget | None" = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be non-negative, got {self.backoff_s}")
        if self.hedge_delay_s is not None and self.hedge_delay_s < 0:
            raise ValueError(f"hedge_delay_s must be non-negative, got {self.hedge_delay_s}")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 1:
            raise ValueError(f"breaker_cooldown must be >= 1, got {self.breaker_cooldown}")

    @property
    def needs_executor(self) -> bool:
        """Deadlines and hedges need attempts running on their own threads."""
        return self.deadline_s is not None or self.hedge_delay_s is not None


class ShardHealth:
    """Consecutive-failure circuit breaker over the shard fleet.

    ``record_failure`` past ``threshold`` opens the shard's circuit for
    ``cooldown`` search batches (:meth:`tick` advances the clock once per
    batch). An open shard is auto-excluded from routing. When the cooldown
    expires the shard is *half-open*: it is probed again, one success closes
    the circuit, one failure re-opens it immediately.

    Thread-safe: deep searches record outcomes from pool threads.
    """

    def __init__(self, n_shards: int, *, threshold: int = 3, cooldown: int = 2) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.n_shards = n_shards
        self.threshold = threshold
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._consecutive = np.zeros(n_shards, dtype=np.int64)
        self._open_for = np.zeros(n_shards, dtype=np.int64)

    def _check(self, shard_id: int) -> int:
        shard_id = int(shard_id)
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"shard id {shard_id} out of range [0, {self.n_shards})")
        return shard_id

    def record_success(self, shard_id: int) -> None:
        shard_id = self._check(shard_id)
        with self._lock:
            self._consecutive[shard_id] = 0
            self._open_for[shard_id] = 0

    def record_failure(self, shard_id: int) -> None:
        self._fail(shard_id, at_least=0)

    def trip(self, shard_id: int) -> None:
        """Open the circuit immediately (crash-stop: no point counting up)."""
        self._fail(shard_id, at_least=self.threshold)

    def _fail(self, shard_id: int, *, at_least: int) -> None:
        """Count one failure (to ``at_least``); at the threshold, (re)open."""
        shard_id = self._check(shard_id)
        with self._lock:
            count = max(at_least, int(self._consecutive[shard_id]) + 1)
            self._consecutive[shard_id] = count
            newly_open = count >= self.threshold and self._open_for[shard_id] == 0
            if count >= self.threshold:
                self._open_for[shard_id] = self.cooldown
        if newly_open:
            get_registry().counter(
                "retrieval_breaker_trips_total", "circuit-breaker open transitions"
            ).inc(shard=shard_id)

    def is_open(self, shard_id: int) -> bool:
        return bool(self._open_for[self._check(shard_id)] > 0)

    def open_shards(self) -> frozenset:
        """Shards whose circuit is currently open (auto-excluded)."""
        with self._lock:
            return frozenset(int(s) for s in np.flatnonzero(self._open_for > 0))

    def tick(self) -> None:
        """Advance the breaker clock by one search batch."""
        with self._lock:
            np.maximum(self._open_for - 1, 0, out=self._open_for)


@dataclass(frozen=True)
class ShardCallStats:
    """Accounting for one shard's deep-search participation in a batch.

    ``attempts`` counts issued requests including hedges, so
    ``queries * attempts`` is the work the perfmodel should charge; a
    healthy un-hedged shard has ``attempts == 1``.

    ``latency_s`` is *attempt* time — the time requests to this shard were
    actually in flight, summed across retries — and deliberately excludes
    retry backoff sleeps; ``wall_s`` is the full wall-clock window from
    first attempt to final outcome, backoffs included. The two are equal
    for a shard that succeeded on its first attempt.
    """

    shard_id: int
    queries: int
    attempts: int
    latency_s: float
    hedged: bool = False
    outcome: str = "ok"
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


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
    #: root :class:`~repro.obs.trace.Span` of this batch's trace, populated
    #: when the search ran under an enabled tracer (``trace=True`` or a
    #: process-wide tracer via :func:`repro.obs.enable_tracing`)
    trace: "Span | None" = None

    @property
    def batch_size(self) -> int:
        return len(self.ids)

    @property
    def degraded(self) -> bool:
        """True when any shard's candidates are missing from the merge."""
        return bool(self.failed_shards)

    @property
    def shard_queries_attempted(self) -> int:
        """Work actually issued, counting retries and hedges (perfmodel cost)."""
        if not self.shard_stats:
            return self.shard_queries
        return int(sum(s.queries * s.attempts for s in self.shard_stats))

    @property
    def hedged_shards(self) -> tuple:
        return tuple(s.shard_id for s in self.shard_stats if s.hedged)


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


class ShardAnswer(NamedTuple):
    """What one :class:`ShardTask` came back with.

    ``distances`` / ``ids`` are ``(len(task.rows), k)``, or ``None`` when the
    shard's call failed under a policy (the batch degrades around it).
    """

    task: ShardTask
    distances: "np.ndarray | None"
    ids: "np.ndarray | None"
    stats: ShardCallStats


@dataclass(frozen=True)
class _Batch:
    """One ``search`` call's resolved inputs and trace handle, for its steps."""

    queries: np.ndarray
    k: int
    nprobe: int
    tracer: Tracer
    root: "Span"


#: What a shard call runs under when the searcher has no policy: one attempt,
#: no deadline, no hedge — and a failure raises instead of degrading.
_FAIL_FAST = RetrievalPolicy()


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
        workers_mode: str | None = None,
        policy: RetrievalPolicy | None = None,
        health: ShardHealth | None = None,
        tracer: "Tracer | None" = None,
        clock=None,
        sleep=None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.datastore = datastore
        self.config = config or datastore.config
        self.router = router if router is not None else SampledRouter()
        self.max_workers = max_workers
        if workers_mode is None:
            workers_mode = self.config.search_workers_mode
        if workers_mode not in ("thread", "process"):
            raise ValueError(
                f"workers_mode must be 'thread' or 'process', got {workers_mode!r}"
            )
        self.workers_mode = workers_mode
        #: lazily started process pool (``workers_mode="process"`` only)
        self._shard_pool = None
        self.policy = policy
        if health is None and policy is not None and policy.breaker_threshold is not None:
            health = ShardHealth(
                datastore.n_clusters,
                threshold=policy.breaker_threshold,
                cooldown=policy.breaker_cooldown,
            )
        self.health = health
        #: explicit tracer override; ``None`` defers to the process-wide one
        self.tracer = tracer
        # Injectable time sources (deterministic latency-accounting tests);
        # production uses the monotonic wall clock and real sleeps.
        self._clock = clock if clock is not None else time.perf_counter
        self._sleep = sleep if sleep is not None else time.sleep

    # -- process-mode shard pool -------------------------------------------
    def _ensure_shard_pool(self):
        """Start (once) the worker-process pool backing process-mode search.

        Startup warms every shard and copies its arrays into shared memory;
        amortised over the searcher's lifetime, per-search traffic is then
        just the query batch and the top-k block.

        The exported arrays snapshot each shard's *sealed* storage, which
        compaction replaces wholesale — so a stale pool (any shard's
        ``generation`` moved since export) is torn down and rebuilt here.
        A compaction can still land after this check; :meth:`_call_shard`
        keeps such a shard's calls off the pool. Delta inserts and tombstones
        do not invalidate the pool: tombstones ride along with each call as
        the worker scan's mask, the delta is merged parent-side by
        ``IndexShard.search``.
        """
        pool = self._shard_pool
        if pool is not None and any(
            pool.generations[int(s.shard_id)] != s.generation
            for s in self.datastore.shards
        ):
            get_registry().counter(
                "retrieval_pool_rebuilds_total",
                "process shard pools rebuilt after a compaction generation change",
            ).inc()
            self.close()
        if self._shard_pool is None:
            from ..ann.parallel import ProcessShardPool

            self._shard_pool = ProcessShardPool(
                self.datastore.shards, workers=self.max_workers
            )
        return self._shard_pool

    def close(self) -> None:
        """Release the process pool (no-op in thread mode / if never started)."""
        pool, self._shard_pool = self._shard_pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "HierarchicalSearcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the search: validate → route → plan → run → merge -------------------
    def search(
        self,
        queries: np.ndarray,
        *,
        k: int | None = None,
        clusters_to_search: int | None = None,
        deep_nprobe: int | None = None,
        exclude_clusters: "frozenset | set | None" = None,
        trace: bool = False,
        deadline_s: float | None = None,
    ) -> SearchResult:
        """Route then deep-search a query batch; returns global top-k.

        ``deadline_s`` is the request's *remaining end-to-end budget* at call
        time (seconds). It is accounted against this searcher's clock: after
        routing, the per-attempt deadline of the deep-search policy is
        clamped to what is left of the budget, so a 50 ms request never
        launches a deep search allowed to run 200 ms. A budget that is
        already spent (or runs out before the deep phase starts) raises
        :class:`~repro.core.errors.DeadlineExceededError` and counts on
        ``retrieval_deadline_exceeded_total`` — callers under admission
        control shed the request instead of serving it late.

        ``trace=True`` opts this batch into span tracing even when no
        process-wide tracer is enabled: the returned
        :attr:`SearchResult.trace` carries the batch's span tree
        (``retrieval`` → ``route`` / ``deep_search`` / ``merge``, with
        per-shard children). When a tracer is already active (searcher
        ``tracer=`` or :func:`repro.obs.enable_tracing`), spans are always
        recorded there and ``trace`` is implied.

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
        ``max_workers`` or runs a process pool.
        """
        q = as_matrix(queries)
        k, m, nprobe = self.resolve_params(k, clusters_to_search, deep_nprobe)
        user_exclude = self._validated_exclude(exclude_clusters)
        deadline_at = None
        if deadline_s is not None:
            if deadline_s <= 0:
                _count_deadline_exceeded("submit")
                raise DeadlineExceededError(deadline_s, stage="submit")
            deadline_at = self._clock() + float(deadline_s)

        tracer = self.tracer if self.tracer is not None else get_tracer()
        if trace and not tracer.enabled:
            # Per-call opt-in: a private tracer so the caller gets a span
            # tree on the result without turning on process-wide tracing.
            tracer = Tracer(clock=self._clock)
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
            get_registry().counter(
                "retrieval_batches_total", "hierarchical search batches served"
            ).inc()

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
        n = self.datastore.n_clusters
        exclude = frozenset(int(c) for c in (exclude_clusters or ()))
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
        get_registry().histogram(
            "retrieval_latency_seconds",
            "hierarchical search phase latency (route/deep/merge/total)",
        ).observe(self._clock() - start, phase=phase)

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
        """The deep phase's work list: one task per shard any query routed to."""
        tasks = []
        for shard in self.datastore.shards:
            rows, slots = np.nonzero(routing.clusters == shard.shard_id)
            if len(rows):
                tasks.append(ShardTask(shard, rows, slots))
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
        # Pool first: starting (or rebuilding) it spends request budget, so
        # the policy's deadline is what is left once the pool is up.
        pool = (
            self._ensure_shard_pool()
            if self.workers_mode == "process" and tasks
            else None
        )
        policy = self._deep_policy(batch, deadline_at)
        executor: ThreadPoolExecutor | None = None
        if policy is not None and policy.needs_executor and tasks:
            # Attempts need own threads so deadlines can abandon stragglers;
            # 2x head-room covers one hedge per in-flight shard.
            executor = ThreadPoolExecutor(
                max_workers=max(2, 2 * len(tasks)),
                thread_name_prefix="shard-attempt",
            )
        phase_start = self._clock()
        with batch.tracer.span(
            "deep_search", parent=batch.root, shards=len(tasks), nprobe=batch.nprobe
        ) as deep_span:
            run_one = lambda task: self._run_task(
                batch, task, policy, executor, pool, deep_span
            )
            try:
                # Process mode always fans out from threads: submissions to
                # the worker pool are thread-safe and each blocks until its
                # shard's result ships back, so threads overlap the shards.
                if (self.max_workers is not None or pool is not None) and len(tasks) > 1:
                    workers = min(self.max_workers or len(tasks), len(tasks))
                    with ThreadPoolExecutor(max_workers=workers) as threads:
                        answers = list(threads.map(run_one, tasks))
                else:
                    answers = [run_one(task) for task in tasks]
            finally:
                if executor is not None:
                    # Abandoned hedges/stragglers finish on their own; don't wait.
                    executor.shutdown(wait=False)
        self._observe_phase("deep", phase_start)
        return answers

    def _call_shard(self, batch: _Batch, task: ShardTask, pool):
        """The deep phase's one shard call.

        In process mode the worker pool stands in for the shard's *sealed
        scan* (the ``sealed=`` hook of :meth:`Shard.search`; it masks the
        tombstoned rows it is handed and returns global ids) — the call
        itself still goes to the object in ``datastore.shards``, so fault
        models, replica failover and the shard's own snapshot and delta merge
        run in this process either way and the two modes stay bit-identical,
        before and after mutation. The pool answers only for the sealed
        storage it exported: a shard compacted since then (its snapshot is of
        another generation) gets ``None`` and scans its own index, for this
        call — the next batch's :meth:`_ensure_shard_pool` rebuilds the pool.
        """
        sealed = None
        if pool is not None:
            sid = int(task.shard.shard_id)

            def sealed(q, k, nprobe, dead, generation):
                if pool.generations[sid] != generation:
                    return None
                return pool.search(sid, q, k, nprobe=nprobe, dead=dead)

        return task.shard.search(
            batch.queries[task.rows], batch.k, nprobe=batch.nprobe, sealed=sealed
        )

    def _run_task(
        self,
        batch: _Batch,
        task: ShardTask,
        policy: "RetrievalPolicy | None",
        executor: "ThreadPoolExecutor | None",
        pool,
        deep_span,
    ) -> ShardAnswer:
        """Run one shard's deep search to its final outcome — the one runner.

        Attempts repeat under ``policy`` (transient errors retry with
        backoff while attempts and the fleet retry budget last; with an
        ``executor`` each attempt runs under the deadline and may be hedged).
        Each attempt is timed individually *inside* the loop, so the reported
        ``latency_s`` is time requests were in flight — backoff sleeps land
        only in ``wall_s``.

        A failed shard under a policy *degrades*: the answer carries no
        candidates and the batch merges around it. Without a policy the
        searcher is fail-fast: the failure raises, a
        :class:`~repro.core.errors.ShardError` as it is (it names its shard)
        and anything else wrapped in :class:`ShardSearchError`.
        """
        sid = int(task.shard.shard_id)
        n_queries = len(task.rows)
        rules = policy if policy is not None else _FAIL_FAST
        tracer = batch.tracer
        clock = self._clock

        def attempt():
            # Attempts on the executor may outlive their deadline (abandoned
            # hedges/stragglers); suppress their nested spans so no orphan
            # escapes into the tree after it closes.
            with tracer.suppressed() if executor is not None else nullcontext():
                return self._call_shard(batch, task, pool)

        with tracer.span(
            "shard_search",
            parent=deep_span,
            worker=f"shard{sid}",
            shard=sid,
            queries=n_queries,
        ) as shard_span:
            t0 = clock()
            busy = 0.0
            attempts = 0
            hedges = 0
            outcome = "ok"
            value = failure = None
            backoff = rules.backoff_s
            budget = rules.retry_budget
            if budget is not None:
                budget.deposit()
            while True:
                attempts += 1
                meta = {"hedges": 0}
                attempt_start = clock()
                try:
                    # Inner try/finally times exactly the in-flight attempt:
                    # the backoff sleep below runs in the except handler,
                    # after the finally has already banked this interval.
                    try:
                        with (
                            tracer.span("attempt", try_index=attempts)
                            if policy is not None
                            else nullcontext()
                        ):
                            if executor is None:
                                value = attempt()
                            else:
                                value = self._attempt_with_deadline(
                                    sid, attempt, rules, executor, meta
                                )
                        break
                    finally:
                        busy += clock() - attempt_start
                        hedges += meta["hedges"]
                except TransientShardError as exc:
                    failure = exc
                    if attempts >= rules.max_attempts:
                        outcome = "transient-exhausted"
                        break
                    if budget is not None and not budget.try_spend():
                        # Fleet-wide budget dry: degrade now rather than join
                        # a retry storm already in progress.
                        outcome = "retry-budget-exhausted"
                        break
                    if backoff > 0:
                        with tracer.span("backoff", seconds=backoff):
                            self._sleep(backoff)
                        backoff *= 2
                except (ShardTimeoutError, FutureTimeoutError) as exc:
                    failure, outcome = exc, "timeout"
                    break
                except ShardCrashedError as exc:
                    failure, outcome = exc, "crashed"
                    break
                except Exception as exc:  # noqa: BLE001 — classified, then degrade or raise
                    failure, outcome = exc, "error"
                    break
            stats = ShardCallStats(
                shard_id=sid,
                queries=n_queries,
                # hedged duplicates are issued requests: charge them as attempts
                attempts=attempts + hedges,
                latency_s=busy,
                hedged=hedges > 0,
                outcome=outcome,
                wall_s=clock() - t0,
            )
            shard_span.set(
                attempts=stats.attempts, outcome=outcome, hedged=stats.hedged
            )
            if policy is not None:
                self._account_policy_call(stats, attempts - 1, hedges)
            elif not stats.ok:
                if isinstance(failure, ShardError):
                    raise failure  # already names its shard
                raise ShardSearchError(sid, n_queries, failure) from failure
            dists, ids = value if stats.ok else (None, None)
            return ShardAnswer(task, dists, ids, stats)

    def _account_policy_call(
        self, stats: ShardCallStats, retries: int, hedges: int
    ) -> None:
        """Registry counters and breaker state for one policy-governed call."""
        registry = get_registry()
        if retries:
            registry.counter(
                "retrieval_retries_total",
                "transient-error retries issued by the deep-search fan-out",
            ).inc(retries)
        if hedges:
            registry.counter(
                "retrieval_hedges_total", "hedged duplicate shard requests"
            ).inc(hedges)
        registry.histogram(
            "retrieval_shard_latency_seconds",
            "per-shard in-flight deep-search time (excludes backoff sleeps)",
        ).observe(stats.latency_s, outcome=stats.outcome)
        if self.health is not None:
            if stats.ok:
                self.health.record_success(stats.shard_id)
            else:
                self.health.record_failure(stats.shard_id)

    def _attempt_with_deadline(
        self,
        shard_id: int,
        attempt,
        policy: RetrievalPolicy,
        executor: ThreadPoolExecutor,
        meta: dict,
    ):
        """One attempt under a deadline, with an optional hedged duplicate.

        Returns the attempt's value; raises its failure (a
        :class:`ShardTimeoutError` if the deadline elapsed first). A
        launched hedge is recorded in ``meta["hedges"]`` immediately so the
        duplicate work is charged even when the attempt ultimately fails.
        """
        start = time.perf_counter()
        deadline = policy.deadline_s
        futures = [executor.submit(attempt)]
        if policy.hedge_delay_s is not None:
            hedge_wait = policy.hedge_delay_s
            if deadline is not None:
                hedge_wait = min(hedge_wait, deadline)
            done, _ = wait(futures, timeout=hedge_wait)
            if not done:
                futures.append(executor.submit(attempt))
                meta["hedges"] += 1

        pending = set(futures)
        failure: BaseException | None = None
        while pending:
            left = None if deadline is None else deadline - (time.perf_counter() - start)
            if left is not None and left <= 0:
                break
            done, pending = wait(pending, timeout=left, return_when=FIRST_COMPLETED)
            if not done:
                break  # deadline elapsed with requests still in flight
            for fut in done:
                exc = fut.exception()
                if exc is None:
                    return fut.result()
                failure = exc
        if pending:
            raise ShardTimeoutError(shard_id, deadline)
        assert failure is not None
        raise failure

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
            kcols = np.arange(k)
            deep_failed = []
            for task, dists, ids, stats in answers:
                if dists is None:
                    deep_failed.append(stats.shard_id)
                    continue
                cols = task.slots[:, np.newaxis] * k + kcols[np.newaxis, :]
                cand_d[task.rows[:, np.newaxis], cols] = dists
                cand_i[task.rows[:, np.newaxis], cols] = ids
            failed = sorted(
                set(deep_failed) | set(routing.failed_clusters) | breaker_open
            )
            order = np.argsort(cand_d, axis=1)[:, :k]
            rows = np.arange(nq)[:, np.newaxis]
        self._observe_phase("merge", phase_start)

        registry = get_registry()
        shard_queries = sum(len(answer.task.rows) for answer in answers)
        registry.counter(
            "retrieval_shard_queries_total",
            "deep-search (query, shard) pairs issued",
        ).inc(shard_queries)
        if failed:
            registry.counter(
                "retrieval_degraded_batches_total",
                "batches merged without at least one shard's candidates",
            ).inc()
            batch.root.set(failed_shards=list(failed))
        return SearchResult(
            distances=cand_d[rows, order],
            ids=cand_i[rows, order],
            routing=routing,
            shard_queries=shard_queries,
            failed_shards=tuple(failed),
            shard_stats=tuple(answer.stats for answer in answers),
            trace=batch.root if batch.tracer.enabled else None,
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
