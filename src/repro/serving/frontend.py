"""Serving frontend: retrieval cache + in-batch dedupe + dynamic batching.

The piece that turns the offline :class:`HierarchicalSearcher` into a
serve-time component. Two layers:

- :class:`ServingFrontend` — synchronous batch façade. Each batch is looked
  up in the :class:`~repro.serving.cache.RetrievalCache` first; hits are
  answered from cache, identical cache-missing queries are collapsed to one
  representative (in-batch dedupe), and the unique misses are searched in
  one searcher call (route + deep search). Fresh results are inserted back
  into the cache.
- :class:`DynamicBatcher` — request-level coalescing. Callers ``submit()``
  single queries and get futures. ``submit`` first asks the frontend for a
  cached answer (:meth:`ServingFrontend.cached_answer`) and, on a hit,
  returns an already-resolved future from the caller's thread; everything
  else is queued, and a worker thread drains the queue: it takes the first
  request of a batch and every compatible request (same search parameters)
  already queued behind it, up to ``max_batch``, holds the batch open for at
  most ``max_wait_s`` for more — and only when one is likely to come — then
  executes the merged batch through the frontend under a ``coalesce`` span.
  This is the deadline-budget batching that converts redundant serve traffic
  into the cell-major scan's batch efficiency.

The window is held only when it is likely to fill: when the head request
queued behind a busy worker (it arrived before the previous batch finished,
so arrivals are bunching), or when at least half of the last ``max_batch``
gaps between queued submits were shorter than ``max_wait_s`` (the low median
gap is), which includes having no gap history yet. Otherwise the batch goes
as soon as the queue is empty: at ~25 queued requests a second (the suite's
``serve_zipf``) a second request almost never arrives inside a 2 ms window,
and holding a lone miss for it only added the window to the miss's latency.
Under load — the waves of 32 of ``rag_strides``, the 800 / 3 200 QPS phases —
gaps are short or the worker is busy, and the window is held as before.
Requests answered at submit record no gap; both the record and the decision
are O(1) (:class:`_ArrivalGaps`). The decision is the ``held`` attribute of
the ``coalesce`` span and ``frontend_coalesce_held_total`` counts the held
batches.

So a request's path is: exact probe at submit → (no hit) queue wait → batch
lookup, the same exact match again → route → deep search → merge. On skewed
traffic most requests end at the first step (82 % on the suite's
``serve_zipf``), which is why the probe sits in front of the
coalescing window and not behind it: a hit is one digest and one dict probe,
and waiting the coalescing window — or the miss batch ahead — for it bought
nothing. A submit-time answer skips the bounded queue (it takes no slot, so
it is never rejected), deadline shedding (it is on time by construction) and
the brownout ladder. That is safe because the probe is keyed on the
*full-quality* parameters and the datastore's current generation: the answer
is never degraded and never stale, and it counts exactly what the batch path
would have counted for it (one cache lookup, one frontend request, one
batcher request), so *submitted = served + shed + rejected + failed* and
*lookups = exact hits + misses* hold as before. ``frontend_requests_total``
counts a query once the search that served it has returned: the queries of
a batch whose search raised are ``frontend_failed_requests_total`` instead.
The two paths share one statement of what an exact hit is
(:meth:`RetrievalCache._exact_match`).

With an :class:`~repro.serving.admission.AdmissionController` attached the
batcher becomes overload-safe: ``submit`` fail-fast rejects once the queue
holds ``max_queue`` requests, each request carries a deadline
(``submit(..., deadline_s=)``), requests whose remaining budget cannot
cover the estimated service time are shed at dequeue instead of served
late, the remaining budget is propagated into the searcher so deep search
is clamped to what is left, and sustained queue delay walks the brownout
ladder — smaller deep-search fan-out and probe depth — before anything is
dropped. Each future then resolves to a :class:`ServedQuery` carrying the
degradation level it was served at.
All of that is about *queued* requests: the queue bound counts them, the
CoDel sojourn is theirs (it includes the coalescing window only for a batch
that held it, so a lone miss on an idle worker reports its real queueing,
not a timer), and the service-time EWMA that shedding compares a budget
against averages the worker's batches — which, now that exact hits never
reach the worker, are miss batches: the estimate is of what a queued
request will actually wait for, no longer pulled down by all-hit batches
that took microseconds.

Exact-hit answers replay the cached rows bit-for-bit, so a warm pass is
bit-identical to the search that populated it; when dedupe or partial hits
shrink the sub-batch that re-searches, ids still match an uncached run of
the whole batch exactly and distances to float32 GEMM accumulation
(``tests/serving/test_frontend.py`` asserts both). The cache's hit share
and the served NDCG are measured by the ``serve_zipf`` workload of
``benchmarks/suite``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..ann.distances import as_matrix
from ..core.errors import AdmissionRejectedError, DeadlineExceededError
from ..core.hierarchical import HierarchicalSearcher
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .admission import (
    DEGRADATION_BUCKETS,
    AdmissionConfig,
    AdmissionController,
    BrownoutKnobs,
)
from .cache import EXACT_HIT, CacheConfig, CacheLookup, RetrievalCache

__all__ = [
    "FrontendResult",
    "ServingFrontend",
    "DynamicBatcher",
    "BatcherStats",
    "ServedQuery",
]

#: Coalesced-batch-size histogram buckets (requests, not seconds).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class FrontendResult:
    """One served batch: merged cache hits + fresh search results.

    ``kinds`` carries the per-query cache classification
    (:data:`~repro.serving.cache.MISS` / ``EXACT_HIT``); ``searched`` counts
    the unique queries that actually reached the searcher after dedupe, and
    ``shard_queries`` the deep-search work they issued (0 for a fully
    cache-served batch). ``degradation_level`` records the brownout level
    the batch was served at (0 = full quality).
    """

    distances: np.ndarray
    ids: np.ndarray
    kinds: np.ndarray
    searched: int
    shard_queries: int
    degradation_level: int = 0


class ServingFrontend:
    """Cache-fronted façade over a :class:`HierarchicalSearcher`; the cache
    is built from ``cache_config`` (default :class:`CacheConfig`)."""

    def __init__(
        self,
        searcher: HierarchicalSearcher,
        *,
        cache_config: CacheConfig | None = None,
        clock=None,
    ) -> None:
        self.searcher = searcher
        self.cache = RetrievalCache(cache_config)
        self._clock = clock if clock is not None else time.perf_counter

    def search(
        self,
        queries: np.ndarray,
        *,
        k: int | None = None,
        clusters_to_search: int | None = None,
        deep_nprobe: int | None = None,
        deadline_s: float | None = None,
        exclude_clusters: "frozenset | set | None" = None,
        brownout: BrownoutKnobs | None = None,
        degradation_level: int = 0,
    ) -> FrontendResult:
        """Serve a query batch through the cache, searching only the misses.

        ``deadline_s`` is the batch's remaining end-to-end budget; it is
        threaded into the searcher call so deep search is clamped to what
        is left (see :meth:`HierarchicalSearcher.search`). ``brownout``
        applies one brownout level's quality knobs: the deep-search
        fan-out/nprobe are scaled down, and degraded results are cached under
        their *effective* parameters, so they never shadow full-quality
        entries. ``exclude_clusters`` is passed to the searcher (down nodes
        are neither sampled nor deep-searched).
        """
        q = as_matrix(queries)
        nq = len(q)
        k_eff, m_eff, nprobe_eff = self.searcher.resolve_params(
            k, clusters_to_search, deep_nprobe
        )
        if brownout is not None:
            m_eff, nprobe_eff = brownout.apply(m_eff, nprobe_eff)
        params_key = (k_eff, m_eff, nprobe_eff)
        registry = get_registry()

        deadline_at = None
        if deadline_s is not None:
            if deadline_s <= 0:
                raise DeadlineExceededError(deadline_s, stage="submit")
            deadline_at = self._clock() + float(deadline_s)

        # Snapshot the datastore's mutation generation once per batch: entries
        # cached under an older generation were computed against a corpus that
        # has since changed and are invalidated inside the lookup.
        generation = self.searcher.datastore.generation
        lookup = self.cache.lookup(q, k_eff, params_key, generation=generation)
        out_d = lookup.distances.copy()
        out_i = lookup.ids.copy()

        searched = 0
        shard_queries = 0
        miss_rows = lookup.miss_rows
        if len(miss_rows):
            searched, shard_queries = self._search_misses(
                q,
                lookup,
                miss_rows,
                out_d,
                out_i,
                params_key,
                exclude_clusters=exclude_clusters,
                deadline_at=deadline_at,
                generation=generation,
            )
        if searched < len(miss_rows):
            registry.counter(
                "frontend_dedup_collapsed_total",
                "cache-missing queries answered by an in-batch duplicate",
            ).inc(len(miss_rows) - searched)
        # Counted once the batch is served: a search that raised served none.
        registry.counter(
            "frontend_requests_total", "queries served by the frontend"
        ).inc(nq)
        return FrontendResult(
            distances=out_d,
            ids=out_i,
            kinds=lookup.kinds,
            searched=searched,
            shard_queries=shard_queries,
            degradation_level=int(degradation_level),
        )

    def cached_answer(
        self,
        query: np.ndarray,
        *,
        k: int | None = None,
        clusters_to_search: int | None = None,
        deep_nprobe: int | None = None,
    ) -> "tuple | None":
        """Full-quality ``(distances, ids)`` for one query if the cache
        holds them, else ``None`` — the probe :meth:`DynamicBatcher.submit`
        makes before it queues anything.

        Keyed as :meth:`search` keys a batch at brownout level 0 (the
        searcher's own parameter resolution, the datastore's current
        generation), so a hit is never degraded and never stale, whatever
        level the batch path is at. A hit is one served request, counted as
        :meth:`search` counts one; ``None`` counts nothing — the caller goes
        on to :meth:`search`, which does.
        """
        params_key = self.searcher.resolve_params(k, clusters_to_search, deep_nprobe)
        answer = self.cache.probe_exact(
            query, params_key, generation=self.searcher.datastore.generation
        )
        if answer is not None:
            get_registry().counter(
                "frontend_requests_total", "queries served by the frontend"
            ).inc()
        return answer

    def _search_misses(
        self,
        q: np.ndarray,
        lookup: CacheLookup,
        miss_rows: np.ndarray,
        out_d: np.ndarray,
        out_i: np.ndarray,
        params_key: tuple,
        *,
        exclude_clusters=None,
        deadline_at: float | None = None,
        generation: int | None = None,
    ) -> tuple:
        """Dedupe the cache-missing rows and search them in one call.

        Identical queries (same digest) collapse to one representative; the
        representatives are searched as one batch, their rows fanned back out
        to every duplicate, and inserted.
        """
        k_eff, m_eff, nprobe_eff = params_key
        groups: dict = {}
        for i in miss_rows.tolist():
            groups.setdefault(lookup.digests[i], []).append(i)
        reps = [rows[0] for rows in groups.values()]
        sub = q[np.asarray(reps, dtype=np.int64)]
        remaining = None if deadline_at is None else deadline_at - self._clock()
        result = self.searcher.search(
            sub,
            k=k_eff,
            clusters_to_search=m_eff,
            deep_nprobe=nprobe_eff,
            exclude_clusters=exclude_clusters,
            deadline_s=remaining,
        )
        for j, rows in enumerate(groups.values()):
            out_d[rows] = result.distances[j]
            out_i[rows] = result.ids[j]
        self.cache.insert(
            sub,
            result,
            params_key,
            digests=list(groups),
            generation=generation,
        )
        return len(reps), result.shard_queries


@dataclass
class BatcherStats:
    """Coalescing + overload accounting for one :class:`DynamicBatcher`.

    ``requests`` counts every served request, ``answered_at_submit`` the ones
    among them that :meth:`DynamicBatcher.submit` answered from the cache
    without queueing; the rest rode one of ``batches``. Every
    ``submit`` call ends in exactly one of four counts — submitted =
    ``requests`` + ``shed`` + ``rejected`` + ``failed`` — where ``failed``
    is the requests of a batch whose frontend search raised (their futures
    carry the exception). Every field is written under the batcher's lock.
    """

    requests: int = 0
    answered_at_submit: int = 0
    batches: int = 0
    max_batch: int = 0
    rejected: int = 0
    shed: int = 0
    failed: int = 0
    deadline_misses: int = 0

    @property
    def mean_batch(self) -> float:
        """Queued requests per batch (submit-time answers joined no batch)."""
        if not self.batches:
            return 0.0
        return (self.requests - self.answered_at_submit) / self.batches


class ServedQuery(NamedTuple):
    """One request's answer: top-k rows + how it was served."""

    distances: np.ndarray
    ids: np.ndarray
    kind: int
    degradation_level: int


class _Pending:
    __slots__ = ("query", "params", "future", "enqueued_s", "deadline_at")

    def __init__(self, query, params, future, enqueued_s, deadline_at=None):
        self.query = query
        self.params = params
        self.future = future
        self.enqueued_s = enqueued_s
        self.deadline_at = deadline_at


class _ArrivalGaps:
    """The last ``size`` gaps between queued submits, as "shorter than the
    window" flags with a running count: recording a gap and reading the
    hold decision are both O(1)."""

    __slots__ = ("window_s", "_short", "_n_short", "_last_s")

    def __init__(self, size: int, window_s: float) -> None:
        self.window_s = window_s
        self._short: deque = deque(maxlen=size)
        self._n_short = 0
        self._last_s: float | None = None

    def record(self, now: float) -> None:
        """One request queued at *now*."""
        if self._last_s is not None:
            short = now - self._last_s < self.window_s
            if len(self._short) == self._short.maxlen:
                self._n_short -= self._short[0]  # about to fall off the ring
            self._short.append(short)
            self._n_short += short
        self._last_s = now

    def hold(self, behind_busy_worker: bool) -> bool:
        """Whether a batch head is worth holding for a companion: it queued
        behind a busy worker, or at least half the remembered gaps were
        shorter than the window (the low median gap is) — which an empty
        history satisfies."""
        return behind_busy_worker or 2 * self._n_short >= len(self._short)


class DynamicBatcher:
    """Deadline-budget coalescing of single-query requests.

    ``submit()`` returns a future resolving to a :class:`ServedQuery` for
    that one query. A query the cache can answer at full quality
    is answered inside ``submit`` — the future comes back resolved
    (``EXACT_HIT``, ``degradation_level`` 0) without touching the queue, the
    worker or the admission controller, at any brownout level. Every other
    request is queued: the worker takes the head request and the compatible
    requests (identical search parameters) queued behind it, up to
    ``max_batch``, and holds the batch open for at most ``max_wait_s`` after
    it picked the head (the deadline budget), and only when a companion is
    likely: the head queued behind a busy worker, or at least half of the
    last ``max_batch`` gaps between queued submits were shorter than
    ``max_wait_s`` (or there are none yet). Otherwise the batch goes as soon
    as the queue is empty. Requests with different parameters stay queued
    for the next batch.

    ``admission`` (an :class:`AdmissionController` or an
    :class:`AdmissionConfig`) turns on the overload layer: bounded-queue
    fail-fast rejection at submit, dequeue-time shedding of requests whose
    deadline is unmeetable, brownout degradation under sustained queue
    delay, and deadline propagation into the searcher. Without it the
    batcher behaves exactly as before, except that an explicit
    ``submit(..., deadline_s=)`` is still honoured: already-expired
    requests shed at dequeue and the remaining budget still clamps the
    search.
    """

    def __init__(
        self,
        frontend: ServingFrontend,
        *,
        max_batch: int = 32,
        max_wait_s: float = 0.002,
        clock=None,
        admission: "AdmissionController | AdmissionConfig | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be non-negative, got {max_wait_s}")
        self.frontend = frontend
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.stats = BatcherStats()
        self._clock = clock if clock is not None else time.perf_counter
        if isinstance(admission, AdmissionConfig):
            admission = AdmissionController(admission, clock=self._clock)
        self.admission = admission
        self._queue: deque = deque()
        self._gaps = _ArrivalGaps(max_batch, max_wait_s)  # under _cv
        self._cv = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="serving-frontend-batcher", daemon=True
        )
        self._worker.start()

    # -- client side --------------------------------------------------------
    def submit(
        self,
        query: np.ndarray,
        *,
        k: int | None = None,
        clusters_to_search: int | None = None,
        deep_nprobe: int | None = None,
        deadline_s: float | None = None,
    ) -> Future:
        """Enqueue one query; resolves to a :class:`ServedQuery`.

        ``deadline_s`` is this request's end-to-end budget from *now*
        (``None`` falls back to the admission config's default). Raises
        :class:`DeadlineExceededError` when the budget is already spent,
        ``RuntimeError`` once the batcher is closed, and — only if the cache
        cannot answer — :class:`AdmissionRejectedError` when the
        bounded queue is full.
        """
        query = np.asarray(query, dtype=np.float32)
        if query.ndim != 1:
            raise ValueError(f"submit takes one (dim,) query, got shape {query.shape}")
        if self.admission is not None:
            deadline_s = self.admission.deadline_for(deadline_s)
        if deadline_s is not None and deadline_s <= 0:
            raise DeadlineExceededError(deadline_s, stage="submit")
        if self._closed:
            raise RuntimeError("batcher is closed")
        future: Future = Future()
        answer = self.frontend.cached_answer(
            query, k=k, clusters_to_search=clusters_to_search, deep_nprobe=deep_nprobe
        )
        if answer is not None:
            with self._cv:
                self.stats.requests += 1
                self.stats.answered_at_submit += 1
            get_registry().counter(
                "frontend_answered_at_submit_total",
                "requests answered from the exact cache tier inside submit",
            ).inc()
            future.set_result(ServedQuery(*answer, EXACT_HIT, 0))
            return future
        params = (k, clusters_to_search, deep_nprobe)
        with self._cv:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if self.admission is not None:
                try:
                    self.admission.admit(len(self._queue))
                except AdmissionRejectedError:
                    self.stats.rejected += 1
                    raise
            now = self._clock()
            deadline_at = None if deadline_s is None else now + float(deadline_s)
            self._queue.append(_Pending(query, params, future, now, deadline_at))
            self._gaps.record(now)
            self._cv.notify()
        return future

    def close(self) -> None:
        """Drain outstanding requests, then stop the worker."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self._worker.join()

    def __enter__(self) -> "DynamicBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- worker side --------------------------------------------------------
    def _take_batch(self, free_at: float) -> tuple:
        """Block for the first request, then coalesce: ``(batch, held)``,
        where ``held`` says whether the window was worth holding open.
        *free_at* is when the previous batch's search returned: a head queued
        before it waited behind a busy worker."""
        with self._cv:
            while not self._queue:
                if self._closed:
                    return [], False
                self._cv.wait(0.05)
            head = self._queue.popleft()
            batch = [head]
            held = self._gaps.hold(head.enqueued_s < free_at)
            deadline = self._clock() + self.max_wait_s
            while len(batch) < self.max_batch:
                if not self._queue:
                    if not held:
                        break  # nobody is likely to come: go now
                    remaining = deadline - self._clock()
                    if remaining <= 0 or self._closed:
                        break
                    self._cv.wait(min(remaining, 0.05))
                    continue
                if self._queue[0].params != head.params:
                    break  # incompatible request opens the next batch
                batch.append(self._queue.popleft())
        return batch, held

    def _shed_unmeetable(self, batch: list) -> list:
        """Drop dequeued requests whose deadline cannot be met; keep the rest.

        A request already past its deadline — or, under admission control,
        whose remaining budget is below the EWMA service-time estimate —
        fails fast with ``stage="queue"`` instead of being executed late.
        """
        now = self._clock()
        kept = []
        for p in batch:
            if p.deadline_at is None:
                kept.append(p)
                continue
            remaining = p.deadline_at - now
            if self.admission is not None:
                shed = self.admission.should_shed(remaining)
            else:
                shed = remaining <= 0
            if not shed:
                kept.append(p)
                continue
            with self._cv:
                self.stats.shed += 1
            if self.admission is not None:
                self.admission.record_shed()
            else:
                get_registry().counter(
                    "serving_deadline_shed_total",
                    "requests dropped at dequeue because their deadline was unmeetable",
                ).inc()
            p.future.set_exception(DeadlineExceededError(remaining, stage="queue"))
        return kept

    def _run(self) -> None:
        registry = get_registry()
        tracer = get_tracer()
        free_at = self._clock()
        while True:
            batch, held = self._take_batch(free_at)
            if not batch:
                with self._cv:
                    if self._closed and not self._queue:
                        return
                continue
            batch = self._shed_unmeetable(batch)
            if not batch:
                continue
            queries = np.stack([p.query for p in batch])
            k, m, nprobe = batch[0].params
            wait_s = self._clock() - batch[0].enqueued_s
            level = 0
            knobs = None
            if self.admission is not None:
                level = self.admission.observe(max(wait_s, 0.0))
                if level > 0:
                    knobs = self.admission.knobs(level)
            deadlines = [p.deadline_at for p in batch if p.deadline_at is not None]
            budget_s = min(deadlines) - self._clock() if deadlines else None
            started = self._clock()
            try:
                with tracer.span(
                    "coalesce",
                    batch=len(batch),
                    wait_s=round(wait_s, 6),
                    level=level,
                    held=held,
                ):
                    result = self.frontend.search(
                        queries,
                        k=k,
                        clusters_to_search=m,
                        deep_nprobe=nprobe,
                        deadline_s=budget_s,
                        brownout=knobs,
                        degradation_level=level,
                    )
            except BaseException as exc:  # noqa: BLE001 — fail the futures, not the worker
                free_at = self._clock()
                with self._cv:
                    self.stats.failed += len(batch)
                registry.counter(
                    "frontend_failed_requests_total",
                    "requests whose batch raised inside the frontend search",
                ).inc(len(batch))
                for p in batch:
                    p.future.set_exception(exc)
                continue
            # Stamped before any future resolves: a request its caller
            # submits after seeing the answer found the worker free.
            free_at = done = self._clock()
            if self.admission is not None:
                # Per-request-visible service time: every request in the
                # batch waits for the whole batch.
                self.admission.record_service_time(done - started)
            late = sum(p.deadline_at is not None and done > p.deadline_at for p in batch)
            with self._cv:
                self.stats.requests += len(batch)
                self.stats.batches += 1
                self.stats.max_batch = max(self.stats.max_batch, len(batch))
                self.stats.deadline_misses += late
            registry.counter(
                "frontend_coalesced_batches_total", "batches formed by the dynamic batcher"
            ).inc()
            if held:
                registry.counter(
                    "frontend_coalesce_held_total",
                    "batches held open for the coalescing window",
                ).inc()
            registry.histogram(
                "frontend_batch_size",
                "requests coalesced per frontend batch",
                buckets=BATCH_SIZE_BUCKETS,
            ).observe(len(batch))
            registry.histogram(
                "frontend_coalesce_wait_seconds",
                "time the head request waited while its batch formed",
            ).observe(max(wait_s, 0.0))
            registry.histogram(
                "serving_degradation_level",
                "brownout level batches were served at",
                buckets=DEGRADATION_BUCKETS,
            ).observe(level)
            if late:
                registry.counter(
                    "serving_deadline_miss_total",
                    "requests completed after their deadline had passed",
                ).inc(late)
            for row, p in enumerate(batch):
                p.future.set_result(
                    ServedQuery(
                        result.distances[row],
                        result.ids[row],
                        int(result.kinds[row]),
                        level,
                    )
                )
