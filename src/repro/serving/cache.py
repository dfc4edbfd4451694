"""Serve-time multi-tier retrieval cache (the RAGCache idea, retrieval-side).

Hermes's own evaluation (Fig. 13) shows serve traffic is heavily skewed:
NQ-like workloads concentrate on a few hot topics, so the same (or nearly the
same) queries arrive over and over. RAGCache [Jin et al. 2024] exploits that
redundancy on the *generation* side by caching document KV prefixes; this
module exploits it on the *retrieval* side, in front of
:class:`~repro.core.hierarchical.HierarchicalSearcher`, with three tiers of
decreasing strictness:

- **exact tier** — a dict keyed by the blake2b digest of the raw query
  embedding bytes plus the search parameters. A hit returns the cached
  ``(distances, ids)`` rows *bit-identically*: the exact path never changes
  results, only latency. It is read two ways — tier 1 of the batched
  :meth:`RetrievalCache.lookup`, and the single-query
  :meth:`RetrievalCache.probe_exact` the batcher makes at submit — through
  one match rule (:meth:`RetrievalCache._exact_match`).
- **semantic tier** — an LRU ring of cached query vectors, matched by cosine
  similarity in **one GEMM per lookup batch**. A query within
  ``semantic_threshold`` of a cached query reuses that query's results; this
  trades a measured (benchmarked) NDCG delta for skipping retrieval entirely.
- **routing tier** — a looser cosine threshold under which only the cached
  :class:`~repro.core.router.RoutingDecision` is reused: the query still
  deep-searches, but skips the sample-search fan-out across every shard
  (the dominant fixed cost for small batches).

All entries share one LRU ring bounded by ``capacity``; eviction, hits, and
misses are counted both on :class:`RetrievalCacheStats` (per-cache, for
tests/benchmarks) and on the process metrics registry
(``retrieval_cache_lookups_total`` / ``_evictions_total`` / ``_size``), and
each batched lookup runs under a ``cache_lookup`` span.

Degraded search results (missing shards) are never inserted: caching a
partial answer would keep serving it after the fleet recovers.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from ..ann.distances import as_matrix
from ..core.router import RoutingDecision
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer

__all__ = [
    "MISS",
    "EXACT_HIT",
    "SEMANTIC_HIT",
    "ROUTING_HIT",
    "TIER_NAMES",
    "CacheConfig",
    "RetrievalCacheStats",
    "CacheLookup",
    "RetrievalCache",
    "query_digest",
]

#: Lookup outcome kinds, strongest to weakest.
MISS, EXACT_HIT, SEMANTIC_HIT, ROUTING_HIT = 0, 1, 2, 3
TIER_NAMES = {
    MISS: "miss",
    EXACT_HIT: "exact_hit",
    SEMANTIC_HIT: "semantic_hit",
    ROUTING_HIT: "routing_hit",
}


def query_digest(row: np.ndarray, params_key: tuple) -> bytes:
    """Exact-tier key: digest of the raw embedding bytes + search params.

    Keyed on the float32 bit pattern, so two queries collide only when they
    are the *same vector* — the precondition for the bit-identical contract.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(row, dtype=np.float32).tobytes())
    h.update(repr(params_key).encode())
    return h.digest()


@dataclass(frozen=True)
class CacheConfig:
    """Tunables of the serve-time retrieval cache.

    ``capacity`` bounds the number of cached query entries (one LRU ring
    shared by every tier). ``semantic_threshold`` / ``routing_threshold`` are
    cosine similarities in (0, 1]; ``None`` disables that tier. The routing
    threshold must be the looser (smaller) of the two: a query similar enough
    to reuse full results is certainly similar enough to reuse routing.
    """

    capacity: int = 1024
    semantic_threshold: float | None = 0.995
    routing_threshold: float | None = 0.98

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        for name in ("semantic_threshold", "routing_threshold"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if (
            self.semantic_threshold is not None
            and self.routing_threshold is not None
            and self.routing_threshold > self.semantic_threshold
        ):
            raise ValueError(
                "routing_threshold must not exceed semantic_threshold "
                f"({self.routing_threshold} > {self.semantic_threshold})"
            )


@dataclass
class RetrievalCacheStats:
    """Per-cache counters (the registry carries the process-wide view)."""

    exact_hits: int = 0
    semantic_hits: int = 0
    routing_hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    #: routing-tier candidates demoted to misses because their cached
    #: decision routes into a currently-excluded (dead/breaker-open) shard
    stale_routing: int = 0
    #: entries dropped because the datastore mutated since they were cached
    stale_generation: int = 0

    @property
    def lookups(self) -> int:
        return self.exact_hits + self.semantic_hits + self.routing_hits + self.misses

    @property
    def result_hits(self) -> int:
        """Lookups that skipped retrieval entirely (exact + semantic)."""
        return self.exact_hits + self.semantic_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that returned full cached results."""
        if not self.lookups:
            return 0.0
        return self.result_hits / self.lookups


@dataclass(frozen=True)
class _Entry:
    """One cached query: its results and the routing that produced them."""

    digest: bytes
    params_key: tuple
    distances: np.ndarray
    ids: np.ndarray
    routing_clusters: np.ndarray
    routing_scores: np.ndarray
    #: datastore mutation generation the entry was computed against;
    #: ``None`` means the caller does not track generations.
    generation: int | None = None


@dataclass
class CacheLookup:
    """Outcome of one batched lookup.

    ``kinds[i]`` classifies query *i* (``MISS`` / ``EXACT_HIT`` /
    ``SEMANTIC_HIT`` / ``ROUTING_HIT``); ``distances`` / ``ids`` rows are
    populated for result hits (exact + semantic) and are undefined (inf/-1)
    elsewhere. ``routing_entries[i]`` carries the cached
    ``(clusters, scores)`` rows for routing hits. ``digests`` are the
    exact-tier keys, reusable by the caller for in-batch deduplication.
    """

    kinds: np.ndarray
    distances: np.ndarray
    ids: np.ndarray
    similarities: np.ndarray
    digests: list
    routing_entries: list = field(default_factory=list)

    @property
    def result_rows(self) -> np.ndarray:
        """Indices whose distances/ids rows are served from cache."""
        return np.flatnonzero(
            (self.kinds == EXACT_HIT) | (self.kinds == SEMANTIC_HIT)
        )

    @property
    def miss_rows(self) -> np.ndarray:
        """Indices that must deep-search (full misses + routing-only hits)."""
        return np.flatnonzero((self.kinds == MISS) | (self.kinds == ROUTING_HIT))

    def routing_for(self, rows: np.ndarray) -> RoutingDecision:
        """Stack the cached routing rows for *rows* into one batch decision."""
        entries = [self.routing_entries[int(r)] for r in rows]
        if any(e is None for e in entries):
            raise ValueError("routing_for called on rows without a routing hit")
        clusters = np.stack([e.routing_clusters for e in entries]).astype(np.int64)
        scores = np.stack([e.routing_scores for e in entries]).astype(np.float32)
        return RoutingDecision(clusters=clusters, scores=scores)


class RetrievalCache:
    """The multi-tier cache itself. Thread-safe; one lock, GEMM inside.

    Vectors live in a pre-allocated ``(capacity, dim)`` ring so the semantic
    and routing tiers cost exactly one ``(batch, capacity)`` GEMM per lookup
    batch regardless of occupancy; recency is a vectorized ``last_used``
    array and eviction takes its smallest stamps (true LRU), found once per
    insert batch.
    """

    def __init__(self, config: CacheConfig | None = None, *, dim: int | None = None) -> None:
        self.config = config or CacheConfig()
        self.stats = RetrievalCacheStats()
        self._lock = threading.Lock()
        self._dim = dim
        self._vectors: np.ndarray | None = None
        if dim is not None:
            self._vectors = np.zeros((self.config.capacity, dim), dtype=np.float32)
        self._entries: list = [None] * self.config.capacity
        self._valid = np.zeros(self.config.capacity, dtype=bool)
        self._last_used = np.zeros(self.config.capacity, dtype=np.int64)
        self._clock = 0
        self._exact: dict = {}

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return int(self._valid.sum())

    @property
    def capacity(self) -> int:
        return self.config.capacity

    def cached_digests(self) -> set:
        with self._lock:
            return set(self._exact)

    def clear(self) -> None:
        with self._lock:
            self._entries = [None] * self.config.capacity
            self._valid[:] = False
            self._last_used[:] = 0
            self._exact.clear()

    # -- internals (caller holds the lock) ----------------------------------
    def _ensure_dim(self, dim: int) -> None:
        if self._vectors is None:
            self._dim = dim
            self._vectors = np.zeros((self.config.capacity, dim), dtype=np.float32)
        elif dim != self._dim:
            raise ValueError(f"query dim {dim} != cache dim {self._dim}")

    def _touch(self, slot: int) -> None:
        self._clock += 1
        self._last_used[slot] = self._clock

    def _invalidate_slot(self, slot: int) -> None:
        entry = self._entries[slot]
        if entry is not None:
            self._exact.pop(entry.digest, None)
        self._entries[slot] = None
        self._valid[slot] = False

    def _normalized(self, q: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(q, axis=1, keepdims=True)
        return q / np.maximum(norms, 1e-12)

    def _exact_match(self, digest: bytes, generation: int | None) -> tuple:
        """The one statement of an exact-tier hit: ``(entry, stale_slot)``.

        A hit is a digest that is present and whose entry was written at
        *generation* (``None`` skips the check); its LRU stamp is refreshed
        and the entry returned. Anything else returns no entry and changes
        nothing — ``stale_slot`` names a present-but-outdated entry so that
        the batch lookup can evict and count it, which the submit-time probe
        leaves to it.
        """
        slot = self._exact.get(digest)
        if slot is None:
            return None, None
        entry = self._entries[slot]
        if generation is not None and entry.generation != generation:
            return None, slot
        self._touch(slot)
        return entry, None

    # -- lookup -------------------------------------------------------------
    def lookup(
        self,
        queries: np.ndarray,
        k: int,
        params_key: tuple,
        *,
        exclude: frozenset = frozenset(),
        semantic_slack: float = 0.0,
        generation: int | None = None,
    ) -> CacheLookup:
        """Classify a query batch against all three tiers.

        ``k`` sizes the output rows; ``params_key`` must capture every
        parameter that changes search results (k, fanout, nprobe, ...) —
        entries cached under different parameters never match.

        ``exclude`` carries the *live* set of dead shards (caller excludes
        plus open circuit breakers). A routing-tier candidate whose cached
        decision routes into an excluded shard is **stale**: replaying it
        would deep-search a dead node (or be discarded downstream, wasting
        the hit). Such rows stay misses and fall back to a fresh sample
        search, counted on ``retrieval_cache_stale_routing_total``.

        ``semantic_slack`` loosens the semantic threshold by that much —
        the brownout knob: under overload a near-duplicate answer at
        ``threshold - slack`` beats shedding the request outright.

        ``generation`` is the datastore's current mutation generation (see
        ``ClusteredDatastore.generation``). Entries cached under a different
        generation were computed against a corpus that has since changed —
        every tier treats them as stale, evicts them, and counts them on
        ``retrieval_cache_stale_generation_total``. ``None`` (the default)
        disables the check for callers serving a frozen datastore.
        """
        q = as_matrix(queries)
        nq = len(q)
        cfg = self.config
        registry = get_registry()
        lookups = registry.counter(
            "retrieval_cache_lookups_total",
            "serve-time retrieval cache lookups by outcome tier",
        )
        kinds = np.zeros(nq, dtype=np.int8)
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        out_i = np.full((nq, k), -1, dtype=np.int64)
        sims = np.full(nq, np.nan, dtype=np.float64)
        routing_entries: list = [None] * nq
        digests = [query_digest(row, params_key) for row in q]
        exclude = frozenset(int(c) for c in exclude)
        semantic_on = cfg.semantic_threshold is not None
        routing_on = cfg.routing_threshold is not None
        sem_threshold = (
            None
            if cfg.semantic_threshold is None
            else max(cfg.semantic_threshold - max(float(semantic_slack), 0.0), 0.0)
        )
        stale = 0
        stale_gen = 0

        with self._lock, get_tracer().span("cache_lookup", batch=nq) as span:
            self._ensure_dim(q.shape[1])
            # Tier 1: exact digests.
            pending = []
            for i, digest in enumerate(digests):
                entry, stale_slot = self._exact_match(digest, generation)
                if stale_slot is not None:
                    self._invalidate_slot(stale_slot)
                    stale_gen += 1
                if entry is not None:
                    kinds[i] = EXACT_HIT
                    out_d[i] = entry.distances
                    out_i[i] = entry.ids
                    sims[i] = 1.0
                else:
                    pending.append(i)

            # Tiers 2+3: one GEMM against the whole ring for the remainder.
            valid_slots = np.flatnonzero(self._valid)
            if pending and len(valid_slots) and (semantic_on or routing_on):
                rows = np.asarray(pending, dtype=np.int64)
                qn = self._normalized(q[rows].astype(np.float32, copy=False))
                ring = self._vectors[valid_slots]
                gram = qn @ ring.T  # cached vectors are stored normalized
                best = np.argmax(gram, axis=1)
                best_sim = gram[np.arange(len(rows)), best]
                sims[rows] = best_sim
                for j, i in enumerate(rows):
                    slot = int(valid_slots[best[j]])
                    entry = self._entries[slot]
                    if entry is None:
                        continue  # invalidated earlier in this same batch
                    sim = float(best_sim[j])
                    if generation is not None and entry.generation != generation:
                        self._invalidate_slot(slot)
                        stale_gen += 1
                        continue
                    if entry.params_key != params_key:
                        continue  # cached under different search params
                    if semantic_on and sim >= sem_threshold:
                        kinds[i] = SEMANTIC_HIT
                        out_d[i] = entry.distances
                        out_i[i] = entry.ids
                        self._touch(slot)
                    elif routing_on and sim >= cfg.routing_threshold:
                        if exclude and not exclude.isdisjoint(
                            int(c) for c in entry.routing_clusters if c >= 0
                        ):
                            # Stale: the cached decision routes into a shard
                            # that is dead right now — fresh sample search.
                            stale += 1
                            continue
                        kinds[i] = ROUTING_HIT
                        routing_entries[i] = entry
                        self._touch(slot)

            counts = {
                name: int((kinds == kind).sum()) for kind, name in TIER_NAMES.items()
            }
            span.set(**counts)
            self.stats.exact_hits += counts["exact_hit"]
            self.stats.semantic_hits += counts["semantic_hit"]
            self.stats.routing_hits += counts["routing_hit"]
            self.stats.misses += counts["miss"]
            self.stats.stale_routing += stale
            self.stats.stale_generation += stale_gen
        for name, count in counts.items():
            if count:
                lookups.inc(count, tier=name)
        if stale:
            registry.counter(
                "retrieval_cache_stale_routing_total",
                "routing-tier hits demoted because the cached decision "
                "routes into an excluded shard",
            ).inc(stale)
        if stale_gen:
            registry.counter(
                "retrieval_cache_stale_generation_total",
                "cache entries evicted because the datastore mutated "
                "since they were written",
            ).inc(stale_gen)
        return CacheLookup(
            kinds=kinds,
            distances=out_d,
            ids=out_i,
            similarities=sims,
            digests=digests,
            routing_entries=routing_entries,
        )

    def probe_exact(
        self, query: np.ndarray, params_key: tuple, *, generation: int | None = None
    ) -> "tuple | None":
        """Exact tier only, one query: ``(distances, ids)`` copies or ``None``.

        The submit-time fast path of :class:`~repro.serving.frontend.
        DynamicBatcher`. A hit is the same event as an ``EXACT_HIT`` row of
        :meth:`lookup` (both go through :meth:`_exact_match`) and counts the
        same — one ``stats.exact_hits``, one
        ``retrieval_cache_lookups_total{tier=exact_hit}``. Anything else is
        not a lookup: nothing is counted, touched or evicted, because the
        caller falls through to the batch path, whose :meth:`lookup` does the
        counting (and evicts a stale-generation entry) exactly once.
        """
        digest = query_digest(query, params_key)
        with self._lock:
            entry, _ = self._exact_match(digest, generation)
            if entry is None:
                return None
            self.stats.exact_hits += 1
        get_registry().counter(
            "retrieval_cache_lookups_total",
            "serve-time retrieval cache lookups by outcome tier",
        ).inc(tier=TIER_NAMES[EXACT_HIT])
        # Entries are replaced, never written in place: copying outside the
        # lock is safe, and keeps a caller's edits out of the cache.
        return entry.distances.copy(), entry.ids.copy()

    # -- insertion ----------------------------------------------------------
    def insert(
        self,
        queries: np.ndarray,
        result,
        params_key: tuple,
        *,
        digests: list | None = None,
        generation: int | None = None,
    ) -> int:
        """Cache the search outcome of a query batch.

        ``result`` is the :class:`~repro.core.hierarchical.SearchResult` of
        searching exactly these queries; ``digests`` are their exact-tier
        keys when the caller already has them (:attr:`CacheLookup.digests`),
        saving the re-hash. Degraded results are refused — a partial answer
        must not outlive the fault that caused it. Returns entries written.

        The batch is copied and normalised once (entries hold row views) and
        its slots are allocated in one pass; the outcome — digest → entry,
        slot of every entry, eviction count, LRU order — is that of
        inserting the rows one at a time, duplicates and batches larger than
        the capacity included.
        """
        if getattr(result, "degraded", False):
            return 0
        q = as_matrix(queries)
        n = len(q)
        if digests is None:
            digests = [query_digest(row, params_key) for row in q]
        normalized = self._normalized(q.astype(np.float32, copy=False))
        distances = np.array(result.distances, copy=True)
        ids = np.array(result.ids, copy=True)
        clusters = np.array(result.routing.clusters, copy=True)
        scores = np.array(result.routing.scores, copy=True)
        slots = []
        evicted = 0
        with self._lock:
            self._ensure_dim(q.shape[1])
            free, victims = self._eviction_order(n)
            for i, digest in enumerate(digests):
                slot = self._exact.get(digest)
                if slot is None:
                    slot = next(free, None)
                if slot is None:
                    slot = next(iter(victims))
                    del self._exact[self._entries[slot].digest]
                    evicted += 1
                # Written now, so the most recently used: last in line.
                victims.pop(slot, None)
                victims[slot] = None
                self._exact[digest] = slot
                self._entries[slot] = _Entry(
                    digest=digest,
                    params_key=params_key,
                    distances=distances[i],
                    ids=ids[i],
                    routing_clusters=clusters[i],
                    routing_scores=scores[i],
                    generation=generation,
                )
                slots.append(slot)
            # A slot written twice keeps its last row: numpy assigns repeated
            # indices in order.
            slots = np.asarray(slots, dtype=np.intp)
            self._vectors[slots] = normalized
            self._valid[slots] = True
            self._last_used[slots] = np.arange(self._clock + 1, self._clock + n + 1)
            self._clock += n
            self.stats.inserts += n
            self.stats.evictions += evicted
            size = int(self._valid.sum())
        registry = get_registry()
        if n:
            registry.counter(
                "retrieval_cache_inserts_total", "entries written to the retrieval cache"
            ).inc(n)
        if evicted:
            registry.counter(
                "retrieval_cache_evictions_total", "LRU evictions from the retrieval cache"
            ).inc(evicted)
        registry.gauge(
            "retrieval_cache_size", "live entries in the retrieval cache"
        ).set(size)
        return n

    def _eviction_order(self, n: int) -> tuple:
        """What an insert of *n* rows allocates from: ``(free, victims)``.

        ``free`` iterates the empty slots, lowest first; ``victims`` is an
        insertion-ordered dict whose first key is the least-recently-used
        entry — as many of the oldest as *n* rows can evict once the free
        slots are gone, from one partial sort, after which the inserting
        loop appends every slot it writes. Neither the free scan nor the
        ``argmin`` runs per row.
        """
        free = np.flatnonzero(~self._valid)
        need = min(n, self.capacity) - len(free)
        if need <= 0:
            return iter(free.tolist()), {}
        used = np.flatnonzero(self._valid)
        stamps = self._last_used[used]
        oldest = np.argpartition(stamps, need - 1)[:need]
        oldest = used[oldest[np.argsort(stamps[oldest])]]
        return iter(free.tolist()), dict.fromkeys(oldest.tolist())
