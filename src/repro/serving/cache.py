"""Serve-time retrieval cache: an exact-digest LRU (the RAGCache idea, retrieval-side).

Hermes's own evaluation (Fig. 13) shows serve traffic is heavily skewed:
NQ-like workloads concentrate on a few hot topics, so the same queries arrive
over and over. RAGCache [Jin et al. 2024] exploits that redundancy on the
*generation* side by caching document KV prefixes; this module exploits it on
the *retrieval* side, in front of
:class:`~repro.core.hierarchical.HierarchicalSearcher`.

An entry is keyed by the blake2b digest of the raw query embedding bytes plus
the search parameters. A hit returns the cached ``(distances, ids)`` rows
*bit-identically*: the cache never changes results, only latency. It is read
two ways — the batched :meth:`RetrievalCache.lookup`, and the single-query
:meth:`RetrievalCache.probe_exact` the batcher makes at submit — through one
match rule (:meth:`RetrievalCache._exact_match`).

Entries live in one ordered dict, least recently used first, bounded by
``capacity``: a hit moves its entry to the end, an insert writes its entry at
the end and pops from the front until the size is back within capacity.
Hits, misses, inserts and evictions are counted both on
:class:`RetrievalCacheStats` (per-cache, for tests/benchmarks) and on the
process metrics registry (``retrieval_cache_lookups_total`` /
``_evictions_total`` / ``_size``), and each batched lookup runs under a
``cache_lookup`` span.

Degraded search results (missing shards) are never inserted: caching a
partial answer would keep serving it after the fleet recovers. Every entry
records the datastore generation it was computed against, and a lookup at
another generation deletes it.

There is no near-duplicate reuse. Semantic (cosine-matched results) and
routing (cosine-matched ``RoutingDecision``) tiers were measured on the
benchmark suite's ``rag_strides``, the only workload where they hit: they
lowered NDCG@10 (0.875 with them, 0.881 without) and bought no TTFT or
throughput, so they were deleted. DESIGN.md "Serving cache & batching" has
the numbers.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..ann.distances import as_matrix
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer

__all__ = [
    "MISS",
    "EXACT_HIT",
    "TIER_NAMES",
    "CacheConfig",
    "RetrievalCacheStats",
    "CacheLookup",
    "RetrievalCache",
    "query_digest",
]

#: Lookup outcome kinds.
MISS, EXACT_HIT = 0, 1
TIER_NAMES = {MISS: "miss", EXACT_HIT: "exact_hit"}


def query_digest(row: np.ndarray, params_key: tuple) -> bytes:
    """Cache key: digest of the raw embedding bytes + search params.

    Keyed on the float32 bit pattern, so two queries collide only when they
    are the *same vector* — the precondition for the bit-identical contract.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(row, dtype=np.float32).tobytes())
    h.update(repr(params_key).encode())
    return h.digest()


@dataclass(frozen=True)
class CacheConfig:
    """Tunables of the serve-time retrieval cache: ``capacity`` bounds the
    number of cached query entries (LRU)."""

    capacity: int = 1024

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")


@dataclass
class RetrievalCacheStats:
    """Per-cache counters (the registry carries the process-wide view)."""

    exact_hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    #: entries dropped because the datastore mutated since they were cached
    stale_generation: int = 0

    @property
    def lookups(self) -> int:
        return self.exact_hits + self.misses

    @property
    def result_hits(self) -> int:
        """Lookups answered from the cache (every hit is exact)."""
        return self.exact_hits

    @property
    def routing_hits(self) -> int:
        """Always 0: there is no routing tier. Kept because the benchmark
        suite's ``serving.cache.routing_hit_share`` reads it."""
        return 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        if not self.lookups:
            return 0.0
        return self.exact_hits / self.lookups


class _Entry(NamedTuple):
    """One cached query's results."""

    distances: np.ndarray
    ids: np.ndarray
    #: datastore mutation generation the entry was computed against;
    #: ``None`` means the caller does not track generations.
    generation: int | None


@dataclass
class CacheLookup:
    """Outcome of one batched lookup.

    ``kinds[i]`` classifies query *i* (``MISS`` / ``EXACT_HIT``);
    ``distances`` / ``ids`` rows are populated for hits and are undefined
    (inf/-1) elsewhere. ``digests`` are the cache keys, reusable by the caller
    for in-batch deduplication and the insert.
    """

    kinds: np.ndarray
    distances: np.ndarray
    ids: np.ndarray
    digests: list

    @property
    def miss_rows(self) -> np.ndarray:
        """Indices that must be searched."""
        return np.flatnonzero(self.kinds == MISS)


class RetrievalCache:
    """The exact-digest LRU itself. Thread-safe: one lock around the dict."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self.stats = RetrievalCacheStats()
        self._lock = threading.Lock()
        #: digest → :class:`_Entry`, least recently used first
        self._entries: OrderedDict = OrderedDict()

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def capacity(self) -> int:
        return self.config.capacity

    def cached_digests(self) -> list:
        """The cached keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    # -- internals (caller holds the lock) ----------------------------------
    def _exact_match(self, digest: bytes, generation: int | None) -> tuple:
        """The one statement of a hit: ``(entry, stale)``.

        A hit is a digest that is present and whose entry was written at
        *generation* (``None`` skips the check); it becomes the most recently
        used and is returned. Anything else returns no entry and changes
        nothing — ``stale`` says a present-but-outdated entry exists, so that
        the batch lookup can delete and count it, which the submit-time probe
        leaves to it.
        """
        entry = self._entries.get(digest)
        if entry is None:
            return None, False
        if generation is not None and entry.generation != generation:
            return None, True
        self._entries.move_to_end(digest)
        return entry, False

    # -- lookup -------------------------------------------------------------
    def lookup(
        self,
        queries: np.ndarray,
        k: int,
        params_key: tuple,
        *,
        generation: int | None = None,
    ) -> CacheLookup:
        """Classify a query batch as hits and misses.

        ``k`` sizes the output rows; ``params_key`` must capture every
        parameter that changes search results (k, fanout, nprobe, ...) —
        entries cached under different parameters never match.

        ``generation`` is the datastore's current mutation generation (see
        ``ClusteredDatastore.generation``). Entries cached under a different
        generation were computed against a corpus that has since changed —
        they are deleted, counted on ``retrieval_cache_stale_generation_total``
        and the row misses. ``None`` (the default) disables the check for
        callers serving a frozen datastore.
        """
        q = as_matrix(queries)
        nq = len(q)
        kinds = np.full(nq, MISS, dtype=np.int8)
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        out_i = np.full((nq, k), -1, dtype=np.int64)
        digests = [query_digest(row, params_key) for row in q]
        stale = 0

        with self._lock, get_tracer().span("cache_lookup", batch=nq) as span:
            for i, digest in enumerate(digests):
                entry, outdated = self._exact_match(digest, generation)
                if outdated:
                    del self._entries[digest]
                    stale += 1
                elif entry is not None:
                    kinds[i] = EXACT_HIT
                    out_d[i] = entry.distances
                    out_i[i] = entry.ids
            hits = int((kinds == EXACT_HIT).sum())
            counts = {TIER_NAMES[EXACT_HIT]: hits, TIER_NAMES[MISS]: nq - hits}
            span.set(**counts)
            self.stats.exact_hits += hits
            self.stats.misses += nq - hits
            self.stats.stale_generation += stale
        registry = get_registry()
        lookups = registry.counter(
            "retrieval_cache_lookups_total",
            "serve-time retrieval cache lookups by outcome tier",
        )
        for name, count in counts.items():
            if count:
                lookups.inc(count, tier=name)
        if stale:
            registry.counter(
                "retrieval_cache_stale_generation_total",
                "cache entries evicted because the datastore mutated "
                "since they were written",
            ).inc(stale)
        return CacheLookup(kinds=kinds, distances=out_d, ids=out_i, digests=digests)

    def probe_exact(
        self, query: np.ndarray, params_key: tuple, *, generation: int | None = None
    ) -> "tuple | None":
        """One query: ``(distances, ids)`` copies on a hit, else ``None``.

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
        searching exactly these queries; ``digests`` are their keys when the
        caller already has them (:attr:`CacheLookup.digests`), saving the
        re-hash. Degraded results are refused — a partial answer must not
        outlive the fault that caused it. Returns entries written.

        Rows are written in order, each one becoming the most recently used
        and evicting the least recently used entry once the cache is over
        capacity, so duplicates keep their last row and a batch larger than
        the capacity keeps its tail. The batch is copied once; entries hold
        row views of the copy.
        """
        if getattr(result, "degraded", False):
            return 0
        if digests is None:
            digests = [query_digest(row, params_key) for row in as_matrix(queries)]
        n = len(digests)
        distances = np.array(result.distances, copy=True)
        ids = np.array(result.ids, copy=True)
        evicted = 0
        with self._lock:
            entries = self._entries
            for digest, row_d, row_i in zip(digests, distances, ids):
                entries[digest] = _Entry(row_d, row_i, generation)
                entries.move_to_end(digest)
                if len(entries) > self.capacity:
                    entries.popitem(last=False)
                    evicted += 1
            self.stats.inserts += n
            self.stats.evictions += evicted
            size = len(entries)
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
