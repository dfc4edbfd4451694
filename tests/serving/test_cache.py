"""Tests for the serve-time retrieval cache (an exact-digest LRU)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical import HermesSearcher
from repro.datastore.embeddings import zipf_weights
from repro.serving.cache import (
    EXACT_HIT,
    MISS,
    CacheConfig,
    RetrievalCache,
    RetrievalCacheStats,
    query_digest,
)


@pytest.fixture(scope="module")
def searcher(clustered):
    return HermesSearcher(clustered)


@pytest.fixture(scope="module")
def queries(small_queries):
    return small_queries.embeddings


PARAMS = (5, 3, 128)  # (k, clusters_to_search, deep_nprobe)


class FakeResult:
    """Minimal SearchResult stand-in for cache-only tests."""

    def __init__(self, nq: int, k: int = 4):
        self.distances = np.zeros((nq, k), dtype=np.float32)
        self.ids = np.arange(nq * k, dtype=np.int64).reshape(nq, k)
        self.degraded = False


def key_vector(key: int, dim: int = 6) -> np.ndarray:
    """A deterministic, well-separated unit vector per integer key."""
    rng = np.random.default_rng(10_000 + key)
    v = rng.normal(size=dim).astype(np.float32)
    return v / np.linalg.norm(v)


def rotated(q: np.ndarray, cosine: float, seed: int = 0) -> np.ndarray:
    """A vector at exactly the requested cosine similarity to *q*."""
    qn = q / np.linalg.norm(q)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=q.shape).astype(np.float64)
    u -= (u @ qn) * qn
    u /= np.linalg.norm(u)
    out = cosine * qn + np.sqrt(1.0 - cosine**2) * u
    return out.astype(np.float32)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity=0)


class TestDigest:
    def test_sensitive_to_vector_bits_and_params(self):
        q = key_vector(1)
        assert query_digest(q, PARAMS) == query_digest(q.copy(), PARAMS)
        bumped = q.copy()
        bumped[0] = np.nextafter(bumped[0], np.float32(np.inf))
        assert query_digest(bumped, PARAMS) != query_digest(q, PARAMS)
        assert query_digest(q, (10, 3, 128)) != query_digest(q, PARAMS)


class TestExactTier:
    def test_warm_lookup_bit_identical(self, searcher, queries):
        q = queries[:8]
        cache = RetrievalCache(CacheConfig(capacity=32))
        cold = cache.lookup(q, PARAMS[0], PARAMS)
        assert (cold.kinds == MISS).all()
        result = searcher.search(q, k=PARAMS[0])
        cache.insert(q, result, PARAMS)
        warm = cache.lookup(q, PARAMS[0], PARAMS)
        assert (warm.kinds == EXACT_HIT).all()
        assert np.array_equal(warm.ids, result.ids)
        assert np.array_equal(warm.distances, result.distances)

    def test_params_mismatch_never_matches(self, searcher, queries):
        q = queries[:2]
        cache = RetrievalCache(CacheConfig(capacity=8))
        cache.insert(q, searcher.search(q, k=5), PARAMS)
        other = (10, 3, 128)
        miss = cache.lookup(q, 10, other)
        assert (miss.kinds == MISS).all()

    def test_degraded_results_refused(self, queries):
        cache = RetrievalCache(CacheConfig(capacity=8))
        fake = FakeResult(2)
        fake.degraded = True
        assert cache.insert(queries[:2], fake, PARAMS) == 0
        assert len(cache) == 0

    def test_near_duplicate_misses(self, searcher, queries):
        """Only the same vector hits: reuse by cosine similarity is gone."""
        base = queries[:1]
        cache = RetrievalCache(CacheConfig(capacity=16))
        cache.insert(base, searcher.search(base, k=5), PARAMS)
        near = cache.lookup(rotated(base[0], 0.9999)[np.newaxis], 5, PARAMS)
        assert near.kinds[0] == MISS


class TestEviction:
    CAPACITY = 8

    def fresh(self):
        return RetrievalCache(CacheConfig(capacity=self.CAPACITY))

    def test_lru_evicts_oldest(self):
        cache = self.fresh()
        for key in range(10):
            cache.insert(key_vector(key)[np.newaxis], FakeResult(1), PARAMS)
        assert len(cache) == self.CAPACITY
        assert cache.stats.evictions == 2
        for key, expected in [(0, MISS), (1, MISS), (2, EXACT_HIT), (9, EXACT_HIT)]:
            kind = cache.lookup(key_vector(key)[np.newaxis], 4, PARAMS).kinds[0]
            assert kind == expected, key

    def test_touch_on_hit_protects_entry(self):
        cache = self.fresh()
        for key in range(self.CAPACITY):
            cache.insert(key_vector(key)[np.newaxis], FakeResult(1), PARAMS)
        cache.lookup(key_vector(0)[np.newaxis], 4, PARAMS)  # refresh key 0
        cache.insert(key_vector(100)[np.newaxis], FakeResult(1), PARAMS)
        assert cache.lookup(key_vector(0)[np.newaxis], 4, PARAMS).kinds[0] == EXACT_HIT
        assert cache.lookup(key_vector(1)[np.newaxis], 4, PARAMS).kinds[0] == MISS

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_capacity_respected_under_random_workload(self, keys):
        cache = self.fresh()
        for key in keys:
            cache.insert(key_vector(key)[np.newaxis], FakeResult(1), PARAMS)
            assert len(cache) <= self.CAPACITY
            assert len(cache.cached_digests()) == len(cache)
        if keys:
            # The most recent insert always survives.
            last = cache.lookup(key_vector(keys[-1])[np.newaxis], 4, PARAMS)
            assert last.kinds[0] == EXACT_HIT
        assert cache.stats.inserts == len(keys)


class TestSkewSweep:
    def test_hit_rate_monotone_in_zipf_skew(self):
        """With the cache smaller than the pool, skew drives the hit rate."""
        pool = np.stack([key_vector(i, dim=8) for i in range(64)])
        rates = []
        for alpha in (0.0, 0.8, 1.6, 2.4):
            rng = np.random.default_rng(0)
            stream = rng.choice(64, size=512, p=zipf_weights(64, exponent=alpha))
            cache = RetrievalCache(CacheConfig(capacity=16))
            for idx in stream:
                q = pool[int(idx)][np.newaxis]
                if cache.lookup(q, 4, PARAMS).kinds[0] == MISS:
                    cache.insert(q, FakeResult(1), PARAMS)
            rates.append(cache.stats.hit_rate)
        assert all(b > a for a, b in zip(rates, rates[1:])), rates


class TestGenerationInvalidation:
    def test_same_generation_hits(self, queries):
        cache = RetrievalCache(CacheConfig(capacity=8))
        q = queries[:2]
        cache.insert(q, FakeResult(2), PARAMS, generation=3)
        warm = cache.lookup(q, 4, PARAMS, generation=3)
        assert (warm.kinds == EXACT_HIT).all()
        assert cache.stats.stale_generation == 0

    def test_generation_change_invalidates_exact_entry(self, queries):
        cache = RetrievalCache(CacheConfig(capacity=8))
        q = queries[:2]
        cache.insert(q, FakeResult(2), PARAMS, generation=3)
        stale = cache.lookup(q, 4, PARAMS, generation=4)
        assert (stale.kinds == MISS).all()
        assert cache.stats.stale_generation == 2
        assert len(cache) == 0  # evicted, not just skipped

    def test_generation_unaware_lookup_is_agnostic(self, queries):
        # A caller that does not track generations (lookup generation=None)
        # serves whatever is cached, whatever generation it was written at.
        cache = RetrievalCache(CacheConfig(capacity=8))
        q = queries[:1]
        cache.insert(q, FakeResult(1), PARAMS, generation=3)
        assert (cache.lookup(q, 4, PARAMS).kinds == EXACT_HIT).all()
        assert cache.stats.stale_generation == 0

    def test_unknown_generation_entry_is_stale_to_aware_lookup(self, queries):
        # An entry written without a generation cannot be proven current, so
        # a generation-aware lookup conservatively refuses it.
        cache = RetrievalCache(CacheConfig(capacity=8))
        q = queries[:1]
        cache.insert(q, FakeResult(1), PARAMS)  # generation=None
        assert (cache.lookup(q, 4, PARAMS, generation=7).kinds == MISS).all()
        assert cache.stats.stale_generation == 1

    def test_stale_generation_counter_on_registry(self, queries):
        from repro.obs.metrics import MetricsRegistry, set_registry

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            cache = RetrievalCache(CacheConfig(capacity=8))
            q = queries[:3]
            cache.insert(q, FakeResult(3), PARAMS, generation=0)
            cache.lookup(q, 4, PARAMS, generation=1)
            snap = fresh.snapshot()
            assert snap["retrieval_cache_stale_generation_total"] == 3
        finally:
            set_registry(previous)


class TestMetrics:
    def test_registry_counters_emitted(self, queries):
        from repro.obs.metrics import MetricsRegistry, set_registry

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            cache = RetrievalCache(CacheConfig(capacity=4))
            cache.lookup(queries[:3], 4, PARAMS)
            cache.insert(queries[:3], FakeResult(3), PARAMS)
            cache.lookup(queries[:3], 4, PARAMS)
            snap = fresh.snapshot()
            assert snap['retrieval_cache_lookups_total{tier="miss"}'] == 3
            assert snap['retrieval_cache_lookups_total{tier="exact_hit"}'] == 3
            assert snap["retrieval_cache_inserts_total"] == 3
            assert snap["retrieval_cache_size"] == 3
        finally:
            set_registry(previous)


@pytest.fixture()
def fresh_registry():
    from repro.obs.metrics import MetricsRegistry, set_registry

    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


class TestProbeExact:
    """The single-row exact probe: a hit is a lookup row, a non-hit is nothing."""

    def make(self, generation=3):
        """Key 0 written before key 5, so a hit on key 0 reorders the LRU."""
        cache = RetrievalCache(CacheConfig(capacity=4))
        q = np.stack([key_vector(0), key_vector(5)])
        cache.insert(q, FakeResult(2), PARAMS, generation=generation)
        return cache, q[0]

    def test_hit_counts_and_touches_like_a_lookup_row(self):
        probed, q = self.make()
        looked, _ = self.make()
        answer = probed.probe_exact(q, PARAMS, generation=3)
        row = looked.lookup(q[np.newaxis], 4, PARAMS, generation=3)
        assert np.array_equal(answer[0], row.distances[0])
        assert np.array_equal(answer[1], row.ids[0])
        assert probed.stats == looked.stats
        assert probed.stats.exact_hits == probed.stats.lookups == 1
        assert probed.cached_digests() == looked.cached_digests()
        assert probed.cached_digests()[-1] == query_digest(q, PARAMS)

    def test_hit_counts_one_registry_lookup(self, fresh_registry):
        cache, q = self.make()
        before = fresh_registry.snapshot()
        cache.probe_exact(q, PARAMS, generation=3)
        after = fresh_registry.snapshot()
        assert {k: v for k, v in after.items() if before.get(k) != v} == {
            'retrieval_cache_lookups_total{tier="exact_hit"}': 1
        }

    def test_hit_returns_copies(self):
        cache, q = self.make()
        distances, ids = cache.probe_exact(q, PARAMS, generation=3)
        distances[:] = -1.0
        ids[:] = -1
        again = cache.probe_exact(q, PARAMS, generation=3)
        assert (again[0] == 0.0).all() and (again[1] >= 0).all()

    @pytest.mark.parametrize(
        "query_key, params, generation",
        [
            (1, PARAMS, 3),  # never cached
            (0, (10, 3, 128), 3),  # cached under other search params
            (0, PARAMS, 4),  # cached against an older corpus
        ],
    )
    def test_non_hit_counts_touches_and_evicts_nothing(
        self, query_key, params, generation, fresh_registry
    ):
        cache, _ = self.make()
        stats = RetrievalCacheStats(**vars(cache.stats))
        order = cache.cached_digests()
        registry = fresh_registry.snapshot()
        assert cache.probe_exact(key_vector(query_key), params, generation=generation) is None
        assert cache.stats == stats
        assert cache.cached_digests() == order  # same entries, same LRU order
        assert fresh_registry.snapshot() == registry

    def test_stale_entry_is_left_for_the_batch_lookup_to_count_once(self):
        cache, q = self.make(generation=3)
        assert cache.probe_exact(q, PARAMS, generation=4) is None
        row = cache.lookup(q[np.newaxis], 4, PARAMS, generation=4)
        assert row.kinds[0] == MISS
        assert cache.stats.stale_generation == 1
        assert query_digest(q, PARAMS) not in cache.cached_digests()


class TestBatchInsertOracle:
    """``insert(batch)`` leaves the cache exactly as row-by-row inserts do."""

    @staticmethod
    def batch_result(op: int, nq: int) -> FakeResult:
        result = FakeResult(nq)
        result.ids = result.ids + 1000 * (op + 1)  # which write an entry is from
        return result

    @staticmethod
    def state(cache: RetrievalCache) -> dict:
        return {
            "lru_order": cache.cached_digests(),
            "ids_of": {d: e.ids.tolist() for d, e in cache._entries.items()},
            "evictions": cache.stats.evictions,
            "inserts": cache.stats.inserts,
        }

    @settings(deadline=None)
    @given(
        capacity=st.integers(1, 6),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "insert", "lookup"]),
                st.lists(st.integers(0, 11), min_size=1, max_size=10),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_batch_equals_row_by_row(self, capacity, ops):
        config = CacheConfig(capacity=capacity)
        batched, rowwise = RetrievalCache(config), RetrievalCache(config)
        for op, (verb, keys) in enumerate(ops):
            q = np.stack([key_vector(key) for key in keys])
            if verb == "lookup":
                a = batched.lookup(q, 4, PARAMS)
                b = rowwise.lookup(q, 4, PARAMS)
                assert np.array_equal(a.kinds, b.kinds) and np.array_equal(a.ids, b.ids)
            else:
                result = self.batch_result(op, len(q))
                assert batched.insert(q, result, PARAMS) == len(q)
                for i in range(len(q)):
                    row = FakeResult(1)
                    row.ids = result.ids[i : i + 1]
                    rowwise.insert(q[i : i + 1], row, PARAMS)
            assert self.state(batched) == self.state(rowwise)

    def test_duplicates_and_a_batch_larger_than_the_capacity(self):
        """The cases a per-batch insert could get wrong, spelled out:
        [C, D, E, C] into a full 2-entry cache evicts four times (C is
        written, evicted by E, and written again) and keeps the *last* C,
        as the most recently used entry."""
        cache = RetrievalCache(CacheConfig(capacity=2))
        cache.insert(np.stack([key_vector(0), key_vector(1)]), FakeResult(2), PARAMS)
        keys = [2, 3, 4, 2]
        result = self.batch_result(0, 4)
        cache.insert(np.stack([key_vector(key) for key in keys]), result, PARAMS)
        assert cache.stats.evictions == 4 and len(cache) == 2
        assert cache.cached_digests() == [
            query_digest(key_vector(key), PARAMS) for key in (4, 2)
        ]
        last = cache.lookup(np.stack([key_vector(4), key_vector(2)]), 4, PARAMS)
        assert (last.kinds == EXACT_HIT).all()
        assert np.array_equal(last.ids, result.ids[[2, 3]])

    def test_given_digests_are_used_as_is(self):
        q = np.stack([key_vector(0), key_vector(1)])
        cache = RetrievalCache(CacheConfig(capacity=4))
        digests = cache.lookup(q, 4, PARAMS).digests
        cache.insert(q, FakeResult(2), PARAMS, digests=digests)
        assert cache.cached_digests() == digests
        assert (cache.lookup(q, 4, PARAMS).kinds == EXACT_HIT).all()


class LRUModel:
    """The cache's contract, written out plainly: a dict of entries plus a
    list of keys, least recently used first, and the five counters."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: dict = {}  # key -> (ids row, generation)
        self.order: list = []
        self.stats = RetrievalCacheStats()

    def _match(self, key, generation):
        """``(ids row or None, stale)``; a hit becomes the most recent."""
        if key not in self.entries:
            return None, False
        ids, written_at = self.entries[key]
        if generation is not None and written_at != generation:
            return None, True
        self.order.remove(key)
        self.order.append(key)
        return ids, False

    def lookup(self, keys, generation) -> list:
        rows = []
        for key in keys:
            ids, stale = self._match(key, generation)
            if stale:
                del self.entries[key]
                self.order.remove(key)
                self.stats.stale_generation += 1
            if ids is None:
                self.stats.misses += 1
            else:
                self.stats.exact_hits += 1
            rows.append(ids)
        return rows

    def probe(self, key, generation):
        ids, _ = self._match(key, generation)
        if ids is not None:
            self.stats.exact_hits += 1
        return ids

    def insert(self, keys, rows, generation) -> None:
        for key, ids in zip(keys, rows):
            if key in self.entries:
                self.order.remove(key)
            self.entries[key] = (ids, generation)
            self.order.append(key)
            if len(self.order) > self.capacity:
                del self.entries[self.order.pop(0)]
                self.stats.evictions += 1
            self.stats.inserts += 1


class TestLRUModel:
    """Lookups, submit-time probes, inserts and datastore generation bumps
    leave the cache where the plain LRU model above ends up."""

    @settings(deadline=None)
    @given(
        capacity=st.integers(1, 5),
        aware=st.booleans(),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("lookup"), st.lists(st.integers(0, 5), min_size=1, max_size=6)),
                st.tuples(st.just("probe"), st.integers(0, 5)),
                st.tuples(st.just("insert"), st.lists(st.integers(0, 5), min_size=1, max_size=6)),
                st.tuples(st.just("bump"), st.none()),
            ),
            max_size=40,
        ),
    )
    def test_cache_matches_the_model(self, capacity, aware, ops):
        cache, model = RetrievalCache(CacheConfig(capacity=capacity)), LRUModel(capacity)
        digest = {key: query_digest(key_vector(key), PARAMS) for key in range(6)}
        generation = 0
        for op, (verb, arg) in enumerate(ops):
            at = generation if aware else None  # None: a generation-unaware caller
            if verb == "bump":
                generation += 1
            elif verb == "probe":
                answer = cache.probe_exact(key_vector(arg), PARAMS, generation=at)
                want = model.probe(arg, at)
                assert (answer is None) == (want is None)
                if answer is not None:
                    assert answer[1].tolist() == want
            elif verb == "lookup":
                got = cache.lookup(np.stack([key_vector(key) for key in arg]), 4, PARAMS,
                                   generation=at)
                want = model.lookup(arg, at)
                assert got.kinds.tolist() == [MISS if w is None else EXACT_HIT for w in want]
                for row, w in zip(got.ids.tolist(), want):
                    assert row == (w if w is not None else [-1] * 4)
            else:
                result = TestBatchInsertOracle.batch_result(op, len(arg))
                cache.insert(np.stack([key_vector(key) for key in arg]), result, PARAMS,
                             generation=at)
                model.insert(arg, result.ids.tolist(), at)
            assert cache.stats == model.stats
            assert cache.cached_digests() == [digest[key] for key in model.order]
