"""Tests for the serve-time multi-tier retrieval cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical import HermesSearcher
from repro.core.router import RoutingDecision
from repro.datastore.embeddings import zipf_weights
from repro.serving.cache import (
    EXACT_HIT,
    MISS,
    ROUTING_HIT,
    SEMANTIC_HIT,
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

    def __init__(self, nq: int, k: int = 4, m: int = 2, n_clusters: int = 4):
        self.distances = np.zeros((nq, k), dtype=np.float32)
        self.ids = np.arange(nq * k, dtype=np.int64).reshape(nq, k)
        self.routing = RoutingDecision(
            clusters=np.zeros((nq, m), dtype=np.int64),
            scores=np.zeros((nq, n_clusters), dtype=np.float32),
        )
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
        with pytest.raises(ValueError):
            CacheConfig(semantic_threshold=1.5)
        with pytest.raises(ValueError):
            CacheConfig(routing_threshold=0.0)
        # Routing must be the looser (smaller) threshold.
        with pytest.raises(ValueError):
            CacheConfig(semantic_threshold=0.9, routing_threshold=0.99)

    def test_single_tier_configs_allowed(self):
        CacheConfig(semantic_threshold=None, routing_threshold=0.8)
        CacheConfig(semantic_threshold=0.99, routing_threshold=None)


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


class TestSemanticAndRoutingTiers:
    def make_cache(self, **kwargs):
        cfg = CacheConfig(
            capacity=16,
            semantic_threshold=kwargs.pop("semantic_threshold", 0.95),
            routing_threshold=kwargs.pop("routing_threshold", 0.80),
        )
        return RetrievalCache(cfg)

    def test_tier_assignment_by_similarity(self, searcher, queries):
        base = queries[:1]
        cache = self.make_cache()
        result = searcher.search(base, k=5)
        cache.insert(base, result, PARAMS)
        semantic = cache.lookup(rotated(base[0], 0.99)[np.newaxis], 5, PARAMS)
        routing = cache.lookup(rotated(base[0], 0.90)[np.newaxis], 5, PARAMS)
        miss = cache.lookup(rotated(base[0], 0.50)[np.newaxis], 5, PARAMS)
        assert semantic.kinds[0] == SEMANTIC_HIT
        assert np.array_equal(semantic.ids[0], result.ids[0])
        assert routing.kinds[0] == ROUTING_HIT
        assert miss.kinds[0] == MISS

    def test_routing_for_returns_cached_decision(self, searcher, queries):
        base = queries[:1]
        cache = self.make_cache()
        result = searcher.search(base, k=5)
        cache.insert(base, result, PARAMS)
        lookup = cache.lookup(rotated(base[0], 0.90)[np.newaxis], 5, PARAMS)
        decision = lookup.routing_for(lookup.miss_rows)
        assert np.array_equal(decision.clusters, result.routing.clusters)
        assert np.array_equal(decision.scores, result.routing.scores)

    def test_disabled_tiers_miss(self, searcher, queries):
        base = queries[:1]
        cache = RetrievalCache(
            CacheConfig(capacity=16, semantic_threshold=None, routing_threshold=None)
        )
        cache.insert(base, searcher.search(base, k=5), PARAMS)
        near = cache.lookup(rotated(base[0], 0.9999)[np.newaxis], 5, PARAMS)
        assert near.kinds[0] == MISS


class TestStaleRouting:
    """Satellite regression: a cached RoutingDecision that routes into a
    currently-excluded (dead / breaker-open) cluster must not be replayed."""

    def make_cache(self):
        return RetrievalCache(
            CacheConfig(capacity=16, semantic_threshold=0.95, routing_threshold=0.80)
        )

    def test_excluded_cluster_demotes_routing_hit(self):
        cache = self.make_cache()
        q = key_vector(3)[np.newaxis]
        cache.insert(q, FakeResult(1), PARAMS)  # FakeResult routes to cluster 0
        probe = rotated(q[0], 0.90)[np.newaxis]
        assert cache.lookup(probe, 4, PARAMS).kinds[0] == ROUTING_HIT
        stale = cache.lookup(probe, 4, PARAMS, exclude=frozenset({0}))
        assert stale.kinds[0] == MISS
        assert cache.stats.stale_routing == 1

    def test_unrelated_exclusion_keeps_routing_hit(self):
        cache = self.make_cache()
        q = key_vector(4)[np.newaxis]
        cache.insert(q, FakeResult(1), PARAMS)
        probe = rotated(q[0], 0.90)[np.newaxis]
        hit = cache.lookup(probe, 4, PARAMS, exclude=frozenset({3}))
        assert hit.kinds[0] == ROUTING_HIT
        assert cache.stats.stale_routing == 0

    def test_exact_and_semantic_tiers_unaffected(self):
        """Complete cached answers were computed when the shard was healthy;
        only replaying a routing decision into a dead shard is dangerous."""
        cache = self.make_cache()
        q = key_vector(5)[np.newaxis]
        cache.insert(q, FakeResult(1), PARAMS)
        exclude = frozenset({0})
        assert cache.lookup(q, 4, PARAMS, exclude=exclude).kinds[0] == EXACT_HIT
        near = rotated(q[0], 0.99)[np.newaxis]
        assert cache.lookup(near, 4, PARAMS, exclude=exclude).kinds[0] == SEMANTIC_HIT

    def test_stale_routing_counted_on_registry(self):
        from repro.obs.metrics import MetricsRegistry, set_registry

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            cache = self.make_cache()
            q = key_vector(6)[np.newaxis]
            cache.insert(q, FakeResult(1), PARAMS)
            probe = rotated(q[0], 0.90)[np.newaxis]
            cache.lookup(probe, 4, PARAMS, exclude=frozenset({0}))
            snap = fresh.snapshot()
            assert snap["retrieval_cache_stale_routing_total"] == 1
        finally:
            set_registry(previous)


class TestSemanticSlack:
    """The brownout knob: slack loosens the semantic threshold per lookup."""

    def test_slack_loosens_semantic_threshold(self):
        cache = RetrievalCache(
            CacheConfig(capacity=8, semantic_threshold=0.95, routing_threshold=None)
        )
        q = key_vector(7)[np.newaxis]
        cache.insert(q, FakeResult(1), PARAMS)
        probe = rotated(q[0], 0.93)[np.newaxis]
        assert cache.lookup(probe, 4, PARAMS).kinds[0] == MISS
        loose = cache.lookup(probe, 4, PARAMS, semantic_slack=0.03)
        assert loose.kinds[0] == SEMANTIC_HIT

    def test_negative_slack_never_tightens(self):
        cache = RetrievalCache(
            CacheConfig(capacity=8, semantic_threshold=0.95, routing_threshold=None)
        )
        q = key_vector(8)[np.newaxis]
        cache.insert(q, FakeResult(1), PARAMS)
        probe = rotated(q[0], 0.97)[np.newaxis]
        assert cache.lookup(probe, 4, PARAMS, semantic_slack=-1.0).kinds[0] == SEMANTIC_HIT


class TestEviction:
    CAPACITY = 8

    def fresh(self):
        return RetrievalCache(
            CacheConfig(
                capacity=self.CAPACITY,
                semantic_threshold=None,
                routing_threshold=None,
            )
        )

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
            cache = RetrievalCache(
                CacheConfig(
                    capacity=16, semantic_threshold=None, routing_threshold=None
                )
            )
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

    def test_generation_change_invalidates_semantic_tier(self):
        cache = RetrievalCache(
            CacheConfig(capacity=8, semantic_threshold=0.99, routing_threshold=0.8)
        )
        q = key_vector(1)[np.newaxis]
        cache.insert(q, FakeResult(1), PARAMS, generation=1)
        near = rotated(q[0], 0.995)[np.newaxis]
        hit = cache.lookup(near, 4, PARAMS, generation=1)
        assert hit.kinds[0] == SEMANTIC_HIT
        stale = cache.lookup(near, 4, PARAMS, generation=2)
        assert stale.kinds[0] == MISS
        assert cache.stats.stale_generation >= 1

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
        cache = RetrievalCache(CacheConfig(capacity=4))
        q = key_vector(0)[np.newaxis]
        cache.insert(q, FakeResult(1), PARAMS, generation=generation)
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
        assert np.array_equal(probed._last_used, looked._last_used)

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
        stamps = cache._last_used.copy()
        digests = cache.cached_digests()
        registry = fresh_registry.snapshot()
        assert cache.probe_exact(key_vector(query_key), params, generation=generation) is None
        assert cache.stats == stats
        assert np.array_equal(cache._last_used, stamps)
        assert cache.cached_digests() == digests
        assert fresh_registry.snapshot() == registry

    def test_stale_entry_is_left_for_the_batch_lookup_to_count_once(self):
        cache, q = self.make(generation=3)
        assert cache.probe_exact(q, PARAMS, generation=4) is None
        row = cache.lookup(q[np.newaxis], 4, PARAMS, generation=4)
        assert row.kinds[0] == MISS
        assert cache.stats.stale_generation == 1 and len(cache) == 0


class TestBatchInsertOracle:
    """``insert(batch)`` leaves the cache exactly as row-by-row inserts do."""

    @staticmethod
    def batch_result(op: int, nq: int) -> FakeResult:
        result = FakeResult(nq)
        result.ids = result.ids + 1000 * (op + 1)  # which write an entry is from
        return result

    @staticmethod
    def state(cache: RetrievalCache) -> dict:
        valid = np.flatnonzero(cache._valid)
        return {
            "slot_of": dict(cache._exact),
            "ids_of": {d: cache._entries[s].ids.tolist() for d, s in cache._exact.items()},
            "valid": valid.tolist(),
            "stamps": cache._last_used[valid].tolist(),
            "vectors": cache._vectors[valid].tolist(),
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
        config = CacheConfig(capacity=capacity, semantic_threshold=None, routing_threshold=None)
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
        """The two cases a per-batch allocation could get wrong, spelled out:
        [C, D, E, C] into a full 2-slot cache evicts four times (C is written,
        evicted by E, and written again) and keeps the *last* C."""
        config = CacheConfig(capacity=2, semantic_threshold=None, routing_threshold=None)
        cache = RetrievalCache(config)
        cache.insert(np.stack([key_vector(0), key_vector(1)]), FakeResult(2), PARAMS)
        keys = [2, 3, 4, 2]
        result = self.batch_result(0, 4)
        cache.insert(np.stack([key_vector(key) for key in keys]), result, PARAMS)
        assert cache.stats.evictions == 4 and len(cache) == 2
        last = cache.lookup(np.stack([key_vector(4), key_vector(2)]), 4, PARAMS)
        assert (last.kinds == EXACT_HIT).all()
        assert np.array_equal(last.ids, result.ids[[2, 3]])

    def test_given_digests_are_used_as_is(self):
        q = np.stack([key_vector(0), key_vector(1)])
        cache = RetrievalCache(CacheConfig(capacity=4))
        digests = cache.lookup(q, 4, PARAMS).digests
        cache.insert(q, FakeResult(2), PARAMS, digests=digests)
        assert cache.cached_digests() == set(digests)
        assert (cache.lookup(q, 4, PARAMS).kinds == EXACT_HIT).all()
