"""Tests for the serving frontend: cache façade + dynamic batcher."""

import numpy as np
import pytest

from repro.core.hierarchical import HermesSearcher
from repro.core.policy import RetrievalPolicy
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serving.cache import EXACT_HIT, MISS, CacheConfig
from repro.serving.frontend import BatcherStats, DynamicBatcher, ServingFrontend


@pytest.fixture(scope="module")
def searcher(clustered):
    return HermesSearcher(clustered)


@pytest.fixture(scope="module")
def queries(small_queries):
    return small_queries.embeddings


def exact_only_frontend(searcher, capacity=64):
    return ServingFrontend(searcher, cache_config=CacheConfig(capacity=capacity))


class TestExactPathEquivalence:
    def test_cold_and_warm_match_direct_search(self, searcher, queries):
        q = queries[:12]
        frontend = exact_only_frontend(searcher)
        direct = searcher.search(q, k=5)
        cold = frontend.search(q, k=5)
        warm = frontend.search(q, k=5)
        for res, kinds in ((cold, MISS), (warm, EXACT_HIT)):
            assert (res.kinds == kinds).all()
            assert np.array_equal(res.ids, direct.ids)
            assert np.array_equal(res.distances, direct.distances)
        assert cold.searched == 12
        assert warm.searched == 0 and warm.shard_queries == 0

    def test_partial_hits_mix(self, searcher, queries):
        frontend = exact_only_frontend(searcher)
        frontend.search(queries[:4], k=5)
        mixed = frontend.search(queries[:8], k=5)
        assert (mixed.kinds[:4] == EXACT_HIT).all()
        assert (mixed.kinds[4:] == MISS).all()
        direct = searcher.search(queries[:8], k=5)
        assert np.array_equal(mixed.ids, direct.ids)
        # The miss rows re-search as a smaller sub-batch, so distances only
        # match up to float32 GEMM accumulation (ids must still be exact).
        assert np.allclose(mixed.distances, direct.distances, rtol=1e-5, atol=1e-6)

    def test_in_batch_dedupe(self, searcher, queries):
        q = np.repeat(queries[:4], 4, axis=0)  # 16 rows, 4 unique
        frontend = exact_only_frontend(searcher)
        res = frontend.search(q, k=5)
        assert res.searched == 4
        direct = searcher.search(q, k=5)
        assert np.array_equal(res.ids, direct.ids)
        # Dedupe searches 4 unique rows instead of 16: same ids, distances
        # equal up to float32 GEMM accumulation.
        assert np.allclose(res.distances, direct.distances, rtol=1e-5, atol=1e-6)
        assert frontend.cache.stats.inserts == 4

    def test_per_call_params_respected(self, searcher, queries):
        frontend = exact_only_frontend(searcher)
        frontend.search(queries[:2], k=5)
        other_k = frontend.search(queries[:2], k=3)
        assert (other_k.kinds == MISS).all()  # different params never hit
        assert other_k.ids.shape == (2, 3)


class TestGenerationAwareCaching:
    def test_mutation_invalidates_cached_results(self):
        # A private datastore: mutation would poison the shared fixture.
        from repro.core.clustering import cluster_datastore
        from repro.core.config import HermesConfig
        from repro.datastore.embeddings import make_corpus

        corpus = make_corpus(500, n_topics=4, dim=32, seed=31)
        config = HermesConfig(n_clusters=2, clusters_to_search=2, nlist=8)
        datastore = cluster_datastore(corpus.embeddings, config)
        searcher = HermesSearcher(datastore, config=config)
        frontend = exact_only_frontend(searcher, capacity=32)
        rng = np.random.default_rng(32)
        q = rng.normal(size=(4, 32)).astype(np.float32)

        frontend.search(q, k=5)
        warm = frontend.search(q, k=5)
        assert (warm.kinds == EXACT_HIT).all()

        # Delete a document: the datastore generation bumps, so the cached
        # answers (which may contain the deleted id) must not be served.
        datastore.delete_documents([int(warm.ids[0, 0])])
        after = frontend.search(q, k=5)
        assert (after.kinds == MISS).all()
        assert int(warm.ids[0, 0]) not in after.ids
        assert frontend.cache.stats.stale_generation > 0

        # The post-mutation answers re-cache against the new generation.
        rewarm = frontend.search(q, k=5)
        assert (rewarm.kinds == EXACT_HIT).all()
        np.testing.assert_array_equal(rewarm.ids, after.ids)

    def test_compaction_preserves_cached_results(self):
        from repro.core.clustering import cluster_datastore
        from repro.core.config import HermesConfig
        from repro.datastore.embeddings import make_corpus

        corpus = make_corpus(500, n_topics=4, dim=32, seed=33)
        config = HermesConfig(n_clusters=2, clusters_to_search=2, nlist=8)
        datastore = cluster_datastore(corpus.embeddings, config)
        frontend = exact_only_frontend(HermesSearcher(datastore, config=config))
        rng = np.random.default_rng(34)
        datastore.add_documents(rng.normal(size=(6, 32)).astype(np.float32))
        q = rng.normal(size=(4, 32)).astype(np.float32)

        frontend.search(q, k=5)
        warm = frontend.search(q, k=5)
        assert (warm.kinds == EXACT_HIT).all()

        # Compaction is result-preserving (the mutation-equivalence
        # contract), so the generation the cache keys on must not move and
        # the warm entries keep serving — no needless full flush.
        generation = datastore.generation
        assert datastore.compact() > 0
        assert datastore.generation == generation
        after = frontend.search(q, k=5)
        assert (after.kinds == EXACT_HIT).all()
        np.testing.assert_array_equal(after.ids, warm.ids)
        assert frontend.cache.stats.stale_generation == 0


class TestDynamicBatcher:
    def test_futures_match_batch_search(self, searcher, queries):
        q = queries[:8]
        frontend = exact_only_frontend(searcher)
        direct = searcher.search(q, k=5)
        with DynamicBatcher(frontend, max_batch=8, max_wait_s=0.05) as batcher:
            futures = [batcher.submit(row, k=5) for row in q]
            rows = [f.result(timeout=10) for f in futures]
        for i, (dists, ids, kind, level) in enumerate(rows):
            assert np.array_equal(ids, direct.ids[i])
            assert np.array_equal(dists, direct.distances[i])
            assert kind in (MISS, EXACT_HIT)
            assert level == 0  # no admission controller: full quality
        assert batcher.stats.requests == 8
        assert batcher.stats.batches < 8  # coalescing actually happened

    def test_max_batch_bounds_coalescing(self, searcher, queries):
        frontend = exact_only_frontend(searcher)
        with DynamicBatcher(frontend, max_batch=4, max_wait_s=0.05) as batcher:
            futures = [batcher.submit(row, k=5) for row in queries[:8]]
            for f in futures:
                f.result(timeout=10)
        assert batcher.stats.max_batch <= 4
        assert batcher.stats.batches >= 2

    def test_incompatible_params_split_batches(self, searcher, queries):
        frontend = exact_only_frontend(searcher)
        with DynamicBatcher(frontend, max_batch=8, max_wait_s=0.05) as batcher:
            f1 = batcher.submit(queries[0], k=5)
            f2 = batcher.submit(queries[1], k=3)
            assert f1.result(timeout=10)[1].shape == (5,)
            assert f2.result(timeout=10)[1].shape == (3,)
        assert batcher.stats.batches == 2

    def test_submit_after_close_raises(self, searcher, queries):
        batcher = DynamicBatcher(exact_only_frontend(searcher), max_wait_s=0.0)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(queries[0])

    def test_validation(self, searcher):
        frontend = exact_only_frontend(searcher)
        with pytest.raises(ValueError):
            DynamicBatcher(frontend, max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatcher(frontend, max_wait_s=-1.0)
        with DynamicBatcher(frontend) as batcher:
            with pytest.raises(ValueError):
                batcher.submit(np.zeros((2, 4), dtype=np.float32))


class TestMalformedRequests:
    """A request no shard could answer is refused where it enters — the
    searcher, the frontend or ``submit`` — and never reaches a shard, the
    cache or the queue."""

    @staticmethod
    def poisoned(queries, row, value):
        q = queries[:4].copy()
        q[row, 3] = value
        return q

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_search_refuses_a_non_finite_row(self, clustered, queries, value):
        policy = RetrievalPolicy(max_attempts=2, breaker_threshold=1)
        searcher = HermesSearcher(clustered, policy=policy)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with pytest.raises(ValueError, match="query row 2 is not finite"):
                searcher.search(self.poisoned(queries, 2, value), k=5)
            with pytest.raises(ValueError, match="query row 1 is not finite"):
                exact_only_frontend(searcher).search(self.poisoned(queries, 1, value), k=5)
            assert not searcher.health.open_shards()  # threshold 1: one failure opens
            assert "retrieval_shard_latency_seconds" not in registry.names()
            assert "retrieval_batches_total" not in registry.names()
            result = searcher.search(queries[:4], k=5)  # the searcher still serves
        finally:
            set_registry(previous)
        assert (result.ids >= 0).all() and not result.failed_shards

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_submit_refuses_a_non_finite_query(self, searcher, queries, value):
        frontend = exact_only_frontend(searcher)
        with DynamicBatcher(frontend, max_batch=8, max_wait_s=0.05) as batcher:
            with pytest.raises(ValueError, match="not finite"):
                batcher.submit(self.poisoned(queries, 0, value)[0], k=5)
            assert batcher.stats == BatcherStats()
            assert len(frontend.cache) == 0
            served = batcher.submit(queries[5], k=5).result(timeout=10)
        np.testing.assert_array_equal(served.ids, searcher.search(queries[5:6], k=5).ids[0])
        assert batcher.stats.requests == 1 and batcher.stats.failed == 0

    def test_a_batch_row_is_refused_by_its_shape(self, searcher, queries):
        """A ``(1, dim)`` row is not one query: the refusal names its shape,
        not a dimension mismatch, and nothing is probed, counted or queued."""
        frontend = exact_only_frontend(searcher)
        shape = rf"got shape \(1, {queries.shape[1]}\)"
        with pytest.raises(ValueError, match=shape) as refused:
            frontend.cached_answer(queries[:1], k=5)
        assert "dim 1" not in str(refused.value)
        with DynamicBatcher(frontend, max_batch=8, max_wait_s=0.05) as batcher:
            with pytest.raises(ValueError, match=shape):
                batcher.submit(queries[:1], k=5)
            assert batcher.stats == BatcherStats()
        assert len(frontend.cache) == 0 and frontend.cache.stats.lookups == 0

    def test_a_wrong_dimension_is_refused_and_the_batch_still_served(
        self, searcher, queries
    ):
        frontend = exact_only_frontend(searcher)
        direct = searcher.search(queries[:3], k=5)
        with DynamicBatcher(frontend, max_batch=8, max_wait_s=0.05) as batcher:
            first = batcher.submit(queries[0], k=5)
            with pytest.raises(ValueError, match="dim"):
                batcher.submit(queries[1][:16], k=5)
            third = batcher.submit(queries[2], k=5)
            assert first.result(timeout=10).ids.tolist() == direct.ids[0].tolist()
            assert third.result(timeout=10).ids.tolist() == direct.ids[2].tolist()
            later = batcher.submit(queries[1], k=5).result(timeout=10)
        assert later.ids.tolist() == direct.ids[1].tolist()
        assert batcher.stats.requests == 3 and batcher.stats.failed == 0

    def test_a_batch_that_cannot_be_assembled_fails_its_futures_not_the_worker(
        self, searcher, queries, monkeypatch
    ):
        # Past submit's checks, a (16,) query beside (32,) ones makes the
        # worker's np.stack raise: that batch's futures carry the error and
        # the worker goes on to serve the next batch.
        monkeypatch.setattr("repro.serving.frontend.check_queries", lambda q, dim: None)
        frontend = exact_only_frontend(searcher)
        with DynamicBatcher(frontend, max_batch=8, max_wait_s=0.2) as batcher:
            batch = [
                batcher.submit(queries[0], k=5),
                batcher.submit(queries[1][:16], k=5),
                batcher.submit(queries[2], k=5),
            ]
            for future in batch:
                with pytest.raises(ValueError):
                    future.result(timeout=10)
            served = batcher.submit(queries[3], k=5).result(timeout=10)
        assert served.ids.tolist() == searcher.search(queries[3:4], k=5).ids[0].tolist()
        assert batcher.stats.failed == 3 and batcher.stats.requests == 1
