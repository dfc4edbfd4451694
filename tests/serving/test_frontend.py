"""Tests for the serving frontend: cache façade + dynamic batcher."""

import numpy as np
import pytest

from repro.core.hierarchical import HermesSearcher
from repro.serving.cache import EXACT_HIT, MISS, CacheConfig
from repro.serving.frontend import DynamicBatcher, ServingFrontend


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
