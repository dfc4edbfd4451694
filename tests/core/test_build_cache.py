"""Tests for the fingerprinted build cache."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.build_cache import (
    BUILD_FIELDS,
    BuildCache,
    CacheStats,
    build_fingerprint,
    cache_enabled,
    cached_cluster_datastore,
    default_cache_dir,
)
from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher

#: Config fields the built artifact does not depend on: search-time knobs,
#: and the build thread count (bit-exact at any count).
SEARCH_AND_DEPLOYMENT_FIELDS = {
    "sample_nprobe",
    "clusters_to_search",
    "k",
    "rerank_top",
    "build_workers",
}

#: One legal value per build field that differs from the ``config`` fixture's.
CHANGED_BUILD_VALUES = {
    "n_clusters": 5,
    "nlist": 16,
    "quantization": "pq8",
    "metric": "l2",
    "deep_nprobe": 64,
    "kmeans_seeds": (0, 1),
    "kmeans_subset_fraction": 0.05,
}


@pytest.fixture(scope="module")
def embeddings(small_corpus):
    # A slice keeps cache-test builds fast while sharing the session corpus.
    return small_corpus.embeddings[:1500]


@pytest.fixture(scope="module")
def config():
    return HermesConfig(n_clusters=4, clusters_to_search=2)


@pytest.fixture()
def cache(tmp_path):
    return BuildCache(tmp_path / "builds", stats=CacheStats())


class TestFingerprint:
    def test_deterministic(self, embeddings, config):
        assert build_fingerprint(embeddings, config) == build_fingerprint(
            embeddings, config
        )

    def test_embedding_content_invalidates(self, embeddings, config):
        perturbed = embeddings.copy()
        perturbed[0, 0] += 1.0
        assert build_fingerprint(embeddings, config) != build_fingerprint(
            perturbed, config
        )

    @pytest.mark.parametrize("field", BUILD_FIELDS)
    def test_build_field_invalidates(self, embeddings, config, field):
        changed = replace(config, **{field: CHANGED_BUILD_VALUES[field]})
        assert build_fingerprint(embeddings, config) != build_fingerprint(
            embeddings, changed
        )

    def test_every_config_field_is_build_or_search_time(self):
        # A build field missing from the fingerprint would serve a stale
        # cached index; a search-time field in it would force rebuilds.
        names = {f.name for f in fields(HermesConfig)}
        assert set(BUILD_FIELDS).isdisjoint(SEARCH_AND_DEPLOYMENT_FIELDS)
        assert names == set(BUILD_FIELDS) | SEARCH_AND_DEPLOYMENT_FIELDS
        assert set(CHANGED_BUILD_VALUES) == set(BUILD_FIELDS)

    def test_search_only_fields_ignored(self, embeddings, config):
        retuned = replace(config, sample_nprobe=32, clusters_to_search=3, k=7)
        assert build_fingerprint(embeddings, config) == build_fingerprint(
            embeddings, retuned
        )

    def test_build_workers_ignored(self, embeddings, config):
        threaded = replace(config, build_workers=8)
        assert build_fingerprint(embeddings, config) == build_fingerprint(
            embeddings, threaded
        )


class TestBuildCache:
    def test_miss_then_hit(self, embeddings, config, cache):
        first = cached_cluster_datastore(
            embeddings, config, cache=cache, use_cache=True
        )
        assert (cache.stats.misses, cache.stats.hits, cache.stats.stores) == (1, 0, 1)
        second = cached_cluster_datastore(
            embeddings, config, cache=cache, use_cache=True
        )
        assert (cache.stats.misses, cache.stats.hits, cache.stats.stores) == (1, 1, 1)
        assert second.ntotal == first.ntotal
        assert np.array_equal(second.assignments, first.assignments)

    def test_hit_serves_identical_search_results(
        self, embeddings, config, cache, small_queries
    ):
        built = cached_cluster_datastore(embeddings, config, cache=cache, use_cache=True)
        loaded = cached_cluster_datastore(
            embeddings, config, cache=cache, use_cache=True
        )
        q = small_queries.embeddings[:8]
        a = HermesSearcher(built).search(q, k=5, clusters_to_search=2)
        b = HermesSearcher(loaded).search(q, k=5, clusters_to_search=2)
        assert np.array_equal(a.ids, b.ids)
        assert np.allclose(a.distances, b.distances)

    def test_hit_restores_clustering_state(self, embeddings, config, cache):
        built = cached_cluster_datastore(embeddings, config, cache=cache, use_cache=True)
        loaded = cached_cluster_datastore(
            embeddings, config, cache=cache, use_cache=True
        )
        assert loaded.clustering is not None
        assert loaded.clustering.seed == built.clustering.seed
        assert loaded.clustering.inertia == pytest.approx(built.clustering.inertia)
        assert np.array_equal(
            loaded.clustering.assignments, built.clustering.assignments
        )

    def test_hit_adopts_requested_search_config(self, embeddings, config, cache):
        cached_cluster_datastore(embeddings, config, cache=cache, use_cache=True)
        retuned = replace(config, clusters_to_search=3, k=9)
        loaded = cached_cluster_datastore(
            embeddings, retuned, cache=cache, use_cache=True
        )
        assert cache.stats.hits == 1
        assert loaded.config == retuned

    def test_changed_embeddings_rebuild(self, embeddings, config, cache):
        cached_cluster_datastore(embeddings, config, cache=cache, use_cache=True)
        perturbed = embeddings + 0.01
        cached_cluster_datastore(perturbed, config, cache=cache, use_cache=True)
        assert (cache.stats.misses, cache.stats.hits) == (2, 0)

    def test_use_cache_false_bypasses(self, embeddings, config, cache):
        cached_cluster_datastore(embeddings, config, cache=cache, use_cache=False)
        assert cache.stats.lookups == 0
        assert not cache.directory.exists()

    def test_clear_forgets_entries(self, embeddings, config, cache):
        key = build_fingerprint(embeddings, config)
        cached_cluster_datastore(embeddings, config, cache=cache, use_cache=True)
        assert cache.has(key)
        cache.clear()
        assert not cache.has(key)

    def test_matches_direct_build(self, embeddings, config, cache):
        direct = cluster_datastore(embeddings, config)
        via_cache = cached_cluster_datastore(
            embeddings, config, cache=cache, use_cache=True
        )
        assert np.array_equal(direct.assignments, via_cache.assignments)
        for a, b in zip(direct.shards, via_cache.shards):
            assert np.array_equal(a.global_ids, b.global_ids)


class TestEnvironmentControls:
    def test_cache_enabled_default(self, monkeypatch):
        monkeypatch.delenv("HERMES_BUILD_CACHE", raising=False)
        assert cache_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " OFF "])
    def test_cache_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("HERMES_BUILD_CACHE", value)
        assert not cache_enabled()

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HERMES_BUILD_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
