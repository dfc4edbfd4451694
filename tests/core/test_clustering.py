"""Tests for datastore disaggregation."""

import importlib

import numpy as np
import pytest

from repro.core.config import HermesConfig
from repro.core.clustering import cluster_datastore, split_datastore_evenly
from repro.obs.metrics import MetricsRegistry, set_registry
from tests.oracles import kmeans_reference


class TestClusteredDatastore:
    def test_all_documents_covered_once(self, clustered, small_corpus):
        all_ids = np.concatenate([s.global_ids for s in clustered.shards])
        assert len(all_ids) == len(small_corpus)
        assert len(np.unique(all_ids)) == len(small_corpus)

    def test_ten_shards(self, clustered):
        assert clustered.n_clusters == 10

    def test_shards_topically_pure(self, clustered, small_corpus):
        # Semantic clustering should make each shard mostly one latent topic.
        purities = []
        for shard in clustered.shards:
            topics = small_corpus.topics[shard.global_ids]
            purities.append(np.bincount(topics).max() / len(topics))
        assert np.mean(purities) > 0.8

    def test_imbalance_near_paper_2x(self, clustered):
        assert clustered.imbalance < 3.0

    def test_assignments_match_shards(self, clustered):
        for shard in clustered.shards:
            assert (clustered.assignments[shard.global_ids] == shard.shard_id).all()

    def test_memory_sums_shards(self, clustered):
        assert clustered.memory_bytes() == sum(
            s.memory_bytes() for s in clustered.shards
        )

    def test_shard_token_sizes_proportional(self, clustered):
        tokens = clustered.shard_token_sizes(1e12)
        assert sum(tokens) == pytest.approx(1e12)
        sizes = clustered.sizes()
        assert tokens[0] / tokens[1] == pytest.approx(
            sizes[0] / sizes[1], rel=1e-6
        )


class TestShardSearch:
    def test_returns_global_ids(self, clustered, small_corpus):
        shard = clustered.shards[0]
        _, ids = shard.search(small_corpus.embeddings[shard.global_ids[:2]], 3)
        valid = ids[ids >= 0]
        assert set(valid).issubset(set(shard.global_ids))

    def test_self_query_finds_self(self, clustered, small_corpus):
        shard = clustered.shards[0]
        probe = small_corpus.embeddings[shard.global_ids[:5]]
        _, ids = shard.search(probe, 1, nprobe=shard.index.nlist)
        assert list(ids[:, 0]) == list(shard.global_ids[:5])

    def test_padding_for_oversized_k(self, clustered, small_corpus):
        shard = min(clustered.shards, key=len)
        _, ids = shard.search(small_corpus.embeddings[:1], len(shard) + 5)
        assert (ids == -1).any()


class TestEvenSplit:
    def test_equal_sizes(self, even_split):
        sizes = even_split.sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_no_clustering_metadata(self, even_split):
        assert even_split.clustering is None

    def test_split_shards_not_topical(self, even_split, small_corpus):
        purities = []
        for shard in even_split.shards:
            topics = small_corpus.topics[shard.global_ids]
            purities.append(np.bincount(topics, minlength=10).max() / len(topics))
        assert np.mean(purities) < 0.4

    def test_rejects_too_few_documents(self):
        with pytest.raises(ValueError, match="at least"):
            split_datastore_evenly(np.zeros((3, 4), dtype=np.float32))


class TestErrorPaths:
    def test_too_many_clusters_for_tiny_corpus(self):
        emb = np.random.default_rng(0).normal(size=(30, 8)).astype(np.float32)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        config = HermesConfig(n_clusters=3, clusters_to_search=2)
        ds = cluster_datastore(emb, config)
        assert ds.ntotal == 30


class TestParallelBuilds:
    """Shard builds and seed-sweep trials are independently seeded, so the
    worker count must never change the built artifact."""

    @pytest.fixture(scope="class")
    def corpus(self, small_corpus):
        return small_corpus.embeddings[:1500]

    def _configs(self):
        base = HermesConfig(n_clusters=4, clusters_to_search=2)
        from dataclasses import replace

        return replace(base, build_workers=1), replace(base, build_workers=4)

    def test_clustered_bit_exact_across_workers(self, corpus):
        serial_cfg, threaded_cfg = self._configs()
        serial = cluster_datastore(corpus, serial_cfg)
        threaded = cluster_datastore(corpus, threaded_cfg)
        assert np.array_equal(serial.assignments, threaded.assignments)
        for a, b in zip(serial.shards, threaded.shards):
            assert np.array_equal(a.global_ids, b.global_ids)
            assert np.array_equal(a.centroid, b.centroid)
            sa, sb = a.index.export_state()[1], b.index.export_state()[1]
            assert np.array_equal(sa["codes"], sb["codes"])
            assert np.array_equal(sa["ids"], sb["ids"])

    def test_split_bit_exact_across_workers(self, corpus):
        serial_cfg, threaded_cfg = self._configs()
        serial = split_datastore_evenly(corpus, serial_cfg, seed=3)
        threaded = split_datastore_evenly(corpus, threaded_cfg, seed=3)
        assert np.array_equal(serial.assignments, threaded.assignments)
        for a, b in zip(serial.shards, threaded.shards):
            assert np.array_equal(
                a.index.export_state()[1]["codes"], b.index.export_state()[1]["codes"]
            )

    def test_add_documents_chunked_routing(self, small_corpus):
        config = HermesConfig(n_clusters=4, clusters_to_search=2)
        datastore = cluster_datastore(small_corpus.embeddings[:1200], config)
        from repro.ann.kmeans import assign_to_centroids

        new = small_corpus.embeddings[1200:1300]
        expected = assign_to_centroids(new, datastore.centroids(), "l2")
        before = datastore.ntotal
        ids = datastore.add_documents(new)
        assert np.array_equal(datastore.assignments[before:], expected)
        assert len(ids) == 100


class TestBuildQualityParity:
    """The optimised build (chunked / mini-batch K-means, parallel shard
    builds) against the retained reference Lloyd's: clustering inertia within
    5%, end-to-end recall@k within 2 points."""

    INERTIA_RATIO_BOUND = 1.05
    RECALL_GAP_BOUND = 0.02

    @pytest.mark.parametrize(
        "minibatch_threshold",
        [None, 0],  # the default size rule; every k-means on the mini-batch path
        ids=["defaults", "minibatch-threshold"],
    )
    def test_optimised_build_matches_reference(self, monkeypatch, minibatch_threshold):
        from dataclasses import replace

        import repro.ann.ivf as ivf
        # ``repro.ann.kmeans`` as an attribute is the function the package
        # re-exports, so the module is fetched by name.
        km = importlib.import_module("repro.ann.kmeans")
        from repro.baselines.monolithic import MonolithicRetriever
        from repro.core.hierarchical import HermesSearcher
        from repro.datastore.embeddings import make_corpus
        from repro.datastore.queries import trivia_queries

        k = 5
        corpus = make_corpus(4000, n_topics=4, dim=32, seed=0)
        queries = trivia_queries(corpus.topic_model, 32).embeddings
        _, truth = MonolithicRetriever(corpus.embeddings).ground_truth(queries, k)
        config = HermesConfig(n_clusters=4, clusters_to_search=3)

        def build(config):
            store = cluster_datastore(corpus.embeddings, config)
            ids = HermesSearcher(store).search(queries, k=k).ids
            hits = sum(len(set(f[f >= 0]) & set(t)) for f, t in zip(ids, truth))
            return store.clustering.inertia, hits / truth.size

        with monkeypatch.context() as patch:
            # The split, the seed sweep and the shard coarse centroids (sq8
            # codebooks need no k-means) all train on the reference Lloyd's.
            patch.setattr(km, "train_kmeans", kmeans_reference)
            patch.setattr(ivf, "train_kmeans", kmeans_reference)
            ref_inertia, ref_recall = build(replace(config, build_workers=1))
        if minibatch_threshold is not None:
            monkeypatch.setattr(km, "MINIBATCH_THRESHOLD", minibatch_threshold)
        inertia, recall = build(config)
        assert inertia / ref_inertia <= self.INERTIA_RATIO_BOUND
        assert abs(recall - ref_recall) <= self.RECALL_GAP_BOUND


class TestInsertValidation:
    """``add_documents`` / ``IndexShard.insert`` refuse what would corrupt a
    shard, and a no-op insert changes nothing."""

    @staticmethod
    def build(small_corpus):
        config = HermesConfig(n_clusters=4, clusters_to_search=2)
        return cluster_datastore(small_corpus.embeddings[:1200], config)

    def test_non_finite_document_is_refused_before_any_shard_changes(self, small_corpus):
        datastore = self.build(small_corpus)
        clean = self.build(small_corpus)
        new = small_corpus.embeddings[1200:1300]
        poisoned = new[:5].copy()
        poisoned[2, 3] = np.nan
        before = (datastore.generation, datastore.ntotal, datastore.centroids().copy())
        with pytest.raises(ValueError, match="document row 2 is not finite"):
            datastore.add_documents(poisoned)
        assert datastore.generation == before[0]
        assert datastore.ntotal == before[1] and datastore.delta_rows() == 0
        np.testing.assert_array_equal(datastore.centroids(), before[2])
        assert len(datastore.assignments) == 1200
        # Later clean inserts spread over the shards exactly as they would
        # on a datastore that never saw the NaN row.
        datastore.add_documents(new)
        clean.add_documents(new)
        np.testing.assert_array_equal(datastore.assignments, clean.assignments)
        assert len(np.unique(datastore.assignments[1200:])) > 1

    def test_shard_insert_refuses_non_finite_rows(self, small_corpus):
        datastore = self.build(small_corpus)
        shard = datastore.shards[0]
        rows = small_corpus.embeddings[1200:1203].copy()
        rows[1, 0] = np.inf
        centroid = shard.centroid.copy()
        with pytest.raises(ValueError, match="vector row 1 is not finite"):
            shard.insert(rows, np.arange(1200, 1203))
        assert shard.delta is None and not shard.has_mutations
        np.testing.assert_array_equal(shard.centroid, centroid)

    def test_empty_insert_changes_nothing(self, small_corpus):
        datastore = self.build(small_corpus)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            ids = datastore.add_documents(np.empty((0, datastore.dim), dtype=np.float32))
        finally:
            set_registry(previous)
        assert ids.dtype == np.int64 and ids.shape == (0,)
        assert datastore.generation == 0 and datastore.mutations == 0
        assert registry.get("datastore_inserts_total") is None
        assert len(datastore.assignments) == 1200
