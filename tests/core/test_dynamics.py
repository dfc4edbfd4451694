"""Tests for online datastore updates and node-failure handling."""

import numpy as np
import pytest

from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import ExhaustiveSplitSearcher, HermesSearcher
from repro.datastore.embeddings import make_corpus
from repro.metrics.ndcg import ndcg


@pytest.fixture()
def fresh_datastore():
    corpus = make_corpus(2000, n_topics=6, dim=32, seed=55)
    config = HermesConfig(n_clusters=6, clusters_to_search=2)
    return corpus, cluster_datastore(corpus.embeddings, config)


class TestAddDocuments:
    def test_new_documents_get_fresh_ids(self, fresh_datastore):
        corpus, datastore = fresh_datastore
        before = datastore.ntotal
        new = corpus.topic_model.sample_documents(50)[0]
        ids = datastore.add_documents(new)
        assert list(ids) == list(range(before, before + 50))
        assert datastore.ntotal == before + 50
        assert len(datastore.assignments) == before + 50

    def test_new_documents_are_retrievable(self, fresh_datastore):
        corpus, datastore = fresh_datastore
        new, _ = corpus.topic_model.sample_documents(20)
        ids = datastore.add_documents(new)
        searcher = HermesSearcher(datastore)
        result = searcher.search(new, k=1, clusters_to_search=6)
        assert (result.ids[:, 0] == ids).mean() > 0.9

    def test_routing_to_topical_shard(self, fresh_datastore):
        corpus, datastore = fresh_datastore
        # New docs land on the shard whose centroid they're nearest — the
        # same shard queries about them route to.
        new, _ = corpus.topic_model.sample_documents(30)
        ids = datastore.add_documents(new)
        added_assignments = datastore.assignments[ids]
        from repro.ann.distances import pairwise_distance

        expected = pairwise_distance(new, datastore.centroids(), "l2").argmin(axis=1)
        # Centroids moved slightly during insertion; most match.
        assert (added_assignments == expected).mean() > 0.8

    def test_centroid_drifts_toward_inserts(self, fresh_datastore):
        corpus, datastore = fresh_datastore
        shard = datastore.shards[0]
        before = shard.centroid.copy()
        # Insert many near-duplicates of an existing member of shard 0.
        member = corpus.embeddings[shard.global_ids[0]]
        clones = np.tile(member, (100, 1)) + 0.01
        datastore.add_documents(clones.astype(np.float32))
        moved = np.linalg.norm(shard.centroid - before)
        assert moved > 0

    def test_centroid_update_reaches_wrapped_shard(self, fresh_datastore):
        """Shard wrappers delegate calls and reads, not attribute writes: the
        running mean must land on the wrapped IndexShard, not the wrapper."""
        from repro.serving.faults import FaultInjector

        corpus, datastore = fresh_datastore
        wrapped = FaultInjector(seed=3).wrap(
            datastore, {i: [] for i in range(datastore.n_clusters)}
        )
        before = wrapped.centroids().copy()
        new, _ = corpus.topic_model.sample_documents(120)
        wrapped.add_documents(new)
        after = wrapped.centroids()
        moved = 0
        for i, shard in enumerate(wrapped.shards):
            assert "centroid" not in vars(shard)
            np.testing.assert_array_equal(shard.inner.centroid, after[i])
            moved += bool(np.linalg.norm(after[i] - before[i]) > 0)
        assert moved > 0

    def test_dim_mismatch_rejected(self, fresh_datastore):
        _, datastore = fresh_datastore
        with pytest.raises(ValueError, match="dim"):
            datastore.add_documents(np.zeros((3, 7), dtype=np.float32))

    def test_accuracy_preserved_after_growth(self, fresh_datastore):
        corpus, datastore = fresh_datastore
        new, _ = corpus.topic_model.sample_documents(200)
        datastore.add_documents(new)
        all_vectors = np.concatenate([corpus.embeddings, new])
        from repro.baselines.monolithic import MonolithicRetriever

        queries, _ = corpus.topic_model.sample_queries(24, query_spread=0.25)
        mono = MonolithicRetriever(all_vectors)
        _, truth = mono.ground_truth(queries, 5)
        searcher = HermesSearcher(datastore)
        result = searcher.search(queries, clusters_to_search=3)
        assert ndcg(result.ids, truth) > 0.85


class TestNodeFailure:
    def test_search_survives_failed_cluster(self, fresh_datastore):
        corpus, datastore = fresh_datastore
        searcher = HermesSearcher(datastore)
        queries, _ = corpus.topic_model.sample_queries(16, query_spread=0.25)
        result = searcher.search(queries, exclude_clusters={0})
        # Valid results from surviving shards only.
        dead_docs = set(datastore.shards[0].global_ids.tolist())
        assert all(
            int(doc) not in dead_docs for row in result.ids for doc in row if doc >= 0
        )

    def test_failed_cluster_never_routed(self, fresh_datastore):
        corpus, datastore = fresh_datastore
        searcher = HermesSearcher(datastore)
        queries, _ = corpus.topic_model.sample_queries(16)
        result = searcher.search(queries, exclude_clusters={2, 3})
        assert not (np.isin(result.routing.clusters, [2, 3])).any()

    def test_fanout_clamped_to_survivors(self, fresh_datastore):
        corpus, datastore = fresh_datastore
        searcher = HermesSearcher(datastore)
        queries, _ = corpus.topic_model.sample_queries(4)
        result = searcher.search(
            queries, clusters_to_search=6, exclude_clusters={0, 1, 2}
        )
        assert result.routing.fanout == 3

    def test_a_failed_sample_never_routes_to_an_excluded_shard(self, fresh_datastore):
        """Only the shards sampled successfully are ranked. With shards 0-2
        excluded and shard 5's sampling probe crashing, an ``inf`` tie across
        the failed and the excluded shards must not hand excluded shard 0 a
        deep search: the fan-out is capped at the two survivors."""
        from repro.core.policy import RetrievalPolicy
        from repro.serving.faults import CrashStop, FaultInjector

        corpus, datastore = fresh_datastore
        chaotic = FaultInjector(seed=0).wrap(datastore, {0: [], 5: CrashStop(at_call=0)})
        queries, _ = corpus.topic_model.sample_queries(8)
        result = HermesSearcher(chaotic, policy=RetrievalPolicy()).search(
            queries, clusters_to_search=3, exclude_clusters={0, 1, 2}
        )
        assert chaotic.shards[0].calls == 0
        assert result.routing.fanout == 2
        assert set(np.unique(result.routing.clusters).tolist()) == {3, 4}
        assert result.failed_shards == (5,)
        assert {s.shard_id for s in result.shard_stats} == {3, 4}

    def test_all_failed_rejected(self, fresh_datastore):
        from repro.core.errors import RetrievalUnavailableError

        corpus, datastore = fresh_datastore
        searcher = HermesSearcher(datastore)
        queries, _ = corpus.topic_model.sample_queries(2)
        with pytest.raises(RetrievalUnavailableError, match="all"):
            searcher.search(queries, exclude_clusters=set(range(6)))

    def test_graceful_accuracy_degradation(self, fresh_datastore):
        corpus, datastore = fresh_datastore
        from repro.baselines.monolithic import MonolithicRetriever

        queries, _ = corpus.topic_model.sample_queries(48, query_spread=0.25)
        mono = MonolithicRetriever(corpus.embeddings)
        _, truth = mono.ground_truth(queries, 5)
        searcher = ExhaustiveSplitSearcher(datastore)
        healthy = ndcg(searcher.search(queries).ids, truth)
        degraded = ndcg(
            searcher.search(queries, exclude_clusters={0}).ids, truth
        )
        # Losing one of six clusters loses roughly its share of the truth,
        # not everything.
        assert degraded < healthy
        assert degraded > healthy - 0.45
