"""Tests for cluster-routing strategies."""

import numpy as np
import pytest

from repro.ann.distances import top_k
from repro.core.router import AllRouter, CentroidRouter, SampledRouter
from repro.serving.faults import CrashStop, FaultInjector


class TestSampledRouter:
    def test_shape(self, clustered, small_queries):
        decision = SampledRouter().route(small_queries.embeddings, clustered, 3)
        assert decision.clusters.shape == (len(small_queries), 3)
        assert decision.scores.shape == (len(small_queries), 10)
        assert decision.fanout == 3

    def test_clusters_ranked_by_sampled_score(self, clustered, small_queries):
        decision = SampledRouter().route(small_queries.embeddings, clustered, 10)
        rows = np.arange(len(small_queries))[:, None]
        ranked_scores = decision.scores[rows, decision.clusters]
        assert (np.diff(ranked_scores, axis=1) >= -1e-5).all()

    def test_top_cluster_matches_query_topic(self, clustered, small_corpus, small_queries):
        # Routing should usually pick the shard holding the query's topic.
        decision = SampledRouter().route(small_queries.embeddings, clustered, 1)
        hits = 0
        for qi, topic in enumerate(small_queries.topics):
            shard = clustered.shards[int(decision.clusters[qi, 0])]
            shard_topics = small_corpus.topics[shard.global_ids]
            if np.bincount(shard_topics, minlength=10).argmax() == topic:
                hits += 1
        assert hits / len(small_queries) > 0.8

    def test_m_validated(self, clustered, small_queries):
        with pytest.raises(ValueError):
            SampledRouter().route(small_queries.embeddings, clustered, 0)
        # Oversized fan-out clamps to the number of (alive) clusters rather
        # than erroring, so failure handling can always request "everything".
        decision = SampledRouter().route(small_queries.embeddings, clustered, 11)
        assert decision.fanout == clustered.n_clusters

    def test_custom_sample_nprobe_used(self, clustered, small_queries):
        low = SampledRouter(sample_nprobe=1).route(
            small_queries.embeddings, clustered, 10
        )
        high = SampledRouter(sample_nprobe=64).route(
            small_queries.embeddings, clustered, 10
        )
        # Deeper sampling can only improve (lower) the best sampled distances.
        assert (high.scores.min(axis=1) <= low.scores.min(axis=1) + 1e-5).all()


class TestSampledRouterOnTheFig11Datastore:
    """The sample search is the shard's nearest-neighbour reduction; routing
    must read exactly what the general top-k path puts in column 0."""

    @pytest.fixture(scope="class")
    def fig11(self):
        from repro.experiments.common import (
            accuracy_queries,
            clustered_accuracy_datastore,
        )

        return clustered_accuracy_datastore(), accuracy_queries().embeddings

    def test_scores_are_column_zero_of_a_top2_search(self, fig11):
        datastore, queries = fig11
        nprobe = datastore.config.sample_nprobe
        decision = SampledRouter().route(queries, datastore, 3)
        scores = np.stack(
            [s.search(queries, 2, nprobe=nprobe)[0][:, 0] for s in datastore.shards],
            axis=1,
        )
        np.testing.assert_array_equal(decision.scores, scores)
        np.testing.assert_array_equal(decision.clusters, top_k(scores, 3)[1])
        assert decision.failed_clusters == frozenset()

    def test_crash_during_sampling_scores_inf_and_is_reported(self, fig11):
        datastore, queries = fig11
        healthy = SampledRouter().route(queries, datastore, 3)
        chaotic = FaultInjector(seed=1).wrap(datastore, {4: CrashStop()})
        decision = SampledRouter().route(queries, chaotic, 3)
        assert decision.failed_clusters == frozenset({4})
        assert np.isinf(decision.scores[:, 4]).all()
        assert not (decision.clusters == 4).any()
        alive = [c for c in range(datastore.n_clusters) if c != 4]
        np.testing.assert_array_equal(
            decision.scores[:, alive], healthy.scores[:, alive]
        )


class TestCentroidRouter:
    def test_ranks_by_centroid_similarity(self, clustered, small_queries):
        decision = CentroidRouter().route(small_queries.embeddings, clustered, 10)
        from repro.ann.distances import pairwise_distance

        expected = pairwise_distance(
            small_queries.embeddings, clustered.centroids(), "ip"
        )
        rows = np.arange(len(small_queries))[:, None]
        ranked = expected[rows, decision.clusters]
        assert (np.diff(ranked, axis=1) >= -1e-5).all()

    def test_agrees_with_sampling_on_clean_queries(self, clustered, small_queries):
        # On topically clean queries the two routers mostly pick the same top
        # cluster; document sampling only pulls ahead on boundary queries.
        sampled = SampledRouter().route(small_queries.embeddings, clustered, 1)
        centroid = CentroidRouter().route(small_queries.embeddings, clustered, 1)
        agreement = (sampled.clusters[:, 0] == centroid.clusters[:, 0]).mean()
        assert agreement > 0.6


class TestAllRouter:
    def test_routes_everywhere(self, clustered, small_queries):
        decision = AllRouter().route(small_queries.embeddings, clustered, 3)
        assert decision.fanout == clustered.n_clusters
        for row in decision.clusters:
            assert set(row) == set(range(10))
