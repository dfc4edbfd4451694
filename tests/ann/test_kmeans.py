"""Tests for K-means and the imbalance-minimising seed sweep."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.kmeans import assign_to_centroids, kmeans, kmeans_seed_sweep


def blobs(k=5, per=100, dim=8, scale=6.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=scale, size=(k, dim))
    data = np.concatenate(
        [centers[i] + rng.normal(size=(per, dim)) for i in range(k)]
    ).astype(np.float32)
    labels = np.repeat(np.arange(k), per)
    return data, labels


class TestKMeans:
    def test_recovers_separated_blobs(self):
        data, labels = blobs()
        result = kmeans(data, 5, seed=1)
        # Every found cluster should be dominated by a single true blob.
        for cid in range(5):
            members = labels[result.assignments == cid]
            if len(members):
                dominant = np.bincount(members).max() / len(members)
                assert dominant > 0.9

    def test_assignments_match_nearest_centroid(self):
        data, _ = blobs(seed=2)
        result = kmeans(data, 4, seed=0)
        expected = assign_to_centroids(data, result.centroids)
        assert np.array_equal(result.assignments, expected)

    def test_inertia_decreases_with_more_clusters(self):
        data, _ = blobs(seed=3)
        few = kmeans(data, 2, seed=0)
        many = kmeans(data, 10, seed=0)
        assert many.inertia < few.inertia

    def test_no_empty_clusters(self):
        data, _ = blobs(k=3, per=50, seed=4)
        result = kmeans(data, 8, seed=0)
        assert (result.sizes > 0).all()

    def test_runs_more_than_one_iteration(self):
        data, _ = blobs(seed=5)
        result = kmeans(data, 5, seed=0)
        assert result.n_iter > 1

    def test_deterministic_for_seed(self):
        data, _ = blobs(seed=6)
        a = kmeans(data, 4, seed=7)
        b = kmeans(data, 4, seed=7)
        assert np.array_equal(a.assignments, b.assignments)

    def test_rejects_k_larger_than_n(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans(np.zeros((3, 2), dtype=np.float32), 5)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((10, 2), dtype=np.float32), 0)

    @given(st.integers(2, 6))
    @settings(max_examples=8, deadline=None)
    def test_sizes_sum_to_n(self, k):
        data, _ = blobs(k=6, per=40, seed=9)
        result = kmeans(data, k, seed=0)
        assert result.sizes.sum() == len(data)


class TestImbalance:
    def test_balanced_data_low_imbalance(self):
        data, _ = blobs(k=4, per=200, scale=10.0, seed=10)
        result = kmeans(data, 4, seed=0)
        assert result.imbalance < 1.5

    def test_empty_cluster_reports_inf(self):
        from repro.ann.kmeans import KMeansResult

        result = KMeansResult(
            centroids=np.zeros((3, 2), dtype=np.float32),
            assignments=np.array([0, 0, 1, 1]),
            inertia=0.0,
            n_iter=1,
            seed=0,
        )
        assert result.imbalance == float("inf")


class TestSeedSweep:
    def test_never_worse_than_single_default_seed(self):
        data, _ = blobs(k=5, per=120, scale=3.0, seed=11)
        swept = kmeans_seed_sweep(data, 5, seeds=(0, 1, 2, 3))
        assert np.isfinite(swept.imbalance)
        assert (swept.sizes > 0).all()

    def test_returns_full_data_clustering(self):
        data, _ = blobs(seed=12)
        swept = kmeans_seed_sweep(data, 5)
        assert len(swept.assignments) == len(data)

    def test_subset_fraction_validated(self):
        data, _ = blobs()
        with pytest.raises(ValueError, match="subset_fraction"):
            kmeans_seed_sweep(data, 3, subset_fraction=0.0)

    def test_winning_seed_among_candidates(self):
        data, _ = blobs(seed=13)
        seeds = (3, 5, 9)
        swept = kmeans_seed_sweep(data, 4, seeds=seeds)
        assert swept.seed in seeds


class TestAssignToCentroids:
    def test_nearest_assignment(self):
        centroids = np.array([[0, 0], [10, 10]], dtype=np.float32)
        points = np.array([[1, 1], [9, 9]], dtype=np.float32)
        assert list(assign_to_centroids(points, centroids)) == [0, 1]

    def test_ip_metric_assignment(self):
        centroids = np.array([[1, 0], [0, 1]], dtype=np.float32)
        points = np.array([[0.9, 0.1]], dtype=np.float32)
        assert assign_to_centroids(points, centroids, metric="ip")[0] == 0


class TestMiniBatch:
    def test_quality_within_bound_of_full_lloyd(self):
        from repro.ann.kmeans import kmeans_minibatch

        data, _ = blobs(k=6, per=600, dim=16, scale=4.0, seed=20)
        full = kmeans(data, 6, seed=0)
        mb = kmeans_minibatch(data, 6, seed=0, batch_size=512)
        assert mb.inertia <= full.inertia * 1.05

    def test_falls_back_to_lloyd_for_small_inputs(self):
        from repro.ann.kmeans import kmeans_minibatch

        data, _ = blobs(k=3, per=50, seed=21)
        full = kmeans(data, 3, seed=0)
        mb = kmeans_minibatch(data, 3, seed=0, batch_size=10_000)
        assert np.allclose(mb.centroids, full.centroids)
        assert mb.inertia == pytest.approx(full.inertia)

    def test_assignments_match_nearest_centroid(self):
        from repro.ann.kmeans import kmeans_minibatch

        data, _ = blobs(k=4, per=400, seed=22)
        result = kmeans_minibatch(data, 4, seed=0, batch_size=256)
        expected = assign_to_centroids(data, result.centroids)
        assert np.array_equal(result.assignments, expected)

    def test_deterministic_under_fixed_seed(self):
        from repro.ann.kmeans import kmeans_minibatch

        data, _ = blobs(k=4, per=400, seed=23)
        a = kmeans_minibatch(data, 4, seed=7, batch_size=256)
        b = kmeans_minibatch(data, 4, seed=7, batch_size=256)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)


class TestTrainKMeans:
    def test_auto_dispatches_on_threshold(self, monkeypatch):
        # ``repro.ann.kmeans`` as an attribute is the function the package
        # re-exports, so the module is fetched by name.
        km = importlib.import_module("repro.ann.kmeans")

        # More rows than one mini-batch, so the mini-batch path really runs.
        data, _ = blobs(k=4, per=1200, seed=24)
        lloyd = kmeans(data, 4, seed=0).centroids
        minibatch = km.kmeans_minibatch(data, 4, seed=0).centroids
        assert not np.array_equal(lloyd, minibatch)
        assert np.array_equal(km.train_kmeans(data, 4, seed=0).centroids, lloyd)
        monkeypatch.setattr(km, "MINIBATCH_THRESHOLD", len(data))
        assert np.array_equal(km.train_kmeans(data, 4, seed=0).centroids, minibatch)

    def test_chunked_estep_matches_reference_lloyd(self):
        from tests.oracles import kmeans_reference

        data, _ = blobs(k=5, per=200, dim=12, seed=26)
        chunked = kmeans(data, 5, seed=0, chunk_size=64)
        whole = kmeans(data, 5, seed=0)
        reference = kmeans_reference(data, 5, seed=0)
        assert np.array_equal(chunked.assignments, whole.assignments)
        assert chunked.inertia == pytest.approx(whole.inertia, rel=1e-5)
        assert chunked.inertia == pytest.approx(reference.inertia, rel=1e-3)


class TestSeedSweepDeterminism:
    def test_tie_breaks_to_lowest_seed(self):
        # Well-separated equal-size blobs: every seed recovers the perfect
        # clustering, so all imbalances tie and the lowest seed must win
        # regardless of the order seeds are listed or evaluated in.
        data, _ = blobs(k=4, per=150, scale=12.0, seed=27)
        for seeds in [(5, 3, 9), (9, 5, 3), (3, 9, 5)]:
            swept = kmeans_seed_sweep(data, 4, seeds=seeds)
            assert swept.seed == 3

    def test_workers_do_not_change_winner(self):
        data, _ = blobs(k=5, per=120, scale=2.0, seed=28)
        serial = kmeans_seed_sweep(data, 5, seeds=(0, 1, 2, 3), workers=1)
        threaded = kmeans_seed_sweep(data, 5, seeds=(0, 1, 2, 3), workers=4)
        assert serial.seed == threaded.seed
        assert np.array_equal(serial.centroids, threaded.centroids)
        assert np.array_equal(serial.assignments, threaded.assignments)


class TestChunkedAssign:
    def test_chunking_invariant(self):
        data, _ = blobs(k=6, per=100, seed=29)
        centroids = kmeans(data, 6, seed=0).centroids
        whole = assign_to_centroids(data, centroids)
        chunked = assign_to_centroids(data, centroids, chunk_size=37)
        assert np.array_equal(whole, chunked)

    def test_chunk_size_validated(self):
        data, _ = blobs()
        centroids = data[:3]
        with pytest.raises(ValueError, match="chunk_size"):
            assign_to_centroids(data, centroids, chunk_size=0)
