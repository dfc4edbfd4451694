"""k-means++ seeding against its step-by-step reference.

``_kmeanspp_init`` hoists the row norms, reuses its buffers and draws from the
D^2 distribution by inverse cdf (one uniform against the float64 cumulative
sum). The loop below is the plain form it replaced — ``pairwise_distance`` and
``rng.choice`` per step — and the two must pick the same rows from the same
generator state, or every index built on top (IVF cells, PQ codebooks, the
datastore split) silently changes.
"""

import numpy as np
import pytest

from repro.ann.distances import pairwise_distance
from repro.ann.kmeans import _kmeanspp_init, kmeans


def seeding_reference(vectors, k, rng, *, sample_size=None):
    n = len(vectors)
    if sample_size is not None and k <= sample_size < n:
        vectors = vectors[rng.choice(n, size=sample_size, replace=False)]
        n = sample_size
    centroids = np.empty((k, vectors.shape[1]), dtype=vectors.dtype)
    centroids[0] = vectors[rng.integers(n)]
    closest = pairwise_distance(vectors, centroids[0:1], "l2")[:, 0]
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[i] = vectors[rng.integers(n)]
        else:
            centroids[i] = vectors[rng.choice(n, p=closest / total)]
        d_new = pairwise_distance(vectors, centroids[i : i + 1], "l2")[:, 0]
        np.minimum(closest, d_new, out=closest)
    return centroids


@pytest.mark.parametrize(
    "n,dim,k",
    [(800, 3, 256), (800, 2, 256), (300, 2, 256), (500, 64, 20), (257, 768, 10), (64, 4, 64)],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_same_rows_as_stepwise_reference(n, dim, k, seed):
    data = np.random.default_rng([n, dim, seed]).normal(size=(n, dim)).astype(np.float32)
    for sample_size in (None, max(k, n // 2)):
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = _kmeanspp_init(data, k, fast_rng, sample_size=sample_size)
        ref = seeding_reference(data, k, ref_rng, sample_size=sample_size)
        np.testing.assert_array_equal(fast, ref)
        # both consumed the generator identically
        assert fast_rng.random() == ref_rng.random()


def test_coincident_points_take_the_uniform_fallback():
    """Fewer distinct rows than centroids: once every row coincides with a
    chosen centroid the D^2 mass is zero and both forms draw uniformly."""
    data = np.repeat(
        np.random.default_rng(3).normal(size=(4, 5)).astype(np.float32), 10, axis=0
    )
    fast = _kmeanspp_init(data, 9, np.random.default_rng(5))
    ref = seeding_reference(data, 9, np.random.default_rng(5))
    np.testing.assert_array_equal(fast, ref)
    assert kmeans(data, 9, seed=5).centroids.shape == (9, 5)
