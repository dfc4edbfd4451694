"""K-means clustering for IVF training and Hermes datastore splits.

The Hermes paper uses K-means twice:

1. Inside every IVF index, to learn the ``nlist`` coarse centroids (§2.1).
2. At the system level, to disaggregate the datastore into per-node clusters
   of similar documents (§4.1), including a *seed sweep on a small subset* to
   minimise cluster-size imbalance cheaply.

At the paper's 899M-document scale index construction is the dominant
offline cost, so the training path is engineered accordingly:

- **Bounded E-step**: assignments stream through ``(chunk, k)`` distance
  blocks instead of one ``(n, k)`` matrix, and the M-step accumulates
  per-cluster sums as a one-hot GEMM per chunk (an order of magnitude faster
  than ``np.add.at`` scatter adds, which dominated the old profile).
- **Mini-batch K-means** (:func:`kmeans_minibatch`): Sculley-style sampled
  updates with per-centre learning rates, followed by a few full Lloyd's
  refinement passes — the "sampled-then-refine" large-``n`` path.
- **Sampled k-means++ seeding**: seeding cost is ``O(sample * k)`` instead of
  ``O(n * k)`` when a sample size is given.
- :func:`train_kmeans` picks the variant from the input size (mini-batch
  at :data:`MINIBATCH_THRESHOLD` rows and above, Lloyd's below) and is what
  every build path calls — the datastore split and its seed sweep, IVF
  coarse centroids and PQ/OPQ codebooks. The pre-optimisation Lloyd's is
  kept as a test oracle (``tests/oracles.py``), the quality-parity baseline
  of ``tests/ann/test_kmeans.py`` and ``tests/core/test_clustering.py``.

The module also provides the imbalance proxy the paper uses (ratio of largest
to smallest cluster) and the concurrent seed sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distances import as_matrix, pairwise_distance, squared_l2_into, validate_metric
from .parallel import run_tasks

#: Rows per E-step distance block; bounds peak memory at ``chunk * k`` floats.
DEFAULT_CHUNK = 16_384

#: :func:`train_kmeans` switches from Lloyd's to mini-batch at this size.
MINIBATCH_THRESHOLD = 20_000


@dataclass
class KMeansResult:
    """Outcome of one K-means run."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iter: int
    seed: int
    #: per-cluster member counts, length k
    sizes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        k = len(self.centroids)
        self.sizes = np.bincount(self.assignments, minlength=k)

    @property
    def imbalance(self) -> float:
        """Largest/smallest cluster-size ratio (paper §4.1 imbalance proxy).

        ``inf`` when any cluster is empty.
        """
        smallest = int(self.sizes.min())
        if smallest == 0:
            return float("inf")
        return float(self.sizes.max()) / float(smallest)


def _kmeanspp_init(
    vectors: np.ndarray,
    k: int,
    rng: np.random.Generator,
    *,
    sample_size: "int | None" = None,
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to D^2.

    With *sample_size* the seeding runs on a random subset, which keeps the
    ``O(n * k)`` seeding cost bounded for large corpora while preserving the
    spread property on the sample.

    On the small problems PQ sub-codebooks pose (hundreds of rows, 2-3 dims,
    256 centroids) the ``k`` sequential steps are all per-call overhead, so
    the loop hoists the row norms, reuses its buffers and draws from the D^2
    distribution by inverse cdf directly — one uniform against the normalised
    float64 cumulative sum, which is the draw ``rng.choice(n, p=probs)``
    makes (same row, same generator consumption; pinned by
    ``tests/ann/test_kmeans_seeding.py``) without its per-call validation.
    """
    n = len(vectors)
    if sample_size is not None and k <= sample_size < n:
        vectors = vectors[rng.choice(n, size=sample_size, replace=False)]
        n = sample_size
    centroids = np.empty((k, vectors.shape[1]), dtype=vectors.dtype)
    first = rng.integers(n)
    centroids[0] = vectors[first]
    closest = pairwise_distance(vectors, centroids[0:1], "l2")
    row_sq = np.einsum("ij,ij->i", vectors, vectors)[:, np.newaxis]
    d_new = np.empty_like(closest)
    gram = np.empty_like(closest)
    probs = np.empty(n, dtype=closest.dtype)
    cdf = np.empty(n, dtype=np.float64)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids; fall back
            # to uniform sampling of distinct rows.
            choice = rng.integers(n)
        else:
            np.divide(closest[:, 0], total, out=probs)
            np.add.accumulate(probs, dtype=np.float64, out=cdf)
            cdf /= cdf[-1]
            choice = cdf.searchsorted(rng.random(), side="right")
        centroids[i] = vectors[choice]
        squared_l2_into(vectors, centroids[i : i + 1] * 2, row_sq, row_sq[choice], d_new, gram)
        np.minimum(closest, d_new, out=closest)
    return centroids


def _estep(
    vecs: np.ndarray,
    centroids: np.ndarray,
    *,
    chunk_size: int = DEFAULT_CHUNK,
    accumulate: bool = False,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]":
    """Chunked assignment pass in ``(chunk, k)`` bounded memory.

    Returns ``(assignments, point_cost, sums, counts)``. With ``accumulate``
    the M-step sufficient statistics are gathered alongside: each chunk's
    per-cluster sums are one one-hot GEMM, so the full pass never
    materialises an ``(n, k)`` matrix or falls back to scatter adds.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    n = len(vecs)
    k = len(centroids)
    assignments = np.empty(n, dtype=np.int64)
    point_cost = np.empty(n, dtype=np.float32)
    sums = np.zeros((k, vecs.shape[1]), dtype=np.float32) if accumulate else None
    counts = np.zeros(k, dtype=np.int64) if accumulate else None
    for start in range(0, n, chunk_size):
        chunk = vecs[start : start + chunk_size]
        dists = pairwise_distance(chunk, centroids, "l2")
        assign = dists.argmin(axis=1)
        rows = np.arange(len(chunk))
        assignments[start : start + chunk_size] = assign
        point_cost[start : start + chunk_size] = dists[rows, assign]
        if accumulate:
            onehot = np.zeros((len(chunk), k), dtype=np.float32)
            onehot[rows, assign] = 1.0
            sums += onehot.T @ chunk
            counts += np.bincount(assign, minlength=k)
    return assignments, point_cost, sums, counts


def _lloyd_iterations(
    vecs: np.ndarray,
    centroids: np.ndarray,
    *,
    max_iter: int,
    tol: float,
    chunk_size: int,
) -> "tuple[np.ndarray, int]":
    """Full Lloyd's iterations with empty-cluster repair; returns centroids.

    Empty clusters are repaired each iteration by re-seeding them at the
    point currently farthest from its assigned centroid, which keeps all
    ``k`` clusters populated (required by the Hermes datastore split).
    """
    centroids = centroids.astype(np.float32, copy=True)
    inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        assignments, point_cost, sums, counts = _estep(
            vecs, centroids, chunk_size=chunk_size, accumulate=True
        )
        new_inertia = float(point_cost.sum())
        empties = np.flatnonzero(counts == 0)
        denom = counts.astype(np.float32)[:, np.newaxis]
        if len(empties):
            worst = np.argsort(point_cost)[::-1]
            for slot, point in zip(empties, worst):
                centroids[slot] = vecs[point]
            nonempty = counts > 0
            centroids[nonempty] = sums[nonempty] / denom[nonempty]
        else:
            centroids = sums / denom
        converged = (
            np.isfinite(inertia) and inertia - new_inertia <= tol * max(inertia, 1.0)
        )
        if converged and not len(empties):
            inertia = new_inertia
            break
        inertia = new_inertia
    return centroids, n_iter


def _finalize(
    vecs: np.ndarray,
    centroids: np.ndarray,
    *,
    n_iter: int,
    seed: int,
    chunk_size: int,
) -> KMeansResult:
    """Final assignment against the final centroids."""
    assignments, point_cost, _, _ = _estep(vecs, centroids, chunk_size=chunk_size)
    return KMeansResult(
        centroids=centroids.astype(np.float32),
        assignments=assignments,
        inertia=float(point_cost.sum()),
        n_iter=n_iter,
        seed=seed,
    )


def _validate_problem(vecs: np.ndarray, k: int) -> None:
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if len(vecs) < k:
        raise ValueError(f"need at least k={k} vectors, got {len(vecs)}")


def kmeans(
    vectors: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    max_iter: int = 25,
    tol: float = 1e-4,
    chunk_size: int = DEFAULT_CHUNK,
) -> KMeansResult:
    """Run full Lloyd's algorithm from k-means++ seeds.

    The E-step is chunked (``(chunk_size, k)`` peak memory) and the M-step
    accumulates per-cluster sums as one-hot GEMMs; the arithmetic is the
    classic Lloyd's update, so results match the reference Lloyd's of the
    test oracles up to float32 summation order.
    """
    vecs = as_matrix(vectors)
    _validate_problem(vecs, k)
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(vecs, k, rng)
    centroids, n_iter = _lloyd_iterations(
        vecs, centroids, max_iter=max_iter, tol=tol, chunk_size=chunk_size
    )
    return _finalize(vecs, centroids, n_iter=n_iter, seed=seed, chunk_size=chunk_size)


def kmeans_minibatch(
    vectors: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    max_iter: int = 100,
    batch_size: int = 4096,
    tol: float = 1e-4,
) -> KMeansResult:
    """Mini-batch K-means [Sculley 2010] with full-data refinement passes.

    k-means++ seeds come from a ``max(10 k, 2 batch_size)``-row sample. Each
    step assigns one random batch and moves its centres by a per-centre
    learning rate ``|batch members| / |total members seen|``, so training cost
    is independent of ``n``. The loop stops early once centre movement stays
    below *tol* (relative to the data's per-point variance) for three
    consecutive steps. Two full Lloyd's passes then polish the centres on the
    complete dataset — repairing any empty clusters — which is what keeps
    final inertia within a few percent of full Lloyd's.
    """
    vecs = as_matrix(vectors)
    _validate_problem(vecs, k)
    n = len(vecs)
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if batch_size >= n:
        # Batches would cover the data anyway: plain Lloyd's is cheaper.
        return kmeans(vectors, k, seed=seed, max_iter=max_iter, tol=tol)
    rng = np.random.default_rng(seed)
    init_sample = min(n, max(10 * k, 2 * batch_size))
    centroids = _kmeanspp_init(vecs, k, rng, sample_size=init_sample).astype(
        np.float32, copy=True
    )
    # Movement tolerance scale: total per-point variance of a data sample.
    probe = vecs[: min(n, 4096)]
    scale = max(float(probe.var(axis=0).sum()), 1e-12)
    counts = np.zeros(k, dtype=np.int64)
    rows = np.arange(batch_size)
    calm_steps = 0
    steps = 0
    for steps in range(1, max_iter + 1):
        batch = vecs[rng.integers(0, n, size=batch_size)]
        dists = pairwise_distance(batch, centroids, "l2")
        assign = dists.argmin(axis=1)
        onehot = np.zeros((batch_size, k), dtype=np.float32)
        onehot[rows, assign] = 1.0
        bsums = onehot.T @ batch
        bcounts = np.bincount(assign, minlength=k)
        counts += bcounts
        hit = bcounts > 0
        eta = (bcounts[hit] / counts[hit]).astype(np.float32)[:, np.newaxis]
        target = bsums[hit] / bcounts[hit].astype(np.float32)[:, np.newaxis]
        delta = (target - centroids[hit]) * eta
        centroids[hit] += delta
        shift = float(np.einsum("ij,ij->", delta, delta)) / k
        calm_steps = calm_steps + 1 if shift <= tol * scale else 0
        if calm_steps >= 3:
            break
    centroids, refined = _lloyd_iterations(
        vecs, centroids, max_iter=2, tol=tol, chunk_size=DEFAULT_CHUNK
    )
    return _finalize(
        vecs, centroids, n_iter=steps + refined, seed=seed, chunk_size=DEFAULT_CHUNK
    )


def train_kmeans(
    vectors: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    max_iter: int = 25,
    tol: float = 1e-4,
) -> KMeansResult:
    """Train a clustering, choosing the algorithm from the input size.

    Below :data:`MINIBATCH_THRESHOLD` rows this is chunked Lloyd's
    (:func:`kmeans`, at most *max_iter* iterations); at or above it,
    mini-batch K-means with full-data refinement (:func:`kmeans_minibatch`,
    on its own step budget). Every build path trains through here.
    """
    vecs = as_matrix(vectors)
    if len(vecs) >= MINIBATCH_THRESHOLD:
        return kmeans_minibatch(vecs, k, seed=seed, tol=tol)
    return kmeans(vecs, k, seed=seed, max_iter=max_iter, tol=tol)


def kmeans_seed_sweep(
    vectors: np.ndarray,
    k: int,
    *,
    seeds: "tuple[int, ...]" = (0, 1, 2, 3, 4, 5, 6, 7),
    subset_fraction: float = 0.02,
    min_subset: int = 256,
    max_iter: int = 25,
    rng_seed: int = 0,
    workers: "int | None" = 1,
) -> KMeansResult:
    """Pick the K-means seed with the lowest cluster-size imbalance.

    Mirrors the paper's §4.1 procedure: each candidate seed is evaluated on a
    small random subset (1–2% of the datastore by default) because imbalance
    on the subset tracks imbalance on the full set, then the winning seed is
    re-run on the full data (through :func:`train_kmeans`, so large corpora
    take the mini-batch path).

    Trials are independent, so they run concurrently when *workers* allows;
    ties on imbalance break to the **lowest seed value**, which keeps the
    winner independent of evaluation order.
    """
    vecs = as_matrix(vectors)
    n = len(vecs)
    if not 0 < subset_fraction <= 1.0:
        raise ValueError(f"subset_fraction must be in (0, 1], got {subset_fraction}")
    subset_size = max(min(n, min_subset), int(n * subset_fraction))
    subset_size = min(subset_size, n)
    if subset_size < k:
        subset_size = min(n, max(k, subset_size))
    rng = np.random.default_rng(rng_seed)
    subset = vecs[rng.choice(n, size=subset_size, replace=False)]

    def trial(seed: int):
        return seed, train_kmeans(subset, k, seed=seed, max_iter=max_iter).imbalance

    trials = run_tasks([lambda s=s: trial(s) for s in seeds], workers)
    best_seed, _ = min(trials, key=lambda item: (item[1], item[0]))
    return train_kmeans(vecs, k, seed=best_seed, max_iter=max_iter)


def assign_to_centroids(
    vectors: np.ndarray,
    centroids: np.ndarray,
    metric: str = "l2",
    *,
    chunk_size: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """Nearest-centroid assignment for out-of-sample vectors.

    Streams the distance computation in ``(chunk_size, k)`` blocks — the same
    bounded E-step as training — so routing a large ingest batch (e.g.
    ``ClusteredDatastore.add_documents``) never materialises an ``(n, k)``
    matrix.
    """
    validate_metric(metric)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    vecs = as_matrix(vectors)
    cents = as_matrix(centroids)
    out = np.empty(len(vecs), dtype=np.int64)
    for start in range(0, len(vecs), chunk_size):
        chunk = vecs[start : start + chunk_size]
        out[start : start + chunk_size] = pairwise_distance(
            chunk, cents, metric
        ).argmin(axis=1)
    return out
