"""Distance and similarity kernels for dense vector search.

All kernels operate on 2-D float32/float64 arrays of shape ``(n, d)`` and are
vectorised with numpy. Two metrics are supported, matching the two FAISS
metrics the Hermes paper uses:

- ``"l2"``: squared Euclidean distance (lower is closer).
- ``"ip"``: inner product (higher is closer) — the metric used for the
  BGE-style normalised embeddings in the paper's retrieval pipeline.

``pairwise_distance`` returns a matrix where *smaller is always better*; for
inner product the negated similarity is returned so that downstream top-k
selection is metric-agnostic.
"""

from __future__ import annotations

import numpy as np

#: Metrics accepted throughout :mod:`repro.ann`.
VALID_METRICS = ("l2", "ip")


def validate_metric(metric: str) -> str:
    """Return *metric* if supported, else raise ``ValueError``."""
    if metric not in VALID_METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {VALID_METRICS}")
    return metric


def as_matrix(x: np.ndarray, *, name: str = "x") -> np.ndarray:
    """Coerce *x* to a 2-D contiguous float array.

    A single vector of shape ``(d,)`` is promoted to ``(1, d)``.
    """
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def squared_l2(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pairwise squared L2 distance matrix of shape ``(nq, np)``.

    Uses the expansion ``|q - p|^2 = |q|^2 - 2 q.p + |p|^2`` which is a single
    GEMM plus two rank-1 updates, clamped at zero to absorb rounding noise.
    """
    q = as_matrix(queries, name="queries")
    p = as_matrix(points, name="points")
    shape = (len(q), len(p))
    return squared_l2_into(
        q, p,
        np.einsum("ij,ij->i", q, q)[:, np.newaxis], np.einsum("ij,ij->i", p, p),
        np.empty(shape, dtype=np.float32), np.empty(shape, dtype=np.float32),
    )


def squared_l2_into(
    q: np.ndarray,
    p: np.ndarray,
    q_norms: np.ndarray,
    p_norms: np.ndarray,
    out: np.ndarray,
    gram: np.ndarray,
) -> np.ndarray:
    """The arithmetic of :func:`squared_l2`, on float32 matrices and buffers.

    ``q_norms`` is the ``(nq, 1)`` column of ``|q_i|^2`` and ``p_norms`` the
    ``(np,)`` row of ``|p_j|^2``; ``out`` and ``gram`` are ``(nq, np)`` float32
    arrays (result and GEMM scratch). A loop that calls this many times at one
    shape (k-means++ seeding) hoists the norms of whichever side stays fixed
    and reuses the buffers. Returns *out*.
    """
    np.matmul(q, p.T, out=gram)
    np.multiply(gram, 2.0, out=gram)
    np.add(q_norms, p_norms, out=out)
    np.subtract(out, gram, out=out)
    np.maximum(out, 0.0, out=out)
    return out


def inner_product(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pairwise inner-product similarity matrix of shape ``(nq, np)``."""
    q = as_matrix(queries, name="queries")
    p = as_matrix(points, name="points")
    return q @ p.T


def pairwise_distance(queries: np.ndarray, points: np.ndarray, metric: str = "l2") -> np.ndarray:
    """Metric-agnostic distance matrix where smaller always means closer."""
    validate_metric(metric)
    if metric == "l2":
        return squared_l2(queries, points)
    return -inner_product(queries, points)


def top_k(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Select the *k* smallest entries per row of a distance matrix.

    Returns ``(dists, indices)`` each of shape ``(nq, k)``, rows sorted
    ascending. When a row has fewer than *k* columns the result is padded with
    ``inf`` distances and ``-1`` indices, mirroring FAISS's convention.

    Ties break by column index (stable): equal distances are returned in
    ascending-index order, so every selection path — full sort and
    partitioned sort — agrees on the exact id set for tied candidates (e.g.
    duplicated vectors).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    nq, n = distances.shape
    kk = min(k, n)
    row = np.arange(nq)[:, np.newaxis]
    if kk == n:
        order = np.argsort(distances, axis=1, kind="stable")[:, :kk]
        out_d = distances[row, order]
    else:
        # The k-th smallest *value* per row (a value-only partition, about
        # twice as fast as argpartition), then every entry at or below it:
        # at least k per row, more only where a tie spans the cut. Sorting
        # those few by (row, value, column) and keeping each row's first k
        # is exactly the full stable sort's prefix.
        kth = np.partition(distances, kk - 1, axis=1)[:, kk - 1]
        # 1-D nonzero: several times faster than the 2-D form.
        hit_r, hit_c = np.divmod(np.flatnonzero(distances <= kth[:, np.newaxis]), n)
        hit_d = distances[hit_r, hit_c]
        ranked = np.lexsort((hit_c, hit_d, hit_r))
        counts = np.bincount(hit_r, minlength=nq)
        take = ranked[(np.cumsum(counts) - counts)[:, np.newaxis] + np.arange(kk)]
        order, out_d = hit_c[take], hit_d[take]
    if kk < k:
        pad_d = np.full((nq, k - kk), np.inf, dtype=out_d.dtype)
        pad_i = np.full((nq, k - kk), -1, dtype=np.int64)
        out_d = np.concatenate([out_d, pad_d], axis=1)
        order = np.concatenate([order.astype(np.int64), pad_i], axis=1)
    return out_d, order.astype(np.int64)


def normalize(vectors: np.ndarray, *, eps: float = 1e-12) -> np.ndarray:
    """Return L2-normalised copies of *vectors* (rows with ~zero norm are kept)."""
    v = as_matrix(vectors, name="vectors")
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.maximum(norms, eps)
