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

import math

import numpy as np

#: Metrics accepted throughout :mod:`repro.ann`.
VALID_METRICS = ("l2", "ip")

_FLOAT32 = np.dtype(np.float32)


def validate_metric(metric: str) -> str:
    """Return *metric* if supported, else raise ``ValueError``."""
    if metric not in VALID_METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {VALID_METRICS}")
    return metric


def as_matrix(x: np.ndarray, *, name: str = "x") -> np.ndarray:
    """Coerce *x* to a 2-D contiguous float array.

    A single vector of shape ``(d,)`` is promoted to ``(1, d)``. An array
    that already is one (a query batch handed down the search stack) is
    returned as is.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT32 and x.ndim == 2 and x.flags.c_contiguous:
        return x
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def check_finite_rows(x: np.ndarray, what: str) -> None:
    """Refuse a NaN / inf entry: ``ValueError`` naming *x*'s first bad row
    as ``"<what> row <i>"``."""
    if np.isfinite(x).all():
        return
    row = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
    raise ValueError(f"{what} row {row} is not finite (NaN or inf)")


def squared_l2(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pairwise squared L2 distance matrix of shape ``(nq, np)``.

    Uses the expansion ``|q - p|^2 = |q|^2 - 2 q.p + |p|^2`` which is a single
    GEMM plus two rank-1 updates, clamped at zero to absorb rounding noise.
    """
    q = as_matrix(queries, name="queries")
    p = as_matrix(points, name="points")
    shape = (len(q), len(p))
    # Double the smaller side: the Gram product is the same bit for bit.
    two = np.float32(2.0)
    q2, p2 = (q * two, p) if len(q) < len(p) else (q, p * two)
    return squared_l2_into(
        q2, p2,
        np.einsum("ij,ij->i", q, q)[:, np.newaxis], np.einsum("ij,ij->i", p, p),
        np.empty(shape, dtype=np.float32), np.empty(shape, dtype=np.float32),
    )


def squared_l2_into(
    q: np.ndarray,
    p2: np.ndarray,
    q_norms: np.ndarray,
    p_norms: np.ndarray,
    out: np.ndarray,
    gram: np.ndarray,
) -> np.ndarray:
    """The arithmetic of :func:`squared_l2`, on float32 matrices and buffers.

    ``p2`` is the points doubled (``2 p``): ``q @ (2 p).T`` is ``2 (q @
    p.T)`` bit for bit, since doubling is exact through every product, sum
    and FMA, so a caller holding fixed points keeps them doubled and the
    kernel runs no scaling pass (doubling ``q`` instead gives the same
    product). ``q_norms`` is the ``(nq, 1)`` column of
    ``|q_i|^2`` and ``p_norms`` the ``(np,)`` row of ``|p_j|^2``; ``out`` and
    ``gram`` are ``(nq, np)`` float32 arrays (result and GEMM scratch). A loop
    that calls this many times at one shape (k-means++ seeding) hoists the
    norms of whichever side stays fixed and reuses the buffers. Returns
    *out*.
    """
    np.matmul(q, p2.T, out=gram)
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


#: ``nq * n * log2(n)`` up to which one stable ``argsort`` beats threshold
#: selection (:func:`selection`). Measured on a grid of nq 1..32 x n 24..768 x
#: k 1 / 3 / 8 (one thread): the two cost the same at 4 600-7 600, e.g.
#: n = 512 at nq = 1, n = 64 at nq = 16, n = 40-48 at nq = 32.
_SORT_WORK = 6000

#: Rows at least this long, and at least 64 k, bound the k-th value by
#: block minima before thresholding (:func:`selection`); below 256 the
#: extra pass costs more than the shorter partition saves.
_BOUND_MIN_N = 256


def selection(nq: int, n: int, k: int) -> str:
    """Which exact selection :func:`top_k` runs on an ``(nq, n)`` matrix:
    ``"sort"``, ``"threshold"`` or ``"bounded"`` (see there)."""
    if k >= n or nq * n * math.log2(max(n, 2)) <= _SORT_WORK:
        return "sort"
    return "bounded" if n >= max(64 * k, _BOUND_MIN_N) else "threshold"


def top_k(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Select the *k* smallest entries per row of a distance matrix.

    Returns ``(dists, indices)`` each of shape ``(nq, k)``, rows sorted
    ascending. When a row has fewer than *k* columns the result is padded with
    ``inf`` distances and ``-1`` indices, mirroring FAISS's convention.

    The result is exactly the prefix of ``np.argsort(distances, axis=1,
    kind="stable")``: the same ids, values and tie order (equal distances in
    ascending column order, NaN last), whichever of three selections the
    matrix's shape picks (:func:`selection`):

    - **sort** (short rows: ``nq * n * log2(n) <= 6000``, or ``k >= n``):
      that stable argsort itself.
    - **threshold**: the k-th smallest *value* per row (a value-only
      partition), then every entry at or below it — at least k per row, more
      only where a tie spans the cut — sorted by (row, value, column), each
      row's first k kept.
    - **bounded** (long rows: ``n >= max(64 k, 256)``): as threshold, but
      the threshold is the k-th smallest of the row's ``w = n // 8`` strided
      block minima (minimum ``j`` is over columns ``j, j + w, ..., j + 7w``).
      Those k minima are entries of the row at distinct columns, so the
      bound is at least the true k-th value: the candidate set can only
      grow, never lose a winner, and the partition runs over an eighth of
      the row.

    A threshold that is NaN (a row with fewer than k non-NaN entries) leaves
    fewer than k candidates; the matrix then takes the stable argsort.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    nq, n = distances.shape
    kk = min(k, n)
    how = selection(nq, n, kk)
    if how == "sort":
        order, out_d = _sorted_prefix(distances, kk)
    else:
        if how == "bounded":
            w = n // 8
            minima = distances[:, : 8 * w].reshape(nq, 8, w).min(axis=1)
            minima.partition(kk - 1, axis=1)  # a fresh array: in place
            kth = minima[:, kk - 1]
        else:
            kth = np.partition(distances, kk - 1, axis=1)[:, kk - 1]
        # 1-D nonzero: several times faster than the 2-D form.
        hit_r, hit_c = np.divmod(np.flatnonzero(distances <= kth[:, np.newaxis]), n)
        counts = np.bincount(hit_r, minlength=nq)
        if counts.min() < kk:
            order, out_d = _sorted_prefix(distances, kk)
        else:
            hit_d = distances[hit_r, hit_c]
            ranked = np.lexsort((hit_c, hit_d, hit_r))
            take = ranked[(np.cumsum(counts) - counts)[:, np.newaxis] + np.arange(kk)]
            order, out_d = hit_c[take], hit_d[take]
    order = order.astype(np.int64, copy=False)
    if kk < k:
        pad_d = np.full((nq, k - kk), np.inf, dtype=out_d.dtype)
        pad_i = np.full((nq, k - kk), -1, dtype=np.int64)
        out_d = np.concatenate([out_d, pad_d], axis=1)
        order = np.concatenate([order, pad_i], axis=1)
    return out_d, order


def _sorted_prefix(distances: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """``(columns, values)`` of each row's first *kk* in stable sort order."""
    order = np.argsort(distances, axis=1, kind="stable")[:, :kk]
    return order, distances[np.arange(len(order))[:, np.newaxis], order]


def normalize(vectors: np.ndarray, *, eps: float = 1e-12) -> np.ndarray:
    """Return L2-normalised copies of *vectors* (rows with ~zero norm are kept)."""
    v = as_matrix(vectors, name="vectors")
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.maximum(norms, eps)
