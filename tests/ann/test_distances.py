"""Unit and property tests for the distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ann.distances import (
    as_matrix,
    inner_product,
    normalize,
    pairwise_distance,
    selection,
    squared_l2,
    squared_l2_into,
    top_k,
    validate_metric,
)


def small_matrices(max_rows=8, max_dim=6):
    return hnp.arrays(
        np.float32,
        st.tuples(
            st.integers(1, max_rows), st.integers(1, max_dim)
        ),
        elements=st.floats(-10, 10, width=32),
    )


class TestValidateMetric:
    def test_accepts_l2(self):
        assert validate_metric("l2") == "l2"

    def test_accepts_ip(self):
        assert validate_metric("ip") == "ip"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown metric"):
            validate_metric("cosine")


class TestAsMatrix:
    def test_promotes_vector_to_row(self):
        out = as_matrix(np.zeros(4))
        assert out.shape == (1, 4)

    def test_passes_through_matrix(self):
        out = as_matrix(np.zeros((3, 4)))
        assert out.shape == (3, 4)

    def test_casts_to_float32(self):
        out = as_matrix(np.zeros((2, 2), dtype=np.float64))
        assert out.dtype == np.float32

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            as_matrix(np.zeros((2, 2, 2)))


class TestSquaredL2:
    def test_zero_distance_to_self(self):
        x = np.random.default_rng(0).normal(size=(5, 8)).astype(np.float32)
        d = squared_l2(x, x)
        assert np.allclose(np.diag(d), 0.0, atol=1e-4)

    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(4, 6)).astype(np.float32)
        p = rng.normal(size=(7, 6)).astype(np.float32)
        expected = ((q[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(squared_l2(q, p), expected, atol=1e-3)

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(10, 4)).astype(np.float32) * 100
        d = squared_l2(q, q)
        assert (d >= 0).all()

    @given(small_matrices())
    @settings(max_examples=25, deadline=None)
    def test_symmetric_on_same_set(self, x):
        d = squared_l2(x, x)
        assert np.allclose(d, d.T, atol=1e-2)

    @pytest.mark.parametrize(
        "nq,npts,dim", [(1, 1, 1), (32, 64, 64), (800, 256, 3), (800, 1, 2), (5, 7, 768)]
    )
    def test_kernel_is_the_plain_expansion_bit_for_bit(self, nq, npts, dim):
        """Every index is built through this arithmetic (k-means seeding calls
        the kernel with norms gathered from a hoisted full-matrix pass), so a
        last-bit drift would silently change every built index."""
        rng = np.random.default_rng(nq + npts + dim)
        rows = rng.normal(size=(nq + npts, dim)).astype(np.float32)
        q, p = rows[:nq], rows[nq:]
        norms = np.einsum("ij,ij->i", rows, rows)
        plain = np.maximum(
            np.einsum("ij,ij->i", q, q)[:, np.newaxis]
            + np.einsum("ij,ij->i", p, p)[np.newaxis, :]
            - 2.0 * (q @ p.T),
            0.0,
        )
        np.testing.assert_array_equal(squared_l2(q, p), plain)
        # dirty buffers: every cell must be overwritten, none read
        out = np.full((nq, npts), np.nan, dtype=np.float32)
        gram = np.full((nq, npts), np.nan, dtype=np.float32)
        assert squared_l2_into(q, 2 * p, norms[:nq, np.newaxis], norms[nq:], out, gram) is out
        np.testing.assert_array_equal(out, plain)


class TestInnerProduct:
    def test_matches_matmul(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(3, 5)).astype(np.float32)
        p = rng.normal(size=(4, 5)).astype(np.float32)
        assert np.allclose(inner_product(q, p), q @ p.T)


class TestPairwiseDistance:
    def test_ip_is_negated_similarity(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(3, 5)).astype(np.float32)
        p = rng.normal(size=(4, 5)).astype(np.float32)
        assert np.allclose(pairwise_distance(q, p, "ip"), -(q @ p.T))

    def test_smaller_is_closer_for_both_metrics(self):
        # A point and its near-duplicate should beat a far point.
        anchor = np.ones((1, 4), dtype=np.float32)
        near = anchor * 1.01
        far = -anchor
        points = np.concatenate([near, far])
        for metric in ("l2", "ip"):
            d = pairwise_distance(anchor, points, metric)
            assert d[0, 0] < d[0, 1]

    def test_rejects_bad_metric(self):
        with pytest.raises(ValueError):
            pairwise_distance(np.zeros((1, 2)), np.zeros((1, 2)), "hamming")


class TestTopK:
    def test_returns_sorted_ascending(self):
        d = np.array([[3.0, 1.0, 2.0]])
        dists, ids = top_k(d, 3)
        assert list(ids[0]) == [1, 2, 0]
        assert list(dists[0]) == [1.0, 2.0, 3.0]

    def test_partial_selection_matches_full_sort(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=(6, 50))
        dists, ids = top_k(d, 5)
        full = np.sort(d, axis=1)[:, :5]
        assert np.allclose(dists, full)

    def test_pads_when_k_exceeds_columns(self):
        d = np.array([[1.0, 2.0]])
        dists, ids = top_k(d, 4)
        assert list(ids[0, 2:]) == [-1, -1]
        assert np.isinf(dists[0, 2:]).all()

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            top_k(np.zeros((1, 3)), 0)

    def test_ties_break_by_column_index(self):
        # The k-th value ties with columns beyond the cut: argpartition may
        # keep an arbitrary tied subset, but the contract is lowest indices.
        d = np.array([[5.0, 1.0, 1.0, 1.0, 1.0, 0.5]])
        dists, ids = top_k(d, 3)
        assert list(ids[0]) == [5, 1, 2]
        d = np.array([[2.0, 2.0, 2.0, 2.0]])
        _, ids = top_k(d, 2)
        assert list(ids[0]) == [0, 1]

    def test_duplicated_vector_ids_are_deterministic(self):
        # Duplicated corpus vectors yield exactly-tied distances; every k
        # cut must return the lowest-index duplicates, matching a full
        # stable sort.
        rng = np.random.default_rng(11)
        base = rng.normal(size=(1, 8)).astype(np.float32)
        points = np.repeat(rng.normal(size=(7, 8)).astype(np.float32), 4, axis=0)
        d = pairwise_distance(base, points)
        for k in range(1, points.shape[0] + 1):
            _, ids = top_k(d, k)
            expect = np.argsort(d[0], kind="stable")[:k]
            np.testing.assert_array_equal(ids[0], expect)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 20)),
            elements=st.floats(-1e3, 1e3),
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_topk_values_are_row_minima(self, d, k):
        dists, ids = top_k(d, k)
        kk = min(k, d.shape[1])
        expected = np.sort(d, axis=1)[:, :kk]
        assert np.allclose(dists[:, :kk], expected)

    def test_nan_rows_take_the_stable_sort(self):
        # A NaN k-th value leaves the threshold too few candidates; the
        # stable argsort it falls back to puts NaN last.
        d = np.array([[np.nan] * 300, [1.0] * 150 + [np.nan] * 150] * 2)
        for k in (1, 10, 160):
            dists, ids = top_k(d, k)
            expect = np.argsort(d, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(ids, expect)
            np.testing.assert_array_equal(dists, np.take_along_axis(d, expect, axis=1))


def stable_prefix(d, k):
    """The contract: the first k of a full stable argsort, padded."""
    nq, n = d.shape
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    values = np.take_along_axis(d, order, axis=1)
    pad = k - order.shape[1]
    return (
        np.concatenate([values, np.full((nq, pad), np.inf, dtype=d.dtype)], axis=1),
        np.concatenate([order, np.full((nq, pad), -1)], axis=1),
    )


@st.composite
def distance_matrices(draw):
    """Shapes reaching every selection, values with exact ties at the cut
    (few distinct levels, duplicated columns), ±inf, float32 and float64."""
    nq = draw(st.integers(1, 40))
    n = draw(st.one_of(st.integers(1, 80), st.integers(1, 3000)))
    k = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 7, 60, None]))
    if levels is None:
        d = rng.standard_normal((nq, n))
    else:
        d = rng.integers(0, levels, size=(nq, n)).astype(np.float64)
    if draw(st.booleans()):  # duplicated columns: every row ties there
        d[:, rng.integers(0, n, size=n // 3)] = d[:, rng.integers(0, n, size=n // 3)]
    inf_share = draw(st.sampled_from([0.0, 0.05, 0.9]))
    d[rng.random((nq, n)) < inf_share] = np.inf
    d[rng.random((nq, n)) < inf_share / 10] = -np.inf
    return d.astype(draw(st.sampled_from([np.float32, np.float64]))), k


class TestTopKIsTheStableSortPrefix:
    """Every selection returns the stable argsort's prefix: ids, values and
    tie order, bit for bit."""

    @given(distance_matrices())
    @settings(deadline=None)
    def test_matches_stable_argsort_prefix(self, case):
        d, k = case
        dists, ids = top_k(d, k)
        want_d, want_i = stable_prefix(d, k)
        assert ids.dtype == np.int64 and dists.dtype == d.dtype
        np.testing.assert_array_equal(ids, want_i)
        assert dists.tobytes() == want_d.tobytes()

    @pytest.mark.parametrize(
        "nq, n, k, how",
        [
            (1, 300, 8, "sort"),
            (32, 32, 3, "sort"),
            (7, 20, 30, "sort"),
            (32, 77, 8, "threshold"),
            (10, 500, 10, "threshold"),
            (10, 4000, 10, "bounded"),
            (32, 300, 1, "bounded"),
        ],
    )
    def test_each_selection_is_reached(self, nq, n, k, how):
        assert selection(nq, n, min(k, n)) == how
        rng = np.random.default_rng(n)
        d = rng.integers(0, 5, size=(nq, n)).astype(np.float32)
        d[:, ::3] = np.inf
        dists, ids = top_k(d, k)
        want_d, want_i = stable_prefix(d, k)
        np.testing.assert_array_equal(ids, want_i)
        assert dists.tobytes() == want_d.tobytes()


class TestNormalize:
    def test_unit_norm_rows(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(10, 8)).astype(np.float32)
        n = normalize(v)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-5)

    def test_zero_vector_survives(self):
        n = normalize(np.zeros((1, 4)))
        assert np.isfinite(n).all()
