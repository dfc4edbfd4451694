"""The streaming scan's triangle-inequality pruning must be sound.

Pruning is a pure optimisation: the streaming path may skip cells and code
blocks only when they provably cannot enter the top-k, so its results must
match the unpruned reference on every workload — including the adversarial
ones hypothesis likes (duplicated vectors, zero vectors, k larger than any
cell, a single probed cell). Ties are compared distance-wise: the radius
reorder may return a different-but-equidistant id where two *distinct*
vectors tie exactly, so distances (which detect any dropped neighbor) are
the invariant, and exact-id equality is asserted separately where storage
order is preserved (duplicates).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.ivf import IVFIndex
from repro.ann.pruning import (
    inflate_threshold,
    ip_radius_cut,
    l2_radius_window,
    residual_radii,
)
from repro.ann.quantization import make_quantizer


class TestBoundHelpers:
    def test_residual_radii_never_underestimate(self):
        rng = np.random.default_rng(0)
        decoded = rng.normal(size=(100, 8)).astype(np.float32)
        centroids = rng.normal(size=(100, 8)).astype(np.float32)
        radii = residual_radii(decoded, centroids)
        true = np.linalg.norm(
            decoded.astype(np.float64) - centroids.astype(np.float64), axis=1
        )
        assert (radii.astype(np.float64) >= true).all()

    def test_inflate_threshold_keeps_inf_and_sign(self):
        tau = np.array([np.inf, 0.0, 5.0, -0.01])
        out = inflate_threshold(tau)
        assert np.isinf(out[0])
        assert (out[1:] > tau[1:]).all()

    def test_l2_window_infinite_tau_disables_pruning(self):
        lo, hi = l2_radius_window(np.array([4.0]), np.array([np.inf]))
        assert lo[0] == -np.inf and hi[0] == np.inf

    def test_l2_window_excludes_only_unreachable_radii(self):
        # cd = 100 (|q-c| = 10), tau = 4 (|q-p| <= 2): radii in [8, 12] survive
        lo, hi = l2_radius_window(np.array([100.0]), np.array([4.0]))
        assert lo[0] == pytest.approx(8.0)
        assert hi[0] == pytest.approx(12.0)

    def test_ip_cut_zero_norm_query_is_all_or_nothing(self):
        cut = ip_radius_cut(np.array([1.0, -1.0]), np.array([0.0, 0.0]), np.array([0.0]))
        assert cut[0] == -np.inf  # -q.c = -1 <= tau: everything survives
        assert cut[1] == np.inf  # -q.c = 1 > tau: nothing can beat tau


def _tie_aware_check(ref, fast):
    """Distances must match exactly up to fp noise; any pruned true neighbor
    would surface as a strictly larger fast distance."""
    ref_d, ref_i = ref
    fast_d, fast_i = fast
    finite = np.isfinite(ref_d)
    np.testing.assert_array_equal(finite, np.isfinite(fast_d))
    np.testing.assert_allclose(ref_d[finite], fast_d[finite], rtol=1e-3, atol=5e-3)
    assert ((fast_i >= 0) == finite).all()


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(12, 150),
    dim=st.integers(1, 6).map(lambda h: 2 * h),  # even: pq2 needs m | dim
    k=st.integers(1, 40),
    nlist=st.integers(1, 12),
    nprobe=st.integers(1, 12),
    metric=st.sampled_from(["l2", "ip"]),
    scheme=st.sampled_from(["flat", "sq8", "pq2"]),
    duplicate=st.booleans(),
    zeros=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_pruning_never_drops_a_true_neighbor(
    seed, n, dim, k, nlist, nprobe, metric, scheme, duplicate, zeros
):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, dim)).astype(np.float32)
    if duplicate:  # heavy exact ties across and within cells
        data[n // 2 :] = data[: n - n // 2]
    if zeros:
        data[:: 3] = 0.0
    queries = np.concatenate([data[:3], rng.normal(size=(2, dim)).astype(np.float32)])
    index = IVFIndex(
        dim,
        metric,
        nlist=nlist,
        nprobe=nprobe,
        quantizer=make_quantizer(scheme, dim),
    )
    index.train(data)
    index.add(data)
    ref = index.search_reference(queries, k)
    pruned = index.search(queries, k, prune=True)
    _tie_aware_check(ref, pruned)


class TestDuplicatedVectors:
    """Duplicates keep their insertion order through the radius reorder
    (equal radii + stable sort), so ids must match the reference exactly."""

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_duplicate_ids_match_reference_exactly(self, metric):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(40, 16)).astype(np.float32)
        data = np.concatenate([base] * 4)  # every vector stored 4x
        queries = base[:10] + rng.normal(scale=0.01, size=(10, 16)).astype(np.float32)
        index = IVFIndex(
            16, metric, nlist=6, nprobe=6, quantizer=make_quantizer("flat", 16)
        )
        index.train(data)
        index.add(data)
        ref_d, ref_i = index.search_reference(queries, 9)
        for prune in (False, True):
            d, i = index.search(queries, 9, prune=prune)
            np.testing.assert_array_equal(ref_i, i)
            np.testing.assert_allclose(ref_d, d, rtol=1e-3, atol=5e-3)


class TestPruningState:
    def test_reorder_is_within_cells_only(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(300, 8)).astype(np.float32)
        index = IVFIndex(8, nlist=8, nprobe=4, quantizer=make_quantizer("pq4", 8))
        index.train(data)
        index.add(data)
        before_ids_by_cell = [set(index.cell_codes(c)[1]) for c in range(index.nlist)]
        before_sizes = index.list_sizes()
        _, state = index.export_state()  # warms: a gather codec sorts by radius
        offsets = state["cell_offsets"]
        np.testing.assert_array_equal(np.diff(offsets), before_sizes)
        for c in range(index.nlist):
            lo, hi = offsets[c], offsets[c + 1]
            assert set(state["ids"][lo:hi]) == before_ids_by_cell[c]
            # radius-ascending within the cell
            assert (np.diff(state["code_radii"][lo:hi]) >= 0).all()

    @pytest.mark.parametrize(
        "scheme, streams", [("flat", False), ("sq8", False), ("pq4", True), ("opq4", True)]
    )
    def test_warm_state_has_radii_iff_default_scan_streams(self, scheme, streams):
        """Radii cost a decode pass and a reorder; only codecs whose default
        scan consumes them build (and so persist and ship) them."""
        rng = np.random.default_rng(5)
        data = rng.normal(size=(200, 8)).astype(np.float32)
        index = IVFIndex(8, nlist=4, nprobe=4, quantizer=make_quantizer(scheme, 8))
        index.train(data)
        index.add(data)
        index.warm_scan_state()
        assert ("code_radii" in index.export_state()[1]) == streams
        # an explicit pruned search still builds them on demand
        d, i = index.search(data[:2], 3, prune=True)
        np.testing.assert_array_equal(index.search_reference(data[:2], 3)[1], i)
        assert "code_radii" in index.export_state()[1]

    def test_add_invalidates_radii(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(200, 8)).astype(np.float32)
        index = IVFIndex(8, nlist=4, nprobe=4, quantizer=make_quantizer("flat", 8))
        index.train(data)
        index.add(data)
        index.search(data[:2], 3, prune=True)
        assert "code_radii" in index.export_state()[1]
        index.add(data[:10])
        assert "code_radii" not in index.export_state()[1]
        d, i = index.search(data[:2], 3, prune=True)  # recomputes lazily
        ref_d, ref_i = index.search_reference(data[:2], 3)
        np.testing.assert_array_equal(ref_i, i)

    def test_counters_increase_on_clustered_corpus(self):
        from repro.obs.metrics import get_registry

        rng = np.random.default_rng(6)
        centers = rng.normal(scale=6.0, size=(8, 16))
        data = (
            centers[rng.integers(0, 8, 2000)] + rng.normal(size=(2000, 16))
        ).astype(np.float32)
        queries = data[:16] + rng.normal(scale=0.05, size=(16, 16)).astype(np.float32)
        index = IVFIndex(16, nlist=16, nprobe=16, quantizer=make_quantizer("pq8", 16))
        index.train(data)
        index.add(data)
        counter = get_registry().counter("ivf_cells_pruned_total", "test")
        before = counter.total()
        index.search(queries, 5, prune=True)
        assert counter.total() > before

    @pytest.mark.parametrize(
        "scheme, fires", [("flat", False), ("sq8", False), ("pq8", True), ("opq8", True)]
    )
    def test_default_scan_prunes_only_gather_codecs(self, scheme, fires):
        """With ``prune`` left to the index, the streaming pruned scan runs on
        the gather codecs (pq/opq) and never on the GEMM codecs (flat/sq8) —
        and either way the ids match the reference."""
        from repro.obs.metrics import get_registry

        rng = np.random.default_rng(6)
        centers = rng.normal(scale=6.0, size=(8, 16))
        data = (
            centers[rng.integers(0, 8, 2000)] + rng.normal(size=(2000, 16))
        ).astype(np.float32)
        queries = data[:16] + rng.normal(scale=0.05, size=(16, 16)).astype(np.float32)
        index = IVFIndex(16, nlist=16, nprobe=16, quantizer=make_quantizer(scheme, 16))
        index.train(data)
        index.add(data)
        counter = get_registry().counter("ivf_cells_pruned_total", "test")
        before = counter.total()
        _, ids = index.search(queries, 5)
        assert (counter.total() > before) == fires
        np.testing.assert_array_equal(index.search_reference(queries, 5)[1], ids)
