"""Equivalence of the optimised IVF scan against the reference slow path.

The batched/compacted/ADC search engine must return *exactly* the ids the
pre-optimisation per-query path returns (distances may differ only by
float32 accumulation noise). This suite sweeps metrics, quantizers, probe
depths and batch shapes, plus the structural edge cases: empty cells,
k larger than the candidate pool, and forced non-ADC kernels.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.distances import squared_l2, top_k
from repro.ann.ivf import IVFIndex, _probed_cells
from repro.ann.quantization import make_quantizer
from repro.core.clustering import IndexShard
from repro.obs import disable_tracing, enable_tracing
from repro.obs.metrics import MetricsRegistry, set_registry
from tests.oracles import FORCED, dead_view, forced_strategy, ivf_search_reference

DIM = 24
SCHEMES = ["flat", "sq8", "sq4", "pq8", "opq8"]
METRICS = ["l2", "ip"]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    centers = rng.normal(scale=4, size=(10, DIM))
    topic = rng.integers(0, 10, size=1200)
    return (centers[topic] + rng.normal(size=(1200, DIM))).astype(np.float32)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(8)
    picks = rng.choice(len(data), 12, replace=False)
    return (data[picks] + rng.normal(scale=0.05, size=(12, DIM))).astype(np.float32)


@pytest.fixture(scope="module")
def indexes(data):
    built = {}
    for scheme in SCHEMES:
        for metric in METRICS:
            index = IVFIndex(
                DIM, metric, nlist=16, quantizer=make_quantizer(scheme, DIM)
            )
            index.train(data)
            index.add(data)
            built[(scheme, metric)] = index
    return built


@pytest.fixture(scope="module")
def reloaded(indexes, radius_sorted_state):
    """Every index reloaded from format-5 state: ``False`` from its own
    export (insertion order within cells), ``True`` from the radius-sorted
    layout older gather-codec stores were saved in."""
    return {
        (key, radius_sorted): IVFIndex.from_state(
            *(radius_sorted_state(index) if radius_sorted else index.export_state())
        )
        for key, index in indexes.items()
        for radius_sorted in (False, True)
    }


def assert_matches_reference(index, queries, k, nprobe, **kwargs):
    ref_d, ref_i = ivf_search_reference(index, queries, k, nprobe=nprobe)
    fast_d, fast_i = index.search(queries, k, nprobe=nprobe, **kwargs)
    np.testing.assert_array_equal(ref_i, fast_i)
    finite = np.isfinite(ref_d)
    np.testing.assert_array_equal(finite, np.isfinite(fast_d))
    # ids must match exactly; distances only up to fp32 reassociation noise.
    np.testing.assert_allclose(
        ref_d[finite], fast_d[finite], rtol=1e-3, atol=5e-3
    )


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("nprobe", [1, 4, 16])
# None: the index as built; False / True: reloaded (see ``reloaded``).
@pytest.mark.parametrize("radius_sorted", [None, True, False])
def test_fast_path_matches_reference(
    indexes, reloaded, queries, scheme, metric, nprobe, radius_sorted
):
    if radius_sorted is None:
        index = indexes[(scheme, metric)]
    else:
        index = reloaded[((scheme, metric), radius_sorted)]
    assert_matches_reference(index, queries, 5, nprobe)


@pytest.mark.parametrize("scheme", ["flat", "sq8"])
def test_batch_matches_single_query_loop(indexes, queries, scheme):
    """Cell-major batching must not couple queries to each other."""
    index = indexes[(scheme, "l2")]
    batch_d, batch_i = index.search(queries, 5, nprobe=4)
    for qi in range(len(queries)):
        d, i = index.search(queries[qi : qi + 1], 5, nprobe=4)
        np.testing.assert_array_equal(batch_i[qi], i[0])
        # batch shape can flip the scan strategy (dense vs sparse), whose
        # kernels reassociate the fp32 reductions differently.
        np.testing.assert_allclose(batch_d[qi], d[0], rtol=1e-3, atol=5e-3)


@pytest.mark.parametrize("metric", METRICS)
def test_empty_cells_are_skipped(data, queries, metric):
    """Sparse population leaves cells empty; both paths must tolerate it."""
    index = IVFIndex(DIM, metric, nlist=16, quantizer=make_quantizer("sq8", DIM))
    index.train(data)
    index.add(data[:40])  # 16 cells, 40 vectors: several cells stay empty
    assert (index.list_sizes() == 0).any()
    assert_matches_reference(index, queries, 5, 16)


@pytest.mark.parametrize("scheme", ["flat", "sq8", "pq8"])
def test_k_exceeding_candidates_pads(data, queries, scheme):
    """k beyond the probed candidate pool pads with inf / -1 identically."""
    index = IVFIndex(DIM, "l2", nlist=16, quantizer=make_quantizer(scheme, DIM))
    index.train(data)
    index.add(data[:30])
    k = 50
    ref_d, ref_i = ivf_search_reference(index, queries, k, nprobe=2)
    fast_d, fast_i = index.search(queries, k, nprobe=2)
    np.testing.assert_array_equal(ref_i, fast_i)
    assert (fast_i == -1).any()
    assert np.isinf(fast_d[fast_i == -1]).all()


def test_dense_and_sparse_strategies_agree(data, queries):
    """Force both scan strategies on the same index and compare."""
    index = IVFIndex(DIM, "l2", nlist=16, quantizer=make_quantizer("sq8", DIM))
    index.train(data)
    index.add(data)
    with forced_strategy(index, "dense"):
        dense = index.search(queries, 5, nprobe=4)
    with forced_strategy(index, "sparse"):
        sparse = index.search(queries, 5, nprobe=4)
    np.testing.assert_array_equal(dense[1], sparse[1])
    np.testing.assert_allclose(dense[0], sparse[0], rtol=1e-3, atol=5e-3)


def test_search_after_incremental_add_matches_reference(data, queries):
    index = IVFIndex(DIM, "l2", nlist=16, quantizer=make_quantizer("sq8", DIM))
    index.train(data)
    index.add(data[:600])
    index.search(queries, 5)  # compact the first half
    index.add(data[600:])  # dirty again
    assert_matches_reference(index, queries, 5, 8)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("scheme", ["flat", "sq8", "pq8", "opq8"])
def test_duplicate_ids_match_reference_exactly(scheme, metric):
    """Every vector stored 4x: copies share a code, so their distances tie
    exactly and both paths break the tie by storage order — ids must match
    the reference exactly, at a partial and at a full probe."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 16)).astype(np.float32)
    data = np.concatenate([base] * 4)
    queries = base[:10] + rng.normal(scale=0.01, size=(10, 16)).astype(np.float32)
    index = IVFIndex(16, metric, nlist=6, quantizer=make_quantizer(scheme, 16))
    index.train(data)
    index.add(data)
    for nprobe in (2, 6):
        assert_matches_reference(index, queries, 9, nprobe)


# -- nearest-neighbour (k == 1) search: the per-cell reduction ---------------
# Sample search runs at k == 1, where both scans reduce with a first-occurrence
# argmin instead of a top-k selection (the sparse one per tile row, then
# across probe slots). The property: it returns exactly what the general top-k
# machinery returns in column 0, and what the reference path returns.

NN_DIM = 16
NN_NLIST = 40
# The scan strategy (``tests.oracles.FORCED``): forcing one kernel at every
# probe depth exercises each kernel's tie-break across probe slots whatever
# the codec's constant is.


def nn_index(scheme, metric, layout, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(400, NN_DIM)).astype(np.float32)
    if layout == "duplicates":  # exact ties, within and across cells
        data[200:] = data[:200]
    index = IVFIndex(
        NN_DIM, metric, nlist=NN_NLIST, quantizer=make_quantizer(scheme, NN_DIM)
    )
    index.train(data)
    if layout == "empty_cells":
        index.add(data[:30])  # 40 cells, 30 vectors
        assert (index.list_sizes() == 0).any()
    elif layout != "empty_index":
        index.add(data)
    return index, data


def assert_same_winner_up_to_code_ties(index, data, got, want):
    """Ids equal — or the two winners are stored as the same code.

    ADC and decode-then-GEMM round a tied pair's (mathematically equal)
    distances differently, so *between kernels* the order inside a group of
    code-identical vectors is implementation-defined.
    """
    for a, b in zip(got.ravel(), want.ravel()):
        if a != b:
            assert a >= 0 and b >= 0, f"padding mismatch: {a} vs {b}"
            codes = index.quantizer.encode(data[[a, b]])
            assert codes[0].tobytes() == codes[1].tobytes(), f"ids differ: {a} vs {b}"


@given(
    scheme=st.sampled_from(["flat", "sq8", "sq4"]),
    metric=st.sampled_from(METRICS),
    nq=st.sampled_from([1, 4, 32]),
    nprobe=st.sampled_from([1, 3, 8, NN_NLIST + 3]),
    layout=st.sampled_from(["full", "duplicates", "empty_cells", "empty_index"]),
    strategy=st.sampled_from(sorted(FORCED)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(deadline=None)
def test_nearest_neighbour_is_column_zero_of_top_k(
    scheme, metric, nq, nprobe, layout, strategy, seed
):
    index, data = nn_index(scheme, metric, layout, seed)
    rng = np.random.default_rng(seed + 1)
    queries = data[rng.choice(len(data), nq)] + rng.normal(
        scale=0.05, size=(nq, NN_DIM)
    ).astype(np.float32)

    with forced_strategy(index, strategy):
        d1, i1 = index.search(queries, 1, nprobe=nprobe)
        # Same kernels, same tie-break: bit-identical to the top-k path.
        d2, i2 = index.search(queries, 2, nprobe=nprobe)
    assert d1.shape == i1.shape == (nq, 1)
    np.testing.assert_array_equal(i1[:, 0], i2[:, 0])
    np.testing.assert_array_equal(d1[:, 0], d2[:, 0])

    ref_d, ref_i = ivf_search_reference(index, queries, 1, nprobe=nprobe)
    assert_same_winner_up_to_code_ties(index, data, i1, ref_i)
    finite = np.isfinite(ref_d)
    np.testing.assert_array_equal(finite, np.isfinite(d1))
    np.testing.assert_array_equal(finite, i1 >= 0)
    np.testing.assert_allclose(ref_d[finite], d1[finite], rtol=1e-3, atol=5e-3)
    if layout == "empty_index":
        assert not finite.any()


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("scheme", ["flat", "sq8"])
def test_duplicated_vectors_tie_to_the_same_id_at_k1(scheme, metric):
    """Every vector stored 4x: the winner must be the first-stored copy the
    reference picks, at every probe depth and with either kernel."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=(60, NN_DIM)).astype(np.float32)
    data = np.concatenate([base] * 4)
    index = IVFIndex(
        NN_DIM, metric, nlist=12, quantizer=make_quantizer(scheme, NN_DIM)
    )
    index.train(data)
    index.add(data)
    queries = base[:16] + rng.normal(scale=0.01, size=(16, NN_DIM)).astype(np.float32)
    for nprobe in (1, 2, 12):
        _, ref_i = ivf_search_reference(index, queries, 1, nprobe=nprobe)
        for strategy in FORCED:
            with forced_strategy(index, strategy):
                _, i1 = index.search(queries, 1, nprobe=nprobe)
                _, i4 = index.search(queries, 4, nprobe=nprobe)
            np.testing.assert_array_equal(i1, ref_i)
            np.testing.assert_array_equal(i1[:, 0], i4[:, 0])


@pytest.mark.parametrize("scheme", ["flat", "sq8", "pq8"])
def test_k1_forced_kernels_agree(indexes, queries, scheme):
    """Forced dense and forced sparse (the k == 1 reduction; gather codecs on
    the generic tile kernel) must agree with the reference."""
    index = indexes[(scheme, "l2")]
    ref_d, ref_i = ivf_search_reference(index, queries, 1, nprobe=2)
    for strategy in ("dense", "sparse"):
        with forced_strategy(index, strategy):
            d, i = index.search(queries, 1, nprobe=2)
        np.testing.assert_array_equal(i, ref_i)
        np.testing.assert_allclose(d, ref_d, rtol=1e-3, atol=5e-3)


def test_the_scan_operand_is_derived_state():
    """Structural guard: every published record — trained empty, added to
    twice, loaded, fresh, installed, compacted — carries exactly the derived
    arrays its codec × metric reads: ADC norms iff the codec's ADC wants them
    for the metric, the dimension-major scan operand iff it is a GEMM codec,
    the cell sizes and the local id → storage row map always. They are
    read-only, and ``export_state()`` exports none of them but the norms, so
    the format-5 array keys are unchanged. The operand is float32 — for SQ8 /
    SQ4 the unpacked levels, one column per stored row — so BLAS multiplies
    it as stored, and a live shard's delta operand is float32 too."""
    rng = np.random.default_rng(12)
    data = rng.normal(size=(300, NN_DIM)).astype(np.float32)
    for scheme in ("flat", "sq8", "sq4", "pq8"):
        for metric in ("l2", "ip"):
            q = make_quantizer(scheme, NN_DIM)
            index = IVFIndex(NN_DIM, metric, nlist=8, quantizer=q)
            index.train(data)
            records = [index._sealed]
            index.add(data[:200])
            records.append(index._sealed)
            index.add(data[200:])
            records.append(index._sealed)
            header, arrays = index.export_state()
            records.append(IVFIndex.from_state(header, arrays)._sealed)
            fresh = index.fresh_sealed_like()
            records.append(fresh._sealed)
            fresh.install_rows(*index.rows_by_local_id())
            records.append(fresh._sealed)
            shard = IndexShard(0, index, np.arange(300, dtype=np.int64), data.mean(0))
            shard.insert(data[:5] + 0.01, np.arange(300, 305, dtype=np.int64))
            delta = shard.delta.snapshot()
            if q.has_scan_operand:
                assert delta.operand.dtype == np.float32
                np.testing.assert_array_equal(delta.operand, q.scan_operand(delta.codes))
            else:
                assert delta.operand is None
            shard.delete(np.array([7]))
            assert shard.compact()
            records.append(shard.index._sealed)

            norms = q.needs_code_sqnorms(metric)
            for s in records:
                n = len(s.ids)
                assert (s.sqnorms is not None) == norms
                if norms:
                    np.testing.assert_array_equal(s.sqnorms, q.code_sqnorms(s.codes))
                np.testing.assert_array_equal(s.sizes, np.diff(s.offsets))
                if q.has_scan_operand:
                    assert s.operand.shape == (NN_DIM, n)
                    assert s.operand.dtype == np.float32
                    np.testing.assert_array_equal(s.operand, q.scan_operand(s.codes))
                    if scheme.startswith("sq"):
                        np.testing.assert_array_equal(s.operand, q._unpack_levels(s.codes).T)
                else:
                    assert s.operand is None
                np.testing.assert_array_equal(s.ids[s.positions], np.arange(n))
                assert s.positions.dtype == np.int32
                assert not any(
                    a.flags.writeable for a in vars(s).values() if a is not None
                )
            s = index._sealed
            assert set(arrays) == set(q.export_state()[1]) | {
                "centroids", "codes", "ids", "cell_offsets"
            } | ({"code_sqnorms"} if norms else set())
            assert not any(
                np.shares_memory(a, derived)
                for a in arrays.values()
                for derived in (s.operand, s.positions)
                if derived is not None
            )


@given(
    nq=st.integers(1, 40),
    nlist=st.integers(1, 90),
    probe=st.integers(1, 90),
    levels=st.sampled_from([2, 5, None]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(deadline=None)
def test_the_probed_cell_mask_is_the_stable_top_k_set(nq, nlist, probe, levels, seed):
    """The dense scan's probed-cell mask holds exactly the cells the stable
    ``top_k`` ranks first — ties across the cut included."""
    probe = min(probe, nlist)
    rng = np.random.default_rng(seed)
    if levels is None:
        cell_d = rng.normal(size=(nq, nlist)).astype(np.float32)
    else:
        cell_d = rng.integers(0, levels, size=(nq, nlist)).astype(np.float32)
    want = np.zeros((nq, nlist), dtype=bool)
    want[np.arange(nq)[:, np.newaxis], top_k(cell_d, probe)[1]] = True
    np.testing.assert_array_equal(_probed_cells(cell_d, probe), want)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("scheme", ["sq8", "pq8"])
def test_tied_cells_probe_like_the_reference(scheme, metric):
    """Duplicated centroids tie cells at every cut of the coarse ranking: both
    kernels must probe the cells the reference's stable ranking picks."""
    rng = np.random.default_rng(21)
    data = rng.normal(size=(600, NN_DIM)).astype(np.float32)
    index = IVFIndex(NN_DIM, metric, nlist=12, quantizer=make_quantizer(scheme, NN_DIM))
    index.train(data)
    index.centroids = np.repeat(index.centroids[:6], 2, axis=0)
    index.add(data)
    queries = data[:9] + rng.normal(scale=0.05, size=(9, NN_DIM)).astype(np.float32)
    for nprobe in (1, 3, 5):
        for k in (1, 5):
            _, ref_i = ivf_search_reference(index, queries, k, nprobe=nprobe)
            for strategy in FORCED:
                with forced_strategy(index, strategy):
                    _, ids = index.search(queries, k, nprobe=nprobe)
                np.testing.assert_array_equal(ids, ref_i)


def test_the_centroid_norms_are_derived_state():
    """Structural guard: the coarse ranking's doubled centroids and centroid
    norms are derived with the centroids — on training, on loading and on
    any reassignment — and never exported; the ranking is ``squared_l2``
    against the centroids bit for bit."""
    rng = np.random.default_rng(14)
    data = rng.normal(size=(300, NN_DIM)).astype(np.float32)
    index = IVFIndex(NN_DIM, "ip", nlist=8, quantizer=make_quantizer("sq8", NN_DIM))
    assert index._coarse is None
    index.train(data)
    index.add(data)

    def assert_derived(ix):
        doubled, norms = ix._coarse
        centroids = ix.centroids
        np.testing.assert_array_equal(doubled, 2 * centroids)
        np.testing.assert_array_equal(norms, np.einsum("ij,ij->i", centroids, centroids))
        queries = data[:5] + np.float32(0.1)
        np.testing.assert_array_equal(
            ix._cell_distances(queries, ix._workspace), squared_l2(queries, centroids)
        )

    assert_derived(index)
    header, arrays = index.export_state()
    assert set(arrays) == {"sq_vmin", "sq_scale", "centroids", "codes", "ids", "cell_offsets"}
    loaded = IVFIndex.from_state(header, arrays)
    assert_derived(loaded)
    assert_derived(index.fresh_sealed_like())
    index.centroids = index.centroids[::-1].copy()
    assert_derived(index)


def scan_buffers(index, queries, k, nprobe, dead=None):
    """``(ivf_scan span attrs, workspace keys taken, ids)`` of one search."""
    index._workspace.clear()
    tracer = enable_tracing()
    try:
        _, ids = index.search(queries, k, nprobe=nprobe, live=dead_view(index, dead))
    finally:
        disable_tracing()
    (span,) = [s for root in tracer.roots for s in root.find_all("ivf_scan")]
    return span.attrs, set(index._workspace._buffers), ids


def test_k1_sparse_scan_takes_no_candidate_buffer():
    """Structural guard: the sparse scan is the gather kernel. Its gathered
    codes, their float32 levels and the ``(nq, probed rows)`` distances are
    sized by the probe, so at k == 1 and k > 1 it takes no arena buffer
    but the coarse ranking's: never the dense scan's ``(nq, n)`` candidate
    matrix (``adc_dists``) or a kept lease. Only k == 1 tags its span
    ``reduced``."""
    rng = np.random.default_rng(11)
    data = rng.normal(size=(400, NN_DIM)).astype(np.float32)
    index = IVFIndex(NN_DIM, "ip", nlist=NN_NLIST, quantizer=make_quantizer("sq8", NN_DIM))
    index.train(data)
    index.add(data)
    queries = data[:8]

    for k in (1, 2):
        attrs, taken, _ = scan_buffers(index, queries, k, 1)
        assert attrs["strategy"] == "sparse" and attrs["reduced"] is (k == 1)
        assert taken == {"coarse_dists", "coarse_gram"}


def test_gather_codec_takes_the_one_selector():
    """Structural guard: a PQ index picks its scan by the same probed-work
    rule as every codec — sparse below the dense threshold, dense at full
    probe — counts only those two strategies, and its warm / exported state
    holds no per-code radius array."""
    rng = np.random.default_rng(13)
    data = rng.normal(size=(400, NN_DIM)).astype(np.float32)
    index = IVFIndex(NN_DIM, "l2", nlist=NN_NLIST, quantizer=make_quantizer("pq8", NN_DIM))
    index.train(data)
    index.add(data)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    tracer = enable_tracing()
    try:
        for k in (1, 5):
            for nprobe in (4, NN_NLIST):
                index.search(data[:8], k, nprobe=nprobe)
    finally:
        disable_tracing()
        set_registry(previous)
    spans = [s for root in tracer.roots for s in root.find_all("ivf_scan")]
    assert [(s.attrs["nprobe"], s.attrs["strategy"]) for s in spans] == [
        (4, "sparse"), (NN_NLIST, "dense")
    ] * 2
    scans = registry.get("ivf_scans_total").collect()
    assert scans == {(("strategy", "sparse"),): 2.0, (("strategy", "dense"),): 2.0}
    assert "code_radii" not in index.export_state()[1]


# -- deleted rows as a scan-time mask ------------------------------------------
# ``search(live=dead_view(index, D))`` sets the rows of D to inf between the
# kernel and the selection, in every strategy. Two oracles: what a live shard
# did before the mask existed — over-fetch k + |D|, drop the dead, keep the
# first k — and an index rebuilt from the surviving rows.

MASK_NLIST = 12


@functools.lru_cache(maxsize=None)
def mask_index(scheme, metric, layout):
    """``(index, rows by local id)``; built once — the examples only read it."""
    rng = np.random.default_rng(21)
    data = rng.normal(size=(360, NN_DIM)).astype(np.float32)
    if layout == "duplicates":  # every vector twice: exact ties everywhere
        data[180:] = data[:180]
    index = IVFIndex(
        NN_DIM, metric, nlist=MASK_NLIST, quantizer=make_quantizer(scheme, NN_DIM)
    )
    index.train(data)
    index.add(data)
    return index, data, index.rows_by_local_id()


def overfetch_then_filter(index, queries, k, dead, **kwargs):
    """The parent's live read, kept as the oracle: fetch ``k + |D|``, blank
    the dead in place (columns keep the scan's stable order), first ``k``."""
    dists, ids = index.search(queries, k + len(dead), **kwargs)
    gone = np.isin(ids, dead)
    dists = np.where(gone, np.inf, dists)
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    out_d = np.take_along_axis(dists, order, axis=1)
    out_i = np.where(np.isfinite(out_d), np.take_along_axis(ids, order, axis=1), -1)
    return out_d, out_i


def rebuilt_without(index, rows, dead):
    """An index over the surviving rows: same codes, same cells, no ``dead``."""
    codes, cells = rows
    live = np.setdiff1d(np.arange(len(cells)), dead)
    fresh = index.fresh_sealed_like()
    if len(live):
        fresh.install_rows(np.ascontiguousarray(codes[live]), cells[live])
    return fresh, live


def pick_dead(kind, index, rows, queries, nprobe):
    _, cells = rows
    if kind == "none":
        return np.empty(0, dtype=np.int64)
    if kind == "everything":
        return np.arange(len(cells))
    cell_d = ((queries[:, np.newaxis] - index.centroids[np.newaxis]) ** 2).sum(axis=2)
    probed = np.argsort(cell_d, axis=1, kind="stable")[:, : min(nprobe, index.nlist)]
    if kind == "winners":  # a few rows, all of them would-be answers
        _, ids = index.search(queries, 2, nprobe=nprobe)
        return np.unique(ids[ids >= 0])
    if kind == "whole_cell":  # the first query's nearest cell, emptied
        return np.flatnonzero(cells == probed[0, 0])
    assert kind == "every_probed_row"
    return np.flatnonzero(np.isin(cells, probed))


@given(
    scheme=st.sampled_from(["flat", "sq8", "sq4", "pq8"]),
    metric=st.sampled_from(METRICS),
    layout=st.sampled_from(["full", "duplicates"]),
    k=st.sampled_from([1, 3, 10]),
    nprobe=st.sampled_from([1, 8, MASK_NLIST + 3]),
    kind=st.sampled_from(
        ["none", "winners", "whole_cell", "every_probed_row", "everything"]
    ),
    nq=st.sampled_from([1, 5, 32]),
    seed=st.integers(0, 2**31 - 1),
)
def test_dead_rows_are_masked_before_selection(
    scheme, metric, layout, k, nprobe, kind, nq, seed
):
    index, data, rows = mask_index(scheme, metric, layout)
    rng = np.random.default_rng(seed)
    queries = data[rng.choice(len(data), nq)] + rng.normal(
        scale=0.05, size=(nq, NN_DIM)
    ).astype(np.float32)
    dead = pick_dead(kind, index, rows, queries, nprobe)

    got_d, got_i = index.search(queries, k, nprobe=nprobe, live=dead_view(index, dead))
    assert got_d.shape == got_i.shape == (nq, k)
    assert not np.isin(got_i, dead).any()
    np.testing.assert_array_equal(np.isfinite(got_d), got_i >= 0)
    for row in got_i:  # k distinct live rows, then padding
        assert len(set(row[row >= 0].tolist())) == (row >= 0).sum()
    if kind in ("every_probed_row", "everything"):
        assert (got_i == -1).all() and np.isinf(got_d).all()

    # (a) over-fetch-then-filter: the strategy depends on the probed work, not
    # on k, and the k == 1 reduction computes the same tiles as top-k, so the
    # answer is bit-identical for every codec.
    want_d, want_i = overfetch_then_filter(index, queries, k, dead, nprobe=nprobe)
    np.testing.assert_array_equal(got_i, want_i)
    np.testing.assert_array_equal(got_d, want_d)

    # (b) an index that never held the dead rows.
    fresh, live = rebuilt_without(index, rows, dead)
    reb_d, reb_pos = fresh.search(queries, k, nprobe=nprobe)
    reb_i = reb_pos  # all padding when nothing is live
    if len(live):
        reb_i = np.where(reb_pos >= 0, live[np.clip(reb_pos, 0, None)], -1)
    assert_same_winner_up_to_code_ties(index, data, got_i, reb_i)
    finite = np.isfinite(reb_d)
    np.testing.assert_array_equal(finite, np.isfinite(got_d))
    np.testing.assert_allclose(got_d[finite], reb_d[finite], rtol=1e-3, atol=5e-3)


@pytest.mark.parametrize("metric", METRICS)
def test_duplicate_of_a_dead_row_is_served(metric):
    """Two stored copies of every vector, the winning copy deleted: its twin
    — same code, same distance, another storage row — takes its place."""
    index, data, _ = mask_index("sq8", metric, "duplicates")
    queries = data[:6] * 1.01
    for nprobe in (1, MASK_NLIST):
        first_d, first = index.search(queries, 1, nprobe=nprobe)
        doomed = first[:, 0]
        twins = (doomed + 180) % 360
        d, i = index.search(queries, 2, nprobe=nprobe, live=dead_view(index, doomed))
        np.testing.assert_array_equal(i[:, 0], twins)
        np.testing.assert_allclose(d[:, 0], first_d[:, 0], rtol=1e-6)
        assert not np.isin(i, doomed).any()
        one_d, one_i = index.search(
            queries, 1, nprobe=nprobe, live=dead_view(index, doomed)
        )
        np.testing.assert_array_equal(one_i[:, 0], i[:, 0])
        np.testing.assert_array_equal(one_d[:, 0], d[:, 0])


def test_dead_ids_out_of_range_are_refused():
    index, _, _ = mask_index("flat", "l2", "full")
    for bad in ([360], [-1], [0, 10**6]):
        with pytest.raises(ValueError, match="dead ids"):
            index.dead_columns(np.array(bad))


def test_masked_k1_sparse_scan_stays_a_reduction():
    """Structural guard: masking does not push the nearest-neighbour scan
    onto a dense candidate matrix — still ``reduced``, still no arena
    buffer but the coarse ranking's — and a full-probe dense scan ranks no
    cells yet reports the whole index as its work."""
    rng = np.random.default_rng(11)
    data = rng.normal(size=(400, NN_DIM)).astype(np.float32)
    index = IVFIndex(NN_DIM, "ip", nlist=NN_NLIST, quantizer=make_quantizer("sq8", NN_DIM))
    index.train(data)
    index.add(data)
    queries = data[:8]
    _, winners = index.search(queries, 1, nprobe=1)

    attrs, taken, ids = scan_buffers(index, queries, 1, 1, winners[:, 0])
    assert attrs["strategy"] == "sparse" and attrs["reduced"] is True
    assert taken == {"coarse_dists", "coarse_gram"}
    assert not np.isin(ids, winners).any() and (ids >= 0).all()
    for dead in (None, winners[:, 0]):
        attrs, taken, _ = scan_buffers(index, queries, 5, NN_NLIST, dead)
        assert attrs["strategy"] == "dense" and attrs["reduced"] is False
        assert attrs["pair_work"] == len(queries) * len(data)
        assert "coarse_dists" not in taken
