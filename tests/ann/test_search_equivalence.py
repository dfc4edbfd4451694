"""Equivalence of the optimised IVF scan against the reference slow path.

The batched/compacted/ADC search engine must return *exactly* the ids the
pre-optimisation per-query path returns (distances may differ only by
float32 accumulation noise). This suite sweeps metrics, quantizers, probe
depths and batch shapes, plus the structural edge cases: empty cells,
k larger than the candidate pool, and forced non-ADC kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.ivf import IVFIndex
from repro.ann.quantization import make_quantizer
from repro.obs import disable_tracing, enable_tracing

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


def assert_matches_reference(index, queries, k, nprobe, **kwargs):
    ref_d, ref_i = index.search_reference(queries, k, nprobe=nprobe)
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
@pytest.mark.parametrize("prune", [None, True, False])
def test_fast_path_matches_reference(indexes, queries, scheme, metric, nprobe, prune):
    assert_matches_reference(
        indexes[(scheme, metric)], queries, 5, nprobe, prune=prune
    )


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_adc_matches_decode_kernel(indexes, queries, scheme, metric):
    """Forced decode-then-GEMM and ADC must rank identically."""
    index = indexes[(scheme, metric)]
    d_adc, i_adc = index.search(queries, 5, nprobe=4, use_adc=True)
    d_dec, i_dec = index.search(queries, 5, nprobe=4, use_adc=False)
    np.testing.assert_array_equal(i_adc, i_dec)
    np.testing.assert_allclose(d_adc, d_dec, rtol=1e-3, atol=5e-3)


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
    ref_d, ref_i = index.search_reference(queries, k, nprobe=2)
    fast_d, fast_i = index.search(queries, k, nprobe=2)
    np.testing.assert_array_equal(ref_i, fast_i)
    assert (fast_i == -1).any()
    assert np.isinf(fast_d[fast_i == -1]).all()


def test_dense_and_sparse_strategies_agree(data, queries):
    """Force both scan strategies on the same index and compare."""
    index = IVFIndex(DIM, "l2", nlist=16, quantizer=make_quantizer("sq8", DIM))
    index.train(data)
    index.add(data)
    advantage = index.quantizer.adc_dense_advantage
    try:
        index.quantizer.adc_dense_advantage = float("inf")  # always dense
        dense = index.search(queries, 5, nprobe=4)
        index.quantizer.adc_dense_advantage = 0.0  # always sparse
        sparse = index.search(queries, 5, nprobe=4)
    finally:
        index.quantizer.adc_dense_advantage = advantage
    np.testing.assert_array_equal(dense[1], sparse[1])
    np.testing.assert_allclose(dense[0], sparse[0], rtol=1e-3, atol=5e-3)


def test_search_after_incremental_add_matches_reference(data, queries):
    index = IVFIndex(DIM, "l2", nlist=16, quantizer=make_quantizer("sq8", DIM))
    index.train(data)
    index.add(data[:600])
    index.search(queries, 5)  # compact the first half
    index.add(data[600:])  # dirty again
    assert_matches_reference(index, queries, 5, 8)


# -- nearest-neighbour (k == 1) search: the per-cell reduction ---------------
# Sample search runs at k == 1, where the sparse scan reduces every probed
# cell to its winner instead of filling a candidate buffer. The property: it
# returns exactly what the general top-k machinery returns in column 0, and
# what the reference path returns.

NN_DIM = 16
NN_NLIST = 40  # nprobe 8 stays under the dense threshold (sparse strategy)


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
    nprobe=st.sampled_from([1, 8, NN_NLIST + 3]),
    layout=st.sampled_from(["full", "duplicates", "empty_cells", "empty_index"]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(deadline=None)
def test_nearest_neighbour_is_column_zero_of_top_k(
    scheme, metric, nq, nprobe, layout, seed
):
    index, data = nn_index(scheme, metric, layout, seed)
    rng = np.random.default_rng(seed + 1)
    queries = data[rng.choice(len(data), nq)] + rng.normal(
        scale=0.05, size=(nq, NN_DIM)
    ).astype(np.float32)

    d1, i1 = index.search(queries, 1, nprobe=nprobe)
    assert d1.shape == i1.shape == (nq, 1)
    # Same kernels, same tie-break: bit-identical to the top-k path.
    d2, i2 = index.search(queries, 2, nprobe=nprobe)
    np.testing.assert_array_equal(i1[:, 0], i2[:, 0])
    np.testing.assert_array_equal(d1[:, 0], d2[:, 0])

    ref_d, ref_i = index.search_reference(queries, 1, nprobe=nprobe)
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
    reference picks, at every probe depth."""
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
        _, ref_i = index.search_reference(queries, 1, nprobe=nprobe)
        _, i1 = index.search(queries, 1, nprobe=nprobe)
        _, i4 = index.search(queries, 4, nprobe=nprobe)
        np.testing.assert_array_equal(i1, ref_i)
        np.testing.assert_array_equal(i1[:, 0], i4[:, 0])


@pytest.mark.parametrize("scheme", ["flat", "sq8", "pq8"])
def test_k1_forced_kernels_agree(indexes, queries, scheme):
    """Forced non-ADC and forced no-prune (gather codecs on the generic
    tile kernel) take the same k == 1 reduction and must agree with it."""
    index = indexes[(scheme, "l2")]
    ref_d, ref_i = index.search_reference(queries, 1, nprobe=2)
    for kwargs in ({"use_adc": False}, {"prune": False}, {"prune": True}):
        d, i = index.search(queries, 1, nprobe=2, **kwargs)
        np.testing.assert_array_equal(i, ref_i)
        np.testing.assert_allclose(d, ref_d, rtol=1e-3, atol=5e-3)


def test_k1_sparse_scan_takes_no_candidate_buffer():
    """Structural guard: a k == 1 sparse scan never takes the padded
    ``sparse_buf`` from the workspace and tags its span ``reduced``; k > 1
    on the same probes still does (and is not tagged)."""
    rng = np.random.default_rng(11)
    data = rng.normal(size=(400, NN_DIM)).astype(np.float32)
    index = IVFIndex(NN_DIM, "ip", nlist=NN_NLIST, quantizer=make_quantizer("sq8", NN_DIM))
    index.train(data)
    index.add(data)
    queries = data[:8]

    def scan(k):
        index._workspace.clear()
        tracer = enable_tracing()
        try:
            index.search(queries, k, nprobe=4)
        finally:
            disable_tracing()
        (span,) = [s for root in tracer.roots for s in root.find_all("ivf_scan")]
        return span.attrs, set(index._workspace._buffers)

    attrs, taken = scan(1)
    assert attrs["strategy"] == "sparse" and attrs["reduced"] is True
    assert "sparse_buf" not in taken
    attrs, taken = scan(2)
    assert attrs["strategy"] == "sparse" and attrs["reduced"] is False
    assert "sparse_buf" in taken
