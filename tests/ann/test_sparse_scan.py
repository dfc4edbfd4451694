"""The gather kernel against a per-cell-loop oracle.

``IVFIndex._scan_gather`` lists each query's probed rows in storage order,
gathers their row-major codes, evaluates them in one codec call
(``Quantizer.adc_gathered``: a batched product on decoded levels for the
GEMM codecs, summed lookups for PQ / OPQ), masks pad columns and deleted
rows to ``inf``, scans a live view's delta rows as the columns after them,
and then argmin-reduces (k == 1) or runs the stable ``top_k`` (k > 1). The
oracle (``tests/oracles.py::sparse_scan_oracle``) is one ``adc_distances``
call per (query, probed row), the deleted rows blanked, the candidates
concatenated in storage order and selected by the stable ``top_k``; a live
view's delta rows are merged after it as ``live_shard_two_scan_oracle``
merges them (``tests/oracles.delta_scan_oracle``). Ids must match exactly —
rows stored as equal codes tie exactly in both, so storage order decides —
but for a sealed row and a delta row holding the same code, which two
different products evaluate (``IVFIndex._scan_gather``); distances to the
equivalence suite's tolerance (rtol 1e-3, atol 5e-3). The strategy is
forced sparse, so every example runs the gather kernel whatever the
dense / sparse rule would pick.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.delta import DeltaIndex
from repro.ann.distances import top_k
from repro.ann.ivf import IVFIndex, LiveView
from repro.ann.quantization import make_quantizer
from tests.oracles import delta_scan_oracle, forced_strategy, sparse_scan_oracle

DIM = 16
NLIST = 12
CODECS = ["flat", "sq8", "sq4", "pq8", "opq8"]


@functools.lru_cache(maxsize=None)
def grid_index(scheme, metric, layout):
    """``(index, cells by local id, data)``; built once — examples only read it.

    ``empty_cells`` stores 30 rows in 12 cells so several probed cells are
    empty; ``full`` stores 360; ``duplicates`` stores 360 with every vector
    twice, so distances tie exactly within a cell and the tie-break (storage
    order) decides the winner.
    """
    rng = np.random.default_rng(41)
    data = rng.normal(size=(360, DIM)).astype(np.float32)
    if layout == "duplicates":
        data[180:] = data[:180]
    index = IVFIndex(DIM, metric, nlist=NLIST, quantizer=make_quantizer(scheme, DIM))
    index.train(data)
    index.add(data[:30] if layout == "empty_cells" else data)
    if layout == "empty_cells":
        assert (index.list_sizes() == 0).any()
    return index, index.rows_by_local_id()[1], data


@functools.lru_cache(maxsize=None)
def grid_delta(scheme, metric, layout):
    """24 delta rows of ``grid_index``: copies of stored vectors (exact
    sealed / delta ties) and fresh ones."""
    index, _, data = grid_index(scheme, metric, layout)
    rng = np.random.default_rng(43)
    rows = np.concatenate([data[:12], rng.normal(size=(12, DIM)).astype(np.float32)])
    delta = DeltaIndex(index)
    delta.add(rows)
    return delta.snapshot()


def pick_dead(kind, index, cells, queries, rng):
    """Tombstones: none, a few random rows, or every row of the first
    query's nearest cell (a fully dead probed cell) plus a few more."""
    if kind == "none":
        return None
    some = rng.choice(len(cells), size=min(5, len(cells)), replace=False)
    if kind == "rows":
        return some
    d = ((queries[:1, np.newaxis] - index.centroids[np.newaxis]) ** 2).sum(axis=2)
    nearest = np.argsort(d[0], kind="stable")[0]
    return np.union1d(np.flatnonzero(cells == nearest), some)


def gather_search(index, queries, k, nprobe, live):
    """The forced-sparse search, after checking the plan runs the gather
    kernel."""
    with forced_strategy(index, "sparse"):
        assert index.plan(queries, nprobe=nprobe, live=live).strategy == "sparse"
        return index.search(queries, k, nprobe=nprobe, live=live)


def live_oracle(index, queries, k, nprobe, dead, delta, dead_delta):
    """The sealed oracle merged with a brute-force scan of *delta*: at
    k == 1 the delta winner replaces the sealed one only when strictly
    closer, at k > 1 one stable ``top_k`` over ``[sealed | delta]``."""
    s_d, s_i = sparse_scan_oracle(index, queries, k, nprobe=nprobe, dead=dead)
    d_d, pos = delta_scan_oracle(
        index.quantizer, index.metric, delta.codes, queries, k, dead=dead_delta
    )
    d_i = np.where(pos >= 0, index.ntotal + pos, -1)
    if k == 1:
        closer = d_d < s_d
        return np.where(closer, d_d, s_d), np.where(closer, d_i, s_i)
    out_d, cols = top_k(np.concatenate([s_d, d_d], axis=1), k)
    return out_d, np.take_along_axis(np.concatenate([s_i, d_i], axis=1), cols, axis=1)


def assert_matches(got, want, dead=(), twins=None):
    """Ids equal, distances close. With a live view, *twins* is ``(n,
    codes_of)``: a sealed id (``< n``) and a delta id may stand in each
    other's place when they hold the same code (*codes_of*: local id ->
    code row), as the sealed and the delta rows go through two products
    that may round equal codes one ulp apart."""
    got_d, got_i = got
    want_d, want_i = want
    for a, b in zip(got_i.ravel().tolist(), want_i.ravel().tolist()):
        if a != b:
            assert twins is not None, f"ids differ: {a} vs {b}"
            n, codes_of = twins
            assert min(a, b) >= 0 and (a < n) != (b < n), f"ids differ: {a} vs {b}"
            assert codes_of(a).tobytes() == codes_of(b).tobytes(), f"ids differ: {a} vs {b}"
    finite = np.isfinite(want_d)
    np.testing.assert_array_equal(np.isfinite(got_d), finite)
    np.testing.assert_array_equal(finite, got_i >= 0)
    assert not np.isin(got_i, dead).any()
    np.testing.assert_allclose(got_d[finite], want_d[finite], rtol=1e-3, atol=5e-3)


def twin_codes(index, delta):
    """``assert_matches``' *twins* of a live view over *index*."""
    sealed, n = index.rows_by_local_id()[0], index.ntotal
    return n, lambda i: sealed[i] if i < n else delta.codes[i - n]


def noisy_queries(data, nq, rng):
    return (
        data[rng.choice(len(data), nq)] + rng.normal(scale=0.3, size=(nq, DIM))
    ).astype(np.float32)


@pytest.mark.parametrize("view", ["frozen", "empty_cells", "dead_rows", "live"])
@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("nq", [1, 8, 32])
@pytest.mark.parametrize("metric", ["l2", "ip"])
@pytest.mark.parametrize("scheme", CODECS)
def test_gather_kernel_matches_the_oracle_on_the_grid(scheme, metric, nq, k, view):
    """Every codec × metric × batch × k, on a frozen index, one with empty
    probed cells, one with dead sealed rows (a whole probed cell among
    them) and a live view whose dead rows are sealed and delta rows."""
    layout = "empty_cells" if view == "empty_cells" else "full"
    index, cells, data = grid_index(scheme, metric, layout)
    rng = np.random.default_rng(nq * 10 + k)
    queries = noisy_queries(data, nq, rng)
    dead = None if view in ("frozen", "empty_cells") else pick_dead(
        "whole_cell", index, cells, queries, rng
    )
    if view == "live":
        delta = grid_delta(scheme, metric, layout)
        dead_delta = np.array([0, 5, 13])
        dead_ids = np.concatenate([dead, index.ntotal + dead_delta])
        live = LiveView(index.dead_columns(dead_ids, delta.ntotal), delta)
        want = live_oracle(index, queries, k, 3, dead, delta, dead_delta)
        twins = twin_codes(index, delta)
    else:
        live = None if dead is None else LiveView(index.dead_columns(dead))
        dead_ids = () if dead is None else dead
        want = sparse_scan_oracle(index, queries, k, nprobe=3, dead=dead)
        twins = None
    got = gather_search(index, queries, k, 3, live)
    assert_matches(got, want, dead_ids, twins)


@given(
    scheme=st.sampled_from(CODECS),
    metric=st.sampled_from(["ip", "l2"]),
    k=st.sampled_from([1, 2, 10]),
    nq=st.sampled_from([1, 7, 32]),
    nprobe=st.sampled_from([1, 3, 8]),
    layout=st.sampled_from(["full", "duplicates", "empty_cells"]),
    dead_kind=st.sampled_from(["none", "rows", "whole_cell"]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(deadline=None)
def test_gather_kernel_matches_the_per_cell_loop(
    scheme, metric, k, nq, nprobe, layout, dead_kind, seed
):
    index, cells, data = grid_index(scheme, metric, layout)
    rng = np.random.default_rng(seed)
    queries = noisy_queries(data, nq, rng)
    dead = pick_dead(dead_kind, index, cells, queries, rng)

    live = None if dead is None else LiveView(index.dead_columns(dead))
    got = gather_search(index, queries, k, nprobe, live)
    want = sparse_scan_oracle(index, queries, k, nprobe=nprobe, dead=dead)
    assert_matches(got, want, () if dead is None else dead)
