"""The cell-grouped sparse scan against a per-cell-loop oracle.

``IVFIndex._scan_sparse`` evaluates every probed cell as one tile of a
batched kernel (one matmul over windows of the scan operand for the GEMM
codecs, the per-cell loop for PQ/OPQ), masks pad columns and deleted rows to
``inf``, and then argmin-reduces (k == 1) or selects from a slot-major
buffer (k > 1). The oracle (``tests/oracles.py::sparse_scan_oracle``) is one
``adc_distances`` call per (query, probed cell), the deleted rows blanked,
the candidates concatenated in probe order and selected by the stable
``top_k``. Ids must match exactly; distances to float32 reassociation
(rtol 1e-5). The strategy is forced sparse so every example exercises the
grouped kernel, whatever the dense/sparse rule would pick.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.ivf import IVFIndex
from repro.ann.quantization import make_quantizer
from tests.oracles import dead_view, forced_strategy, sparse_scan_oracle

DIM = 16
NLIST = 12


@functools.lru_cache(maxsize=None)
def grid_index(scheme, metric, layout):
    """``(index, cells by local id, data)``; built once — examples only read it.

    ``empty_cells`` stores 30 rows in 12 cells so several probed cells are
    empty; ``full`` stores 360; ``duplicates`` stores 360 with every vector
    twice, so distances tie exactly within a cell and the tie-break (probe
    slot, then position in the cell) decides the winner.
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


@given(
    scheme=st.sampled_from(["flat", "sq8", "sq4", "pq8", "opq8"]),
    metric=st.sampled_from(["ip", "l2"]),
    k=st.sampled_from([1, 2, 10]),
    nq=st.sampled_from([1, 7, 32]),
    nprobe=st.sampled_from([1, 3, 8]),
    layout=st.sampled_from(["full", "duplicates", "empty_cells"]),
    dead_kind=st.sampled_from(["none", "rows", "whole_cell"]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(deadline=None)
def test_grouped_kernel_matches_the_per_cell_loop(
    scheme, metric, k, nq, nprobe, layout, dead_kind, seed
):
    index, cells, data = grid_index(scheme, metric, layout)
    rng = np.random.default_rng(seed)
    queries = (
        data[rng.choice(len(data), nq)] + rng.normal(scale=0.3, size=(nq, DIM))
    ).astype(np.float32)
    dead = pick_dead(dead_kind, index, cells, queries, rng)

    with forced_strategy(index, "sparse"):
        got_d, got_i = index.search(
            queries, k, nprobe=nprobe, live=dead_view(index, dead)
        )
    want_d, want_i = sparse_scan_oracle(index, queries, k, nprobe=nprobe, dead=dead)

    np.testing.assert_array_equal(got_i, want_i)
    finite = np.isfinite(want_d)
    np.testing.assert_array_equal(np.isfinite(got_d), finite)
    if dead is not None:
        assert not np.isin(got_i, dead).any()
    # rtol for the products; a small absolute term for L2's |q|^2 + shifted
    # cancellation near zero distance.
    scale = float(np.abs(want_d[finite]).max(initial=1.0))
    np.testing.assert_allclose(
        got_d[finite], want_d[finite], rtol=1e-5, atol=1e-6 * scale
    )
