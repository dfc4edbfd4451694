"""The scan plan: one function picks how an IVF search scans.

- The dense / sparse rule (:func:`repro.ann.ivf.dense_wins`) keeps its tie
  contract, checked without building an index: dense once the probed pairs
  reach ``rows * (row + nq * pair)``, so a growing batch moves the
  crossover to smaller probes. A full probe is dense without consulting
  it.
- At the suite's operating point a batch-1 sample plans the gather kernel
  and keeps nothing, a batch-32 one plans dense and keeps.
- :meth:`IVFIndex.plan` is what a search runs: its strategy and probed work
  are the ``ivf_scan`` span's, over codecs × batch × probe × frozen / live
  index × kept hand-over (empty, of this cut, of another cut).
- ``k`` is checked once, before any scan path runs.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.ann.delta import DeltaIndex
from repro.ann.ivf import IVFIndex, KeptScan, LiveView, dense_wins
from repro.ann.quantization import make_quantizer
from repro.datastore.embeddings import make_corpus
from repro.obs import disable_tracing, enable_tracing
from tests.oracles import forced_strategy

DIM = 16
NLIST = 12
PROBES = {"one": 1, "mid": NLIST // 2, "full": NLIST}


def test_a_tie_goes_dense():
    """``pair_work == n_rows * (row + nq * pair)`` is dense; one pair less is
    sparse. At one probed share the batch decides: the dense kernel reads
    its operand once per batch, so batch 1 gathers and batch 32 goes dense."""
    for costs, nq, n in (((0.375, 0.0625), 1, 512), ((0.5, 0.25), 4, 288), ((0.0, 1.0), 4, 288)):
        tie = n * (costs[0] + nq * costs[1])
        assert tie == int(tie)
        assert dense_wins(int(tie), nq, n, costs)
        assert not dense_wins(int(tie) - 1, nq, n, costs)
    costs = make_quantizer("sq8", DIM).dense_costs
    rows_probed = 140  # of 1000 per query: nprobe 8 of 56 cells
    assert not dense_wins(rows_probed, 1, 1000, costs)
    assert dense_wins(32 * rows_probed, 32, 1000, costs)


def test_a_full_probe_is_dense_without_ranking_the_cells():
    """A full probe is dense whatever the codec's costs say — forced sparse
    included — so the plan ranks no cell."""
    index, data = frozen_index("sq8")
    for strategy in ("rule", "sparse"):
        index._workspace.clear()
        with forced_strategy(index, strategy):
            plan = index.plan(data[:8], nprobe=NLIST + 3)
        assert (plan.strategy, plan.probes, plan.pair_work) == ("dense", None, 8 * len(data))
        assert "coarse_dists" not in index._workspace._buffers


@functools.lru_cache(maxsize=None)
def suite_shard():
    """An SQ8 inner-product shard of the suite's shape: about 3,200 rows of
    64 dimensions in 56 cells, the size of a ``serve_zipf`` shard."""
    corpus = make_corpus(3_200, dim=64, seed=3)
    index = IVFIndex(64, "ip", nlist=56, quantizer=make_quantizer("sq8", 64))
    index.train(corpus.embeddings)
    index.add(corpus.embeddings)
    return index, corpus.embeddings


@pytest.mark.parametrize("nq", [1, 32])
def test_a_batch_1_sample_gathers_and_a_batch_32_sample_keeps(nq):
    """At nprobe 8 of 56 cells a batch-1 sample plans the gather kernel and
    keeps nothing for its deep call; a batch-32 sample plans dense and
    keeps its matrix, which the deep call at a full probe selects from."""
    index, data = suite_shard()
    rng = np.random.default_rng(nq)
    queries = (data[rng.choice(len(data), nq)] + 0.05).astype(np.float32)
    kept = KeptScan()
    plan = index.plan(queries, nprobe=8, kept=kept)
    assert plan.pair_work < nq * len(data) / 4
    index.search(queries, 1, nprobe=8, kept=kept)
    if nq == 1:
        assert plan.strategy == "sparse" and plan.kept is None
        assert kept.dists is None
    else:
        assert plan.strategy == "dense" and plan.kept is kept
        assert kept.dists.shape == (nq, len(data))
        deep = index.plan(queries, nprobe=56, kept=kept)
        assert deep.strategy == "kept"


@functools.lru_cache(maxsize=None)
def frozen_index(codec):
    """``(index, its rows)``; built once — the tests only search it."""
    rng = np.random.default_rng(5)
    centers = rng.normal(scale=3, size=(8, DIM))
    data = (centers[rng.integers(0, 8, 600)] + rng.normal(size=(600, DIM))).astype(np.float32)
    index = IVFIndex(DIM, "l2", nlist=NLIST, quantizer=make_quantizer(codec, DIM))
    index.train(data)
    index.add(data)
    return index, data


@functools.lru_cache(maxsize=None)
def live_view(codec):
    """A live view of ``frozen_index(codec)``: 40 delta rows, some sealed and
    some delta rows dead."""
    index, data = frozen_index(codec)
    delta = DeltaIndex(index)
    delta.add(data[:40] + 0.01)
    dead = np.array([0, 5, 77, 300, len(data) + 3])
    return LiveView(index.dead_columns(dead, delta.ntotal), delta.snapshot())


def filled_kept(index, queries, live):
    """A kept scan filled by a forced-dense sample of *queries* on *live*."""
    kept = KeptScan()
    with forced_strategy(index, "dense"):
        index.search(queries, 1, nprobe=1, live=live, kept=kept)
    assert kept.dists is not None
    return kept


def traced_scan(index, queries, k, **kwargs):
    """The one ``ivf_scan`` span of a search."""
    tracer = enable_tracing()
    try:
        index.search(queries, k, **kwargs)
    finally:
        disable_tracing()
    (span,) = [s for root in tracer.roots for s in root.find_all("ivf_scan")]
    return span


@pytest.mark.parametrize("kept_kind", ["empty", "matching", "stale"])
@pytest.mark.parametrize("cut", ["frozen", "live"])
@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("nq", [1, 7, 32])
@pytest.mark.parametrize("codec", ["flat", "sq8", "pq8"])
def test_the_plan_is_what_the_search_runs(codec, nq, probe, cut, kept_kind):
    index, data = frozen_index(codec)
    live = None if cut == "frozen" else live_view(codec)
    queries = data[-nq:] + np.float32(0.05)
    if kept_kind == "empty":
        kept = KeptScan()
    elif kept_kind == "matching":
        kept = filled_kept(index, queries, live)
    else:  # the same rows, but another view object: another cut
        other = LiveView(np.empty(0, dtype=np.int64)) if live is None else LiveView(*live)
        kept = filled_kept(index, queries, other)

    plan = index.plan(queries, nprobe=PROBES[probe], live=live, kept=kept)
    span = traced_scan(index, queries, 5, nprobe=PROBES[probe], live=live, kept=kept)
    assert (span.attrs["strategy"], span.attrs["pair_work"]) == (
        plan.strategy, plan.pair_work
    )
    assert (plan.strategy == "kept") == (kept_kind == "matching")


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("path", ["dense", "sparse", "kept", "empty", "live"])
def test_k_must_be_positive_on_every_path(path, k):
    """A ``k`` below 1 is refused before any path runs, as ``FlatIndex``
    refuses it — not reduced to one neighbour, not a numpy shape error."""
    index, data = frozen_index("sq8")
    queries = data[:4]
    kwargs = {"nprobe": 2}
    strategy = "rule"
    if path in ("dense", "sparse"):
        strategy = path
    elif path == "kept":
        kwargs["kept"] = filled_kept(index, queries, None)
    elif path == "live":
        kwargs["live"] = live_view("sq8")
    else:
        index = index.fresh_sealed_like()
    with forced_strategy(index, strategy):
        if path != "empty":  # the path a valid k takes
            plan = index.plan(queries, **kwargs)
            assert path == "live" or plan.strategy == path
        with pytest.raises(ValueError, match="k must be positive"):
            index.search(queries, k, **kwargs)
