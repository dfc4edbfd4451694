"""The scan plan: one function picks how an IVF search scans.

- The dense / sparse rule (:func:`repro.ann.ivf.dense_wins`) keeps its tie
  contract, checked without building an index.
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
from repro.obs import disable_tracing, enable_tracing
from tests.oracles import forced_strategy

DIM = 16
NLIST = 12
PROBES = {"one": 1, "mid": NLIST // 2, "full": NLIST}


def test_a_tie_goes_dense():
    """``advantage × pair_work == nq × n_codes`` is dense; one pair less is
    sparse."""
    for advantage, pair_work in ((12.0, 96), (1.0, 1152), (4.5, 256)):
        assert advantage * pair_work == 4 * 288
        assert dense_wins(pair_work, 4, 288, False, advantage)
        assert not dense_wins(pair_work - 1, 4, 288, False, advantage)


def test_a_full_probe_is_dense_without_ranking_the_cells():
    """At ``advantage >= 1`` a full probe is dense whatever the pair work
    says, so the plan ranks no cell; below 1 the work decides."""
    for advantage in (1.0, 12.0, float("inf")):
        assert dense_wins(0, 32, 1000, True, advantage)
    assert not dense_wins(32 * 1000, 32, 1000, True, 0.5)

    index, data = frozen_index("sq8")
    index._workspace.clear()
    plan = index.plan(data[:8], nprobe=NLIST + 3)
    assert (plan.strategy, plan.probes, plan.pair_work) == ("dense", None, 8 * len(data))
    assert "coarse_dists" not in index._workspace._buffers


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
