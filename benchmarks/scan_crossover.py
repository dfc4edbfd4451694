"""Dense / gather crossover of the IVF scan for the GEMM codecs.

``IVFIndex`` scans a batch one of two ways: the gather kernel, which reads
each query's probed rows of the row-major codes, or one dense kernel over
every stored row's float32 operand with unprobed cells masked. Its scan plan
(``IVFIndex.plan``) counts the probed (query, row) pairs and
``repro.ann.ivf.dense_wins`` goes dense once ``pair_work >= n_rows * (row +
nq * pair)``, ``(row, pair)`` being the codec's ``dense_costs``: the dense
kernel's cost per stored row (its operand is read once per batch) and per
(query, row) pair, in units of one gathered pair. This bench times both
kernels, forced, on every shard of a ``make_corpus`` datastore (40 k x 64,
one BLAS thread) over batch 1 / 8 / 32 x nprobe 1..64 x k 1 / 10, fits the
``(row, pair)`` that minimises the grid's total time when every shard takes
the kernel the rule picks for it, and prints both. A grid cell is flagged
(``!``) where the codec's current constants pick a kernel slower than the
faster forced one by more than the spread (interquartile range) of that
kernel's own repeats. ``--quantization`` picks the GEMM codec (SQ8, the
production codec, by default; flat or SQ4).

Run from the repository root::

    python benchmarks/scan_crossover.py                     # SQ8 grid, ~1 min
    python benchmarks/scan_crossover.py --quantization sq4  # flat / sq4
    python benchmarks/scan_crossover.py --quick             # 2 000 docs, smoke run

Dense and gather are timed alternately on the same shard, so slow phases of
a noisy host hit both; each cell of the table is the median over repeats of
the per-repeat sum over shards.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from unittest import mock

# One BLAS thread, set before numpy loads, as the benchmark suite does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.setdefault("HERMES_BUILD_CACHE", "0")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.ann.ivf import dense_wins  # noqa: E402
from repro.ann.quantization import make_quantizer  # noqa: E402
from repro.core.clustering import cluster_datastore  # noqa: E402
from repro.core.config import HermesConfig  # noqa: E402
from repro.datastore.embeddings import make_corpus  # noqa: E402
from repro.datastore.queries import trivia_queries  # noqa: E402

BATCHES = (1, 8, 32)
NPROBES = (1, 2, 4, 8, 16, 32, 64)
KS = (1, 10)
GEMM_CODECS = ("sq8", "flat", "sq4")
#: ``dense_costs`` that force one kernel short of a full probe.
FORCE = {"gather": (np.inf, np.inf), "dense": (0.0, 0.0)}
#: The ``(row, pair)`` candidates the fit searches.
ROW_COSTS = np.concatenate([[0.0], np.geomspace(0.01, 20.0, 60)])
PAIR_COSTS = np.concatenate([[0.0], np.geomspace(0.001, 2.0, 60)])


def rule_inputs(index, queries, nprobe):
    """The dense / sparse rule's inputs but the costs, for one scan:
    ``(pair_work, nq, n_rows, full probe)``, the work from the index's plan."""
    plan = index.plan(queries, nprobe=nprobe)
    return plan.pair_work, len(queries), index.ntotal, nprobe >= index.nlist


def time_both(index, queries, k, nprobe, repeats):
    """Per-repeat seconds of the forced gather and forced dense scans."""
    times = np.empty((repeats, 2))
    for r in range(repeats):
        for col, forced in enumerate(FORCE.values()):
            with mock.patch.object(index.quantizer, "dense_costs", forced):
                t0 = time.perf_counter()
                index.search(queries, k, nprobe=nprobe)
                times[r, col] = time.perf_counter() - t0
    return times


def sweep(docs, repeats, quantization, seed=1):
    corpus = make_corpus(docs, dim=64, seed=seed)
    store = cluster_datastore(corpus.embeddings, HermesConfig(quantization=quantization))
    indexes = [shard.index for shard in store.shards]
    pool = trivia_queries(corpus.topic_model, max(BATCHES), seed=seed + 7).embeddings
    rows = []
    for nq in BATCHES:
        queries = pool[:nq]
        for nprobe in NPROBES:
            for k in KS:
                inputs = [rule_inputs(ix, queries, nprobe) for ix in indexes]
                per_shard = [time_both(ix, queries, k, nprobe, repeats) for ix in indexes]
                rows.append((nq, nprobe, k, inputs, np.stack(per_shard)))
    return rows


def picks(inputs, costs):
    """Per shard, True where the plan with *costs* goes dense: at a full
    probe, as ``IVFIndex.plan`` does, without asking the rule."""
    return np.array(
        [full or dense_wins(pw, nq, n, costs) for pw, nq, n, full in inputs]
    )


def per_repeat(per_shard, dense):
    """Per-repeat total seconds when shard ``i`` takes dense iff ``dense[i]``."""
    picked = np.where(dense[:, np.newaxis], per_shard[:, :, 1], per_shard[:, :, 0])
    return picked.sum(axis=0)


def grid_seconds(rows, costs):
    """Total seconds of the grid when the rule picks with *costs*."""
    return sum(
        np.median(per_repeat(per_shard, picks(inputs, costs)))
        for *_, inputs, per_shard in rows
    )


def fit_costs(rows):
    """The ``(row, pair)`` among the candidates with the least grid time.

    The rule goes dense iff ``pair_work / n_rows >= row + nq * pair`` (or at
    a full probe), so each candidate's picks come from one comparison per
    shard; ties in grid time go to the smaller constants."""
    x = np.array([[pw / max(n, 1) for pw, _, n, _ in inputs] for *_, inputs, _ in rows])
    nq = np.array([[s[1] for s in inputs] for *_, inputs, _ in rows])
    full = np.array([[s[3] for s in inputs] for *_, inputs, _ in rows])
    times = np.stack([per_shard for *_, per_shard in rows])  # (cell, shard, repeat, 2)
    best = None
    for row in ROW_COSTS:
        for pair in PAIR_COSTS:
            dense = full | (x >= row + nq * pair)
            picked = np.where(dense[:, :, np.newaxis], times[..., 1], times[..., 0])
            total = np.median(picked.sum(axis=1), axis=1).sum()
            if best is None or total < best[0]:
                best = (total, (float(row), float(pair)))
    return best


def iqr(values):
    q1, q3 = np.percentile(values, [25, 75])
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="2 000 docs, 3 repeats")
    parser.add_argument("--docs", type=int, default=40_000)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--quantization", choices=GEMM_CODECS, default="sq8")
    args = parser.parse_args(argv)
    docs, repeats = (2_000, 3) if args.quick else (args.docs, args.repeats)
    rows = sweep(docs, repeats, args.quantization)
    current = make_quantizer(args.quantization, 64).dense_costs

    print(f"codec {args.quantization}, {docs} docs x 64, current dense_costs {current}")
    print(f"{'batch':>5} {'nprobe':>6} {'k':>3} {'probed':>6} {'gather ms':>10} "
          f"{'dense ms':>9} {'rule ms':>8} {'dense/10':>8}")
    flagged = 0
    for nq, nprobe, k, inputs, per_shard in rows:
        totals = [per_shard[:, :, c].sum(axis=0) for c in (0, 1)]
        gather, dense = (np.median(t) for t in totals)
        dense_picks = picks(inputs, current)
        rule = np.median(per_repeat(per_shard, dense_picks))
        fastest = int(dense < gather)
        slow = rule > min(gather, dense) + iqr(totals[fastest])
        flagged += slow
        share = np.mean([pw / (q * n) for pw, q, n, _ in inputs])
        print(f"{nq:>5} {nprobe:>6} {k:>3} {share:>6.3f} {gather * 1e3:>10.2f} "
              f"{dense * 1e3:>9.2f} {rule * 1e3:>8.2f} {int(dense_picks.sum()):>8d}"
              f"{'  !' if slow else ''}")
    seconds, fitted = fit_costs(rows)
    ideal = sum(
        min(np.median(per_shard[:, :, c].sum(axis=0)) for c in (0, 1))
        for *_, per_shard in rows
    )
    print("\nprobed = probed pairs / (batch * rows), mean over shards; dense/10 = "
          "shards the current rule sends dense; ! = the rule's pick is slower "
          "than the faster kernel by more than that kernel's repeat IQR")
    print(f"flagged cells: {flagged} of {len(rows)}")
    print(f"grid total, faster kernel per configuration: {ideal * 1e3:.1f} ms")
    print(f"fitted dense_costs (row, pair) = ({fitted[0]:.3g}, {fitted[1]:.3g}): "
          f"grid total {seconds * 1e3:.1f} ms")
    print(f"current dense_costs {current}: grid total "
          f"{grid_seconds(rows, current) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
