"""Dense / sparse crossover of the IVF scan for the GEMM codecs.

``IVFIndex`` scans a batch one of two ways: the cell-grouped sparse kernel
over the probed cells only, or one dense kernel over every stored code with
unprobed cells masked. Its scan plan (``IVFIndex.plan``) counts the probed
work and ``repro.ann.ivf.dense_wins`` picks the kernel from it and the
codec's ``adc_dense_advantage``; the *coverage ratio* ``r = nq * n_codes /
pair_work`` says how far a scan is from probing everything. This bench times
both kernels, forced, on every shard of a ``make_corpus`` datastore (40 k x
64, one BLAS thread) over batch 1 / 8 / 32 x nprobe 1..64 x k 1 / 10, and
reports the advantage that minimises the grid's total time when every shard
takes the kernel the rule picks for it. ``--quantization`` picks the GEMM
codec (SQ8, the production codec, by default; flat or SQ4).

Run from the repository root::

    python benchmarks/scan_crossover.py                     # SQ8 grid, ~15 s
    python benchmarks/scan_crossover.py --quantization sq4  # flat / sq4
    python benchmarks/scan_crossover.py --quick             # 2 000 docs, smoke run

Dense and sparse are timed alternately on the same shard, so slow phases of
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


def rule_inputs(index, queries, nprobe):
    """The dense / sparse rule's inputs but the advantage, for one scan:
    ``(pair_work, nq, n_codes, full probe)``, the work from the index's plan."""
    plan = index.plan(queries, nprobe=nprobe)
    return plan.pair_work, len(queries), index.ntotal, nprobe >= index.nlist


def time_both(index, queries, k, nprobe, repeats):
    """Per-repeat seconds of the forced sparse and forced dense scans."""
    times = np.empty((repeats, 2))
    for r in range(repeats):
        for col, forced in enumerate((0.0, np.inf)):
            with mock.patch.object(index.quantizer, "adc_dense_advantage", forced):
                t0 = time.perf_counter()
                index.search(queries, k, nprobe=nprobe)
                times[r, col] = time.perf_counter() - t0
    return times


def coverage_ratio(shard):
    """``r = nq * n_codes / pair_work`` of one scan's rule inputs."""
    pair_work, nq, n_codes, _ = shard
    return nq * n_codes / max(pair_work, 1)


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


def rule_time(inputs, per_shard, advantage):
    """Per-repeat total seconds when each shard takes the rule's kernel."""
    dense = np.array([dense_wins(*shard, advantage) for shard in inputs])
    picked = np.where(dense[:, np.newaxis], per_shard[:, :, 1], per_shard[:, :, 0])
    return np.median(picked.sum(axis=0))


def grid_seconds(rows, advantage):
    """Total seconds of the grid when the rule picks with ``advantage``."""
    return sum(rule_time(inputs, per_shard, advantage) for *_, inputs, per_shard in rows)


def best_advantage(rows):
    """The advantage, among the measured ratios, with the least grid time."""
    ratios = {coverage_ratio(shard) for *_, inputs, _ in rows for shard in inputs}
    candidates = [1.0] + [r * 1.0001 for r in sorted(ratios) if r >= 1.0]
    return min((grid_seconds(rows, a), a) for a in candidates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="2 000 docs, 3 repeats")
    parser.add_argument("--docs", type=int, default=40_000)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--quantization", choices=GEMM_CODECS, default="sq8")
    args = parser.parse_args(argv)
    docs, repeats = (2_000, 3) if args.quick else (args.docs, args.repeats)
    rows = sweep(docs, repeats, args.quantization)

    print(f"codec {args.quantization}, {docs} docs x 64")
    print(f"{'batch':>5} {'nprobe':>6} {'k':>3} {'r':>6} {'sparse ms':>10} "
          f"{'dense ms':>9}  faster")
    for nq, nprobe, k, inputs, per_shard in rows:
        sparse, dense = (np.median(per_shard[:, :, c].sum(axis=0)) * 1e3 for c in (0, 1))
        ratio = 1.0 / np.mean([1.0 / coverage_ratio(shard) for shard in inputs])
        print(f"{nq:>5} {nprobe:>6} {k:>3} {ratio:>6.2f} {sparse:>10.2f} "
              f"{dense:>9.2f}  {'dense' if dense < sparse else 'sparse'}")
    seconds, advantage = best_advantage(rows)
    current = make_quantizer(args.quantization, 64).adc_dense_advantage
    ideal = sum(
        min(np.median(per_shard[:, :, c].sum(axis=0)) for c in (0, 1))
        for *_, per_shard in rows
    )
    print("\nr = batch * codes / probed codes (harmonic mean over shards); "
          "the rule goes dense when r <= advantage")
    print(f"grid total, faster kernel per configuration: {ideal * 1e3:.1f} ms")
    print(f"best advantage {advantage:.2f}: grid total {seconds * 1e3:.1f} ms")
    print(f"current advantage {current:.2f}: grid total "
          f"{grid_seconds(rows, current) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
