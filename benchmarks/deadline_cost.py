"""What a request deadline costs a searched batch.

Every queued ``serve_zipf`` miss carries a request deadline, and the
searcher hands each deep-search attempt that deadline as the shard call's
``timeout_s``. A deadline that does not bind should cost nothing and change
nothing. This bench builds a ``make_corpus`` datastore (40 k x 64,
``HermesConfig(k=10)``, one BLAS thread) and times
``HermesSearcher.search(q)`` against ``search(q, deadline_s=30)`` in
alternating pairs — the order flips every pair, so slow phases of a noisy
host hit both sides — at batch 1 and batch 32. It prints each side's median
and how many pairs the deadline side was slower in, and exits 1 if any
pair's ``ids`` or ``distances`` differ.

Run from the repository root::

    python benchmarks/deadline_cost.py            # 400 + 120 pairs, ~6 s
    python benchmarks/deadline_cost.py --quick    # 2 000 docs, 20 + 20 pairs, ~1 s
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads, as the benchmark suite does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.setdefault("HERMES_BUILD_CACHE", "0")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.core.clustering import cluster_datastore  # noqa: E402
from repro.core.config import HermesConfig  # noqa: E402
from repro.core.hierarchical import HermesSearcher  # noqa: E402
from repro.datastore.embeddings import make_corpus  # noqa: E402
from repro.datastore.queries import trivia_queries  # noqa: E402

DEADLINE_S = 30.0
DOCS, PAIRS = 40_000, (400, 120)  # pairs at batch 1, batch 32
QUICK_DOCS, QUICK_PAIRS = 2_000, (20, 20)


def paired(searcher, pool, batch, pairs):
    """``(seconds without, seconds with, pairs whose answers differ)``."""
    times = np.empty((pairs, 2))
    mismatches = 0
    for i in range(pairs):
        start = (i * batch) % (len(pool) - batch + 1)
        q = pool[start : start + batch]
        results = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            deadline = DEADLINE_S if side else None
            t0 = time.perf_counter()
            results[side] = searcher.search(q, deadline_s=deadline)
            times[i, side] = time.perf_counter() - t0
        plain, timed = results
        if not (
            np.array_equal(plain.ids, timed.ids)
            and np.array_equal(plain.distances, timed.distances)
        ):
            mismatches += 1
    return times[:, 0], times[:, 1], mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="2 000 docs, 20 pairs")
    args = parser.parse_args(argv)
    docs, pairs = (QUICK_DOCS, QUICK_PAIRS) if args.quick else (DOCS, PAIRS)

    corpus = make_corpus(docs, dim=64, seed=1)
    store = cluster_datastore(corpus.embeddings, HermesConfig(k=10))
    searcher = HermesSearcher(store)
    pool = trivia_queries(corpus.topic_model, 512, seed=8).embeddings
    searcher.search(pool[:32])  # warm the scratch arenas

    print(f"{docs} docs x 64, k = 10, deadline_s = {DEADLINE_S:g} on one side")
    print(f"{'batch':>5} {'pairs':>5} {'no deadline ms':>14} {'deadline ms':>11} "
          f"{'deadline slower':>15} {'answers differ':>14}")
    failed = False
    for batch, n in zip((1, 32), pairs):
        plain, timed, mismatches = paired(searcher, pool, batch, n)
        slower = int((timed > plain).sum())
        print(f"{batch:>5} {n:>5} {np.median(plain) * 1e3:>14.2f} "
              f"{np.median(timed) * 1e3:>11.2f} {f'{slower}/{n}':>15} {mismatches:>14}")
        failed |= mismatches > 0
    if failed:
        print("FAIL: a deadline changed a search answer")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
