"""Thread-pool helpers for parallel index construction.

Index construction fans out over embarrassingly parallel units — candidate
K-means seeds, per-cluster IVF shard builds, PQ subspace codebooks. All of
them bottom out in numpy GEMMs, which release the GIL, so plain threads give
near-linear speedups on multi-core hosts without any pickling. Every unit is
seeded independently, so results are bit-identical regardless of the worker
count; the parallel-vs-serial equivalence tests pin that down.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def resolve_workers(workers: "int | None", n_tasks: int) -> int:
    """Effective worker count: ``None`` means one per task up to the CPUs."""
    if n_tasks <= 0:
        return 1
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    return max(1, min(workers, n_tasks))


def run_tasks(tasks: Sequence[Callable[[], T]], workers: "int | None" = None) -> "list[T]":
    """Run *tasks* and return their results in task order.

    With one effective worker the pool is skipped entirely, keeping serial
    runs free of executor overhead (and of confusing profiles/tracebacks).
    """
    n = resolve_workers(workers, len(tasks))
    if n == 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=n) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]
