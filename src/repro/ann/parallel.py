"""Thread- and process-pool helpers for parallel build and search.

Index construction fans out over embarrassingly parallel units — candidate
K-means seeds, per-cluster IVF shard builds, PQ subspace codebooks. All of
them bottom out in numpy GEMMs, which release the GIL, so plain threads give
near-linear speedups on multi-core hosts without any pickling. Every unit is
seeded independently, so results are bit-identical regardless of the worker
count; the parallel-vs-serial equivalence tests pin that down.

For *search*, :class:`ProcessShardPool` adds a process-parallel fan-out over
cluster shards for hosts where the per-query Python bookkeeping (not the
GEMMs) dominates. The cost model is the opposite of the build path: shard
payloads are large and long-lived while queries are tiny, so the pool ships
each shard's arrays into POSIX shared memory exactly once, workers attach
zero-copy at startup, and a search round-trips only the query batch, the
parameters, and the ``(k, nq)`` result block. Workers rebuild read-only
:class:`~repro.ann.ivf.IVFIndex` views over the shared segments; the
exported scan state (the ADC norms) is warmed in the parent *before*
export, so a worker never writes to a segment and thread- and process-mode
results are bit-identical. State the export leaves out is derived lazily in
the worker's own memory: the GEMM codecs' scan operand on the first search,
and the position map deleted rows need (they travel with each call as the
ids to mask) on the first call that carries any.
A worker death (OOM-kill, segfault) surfaces as
:class:`~repro.core.errors.ShardCrashedError` on the in-flight search — never
a hang — and marks the pool broken for subsequent calls.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, shared_memory
from typing import Callable, Sequence, TypeVar

import numpy as np

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


# -- process-parallel shard search --------------------------------------------

#: Unique token per pool instance; keys the worker-side shard registry so two
#: pools in one parent (e.g. tests) never collide inside a reused worker.
_POOL_TOKENS = itertools.count()

#: Worker-process-global registry: token -> attached shard state. Populated by
#: the pool initializer, read by every search task.
_WORKER_POOLS: "dict[int, dict]" = {}


def _shm_export(array: np.ndarray) -> "tuple[shared_memory.SharedMemory, dict]":
    """Copy *array* into a fresh shared-memory segment (parent side)."""
    arr = np.ascontiguousarray(array)
    seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
    return seg, {"name": seg.name, "shape": arr.shape, "dtype": arr.dtype.str}


def _shm_attach(spec: dict, segments: list) -> np.ndarray:
    """Attach a read-only view of an exported segment (worker side)."""
    # Attaching re-registers the name with the (shared) resource tracker, but
    # the tracker cache is a set, so the parent's unlink-time unregister still
    # balances it — workers must NOT unregister themselves.
    seg = shared_memory.SharedMemory(name=spec["name"])
    segments.append(seg)  # keep the mmap alive as long as the views
    view = np.ndarray(tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]), buffer=seg.buf)
    view.flags.writeable = False
    return view


def _pool_worker_init(token: int, shard_specs: "list[dict]") -> None:
    """Worker initializer: attach every shard once, rebuild index views."""
    from .ivf import IVFIndex

    segments: list = []
    shards: dict = {}
    for spec in shard_specs:
        arrays = {key: _shm_attach(s, segments) for key, s in spec["arrays"].items()}
        index = IVFIndex.from_state(spec["header"], arrays)
        shards[spec["shard_id"]] = (index, arrays["global_ids"])
    _WORKER_POOLS[token] = {"shards": shards, "segments": segments}


def _pool_worker_ready(token: int) -> bool:
    """Startup probe: proves the initializer ran in this worker."""
    return token in _WORKER_POOLS


def _pool_worker_search(
    token: int,
    shard_id: int,
    queries: np.ndarray,
    k: int,
    nprobe: "int | None",
    dead: "np.ndarray | None",
    chaos_delay_s: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """One sealed-index scan inside a worker, as ``IndexShard.search`` runs it."""
    index, global_ids = _WORKER_POOLS[token]["shards"][shard_id]
    if chaos_delay_s:
        time.sleep(chaos_delay_s)  # fault-injection window for crash tests
    dists, local = index.search(queries, k, nprobe=nprobe, dead=dead)
    global_out = np.full_like(local, -1)
    valid = local >= 0
    global_out[valid] = global_ids[local[valid]]
    return dists, global_out


class ProcessShardPool:
    """Persistent worker processes searching shared-memory shard views.

    Construction takes every shard's :meth:`IVFIndex.export_state` (which
    warms the exported norms in the *parent's* shard objects, so thread-mode
    searches on the same shards stay bit-identical), copies the arrays into
    shared memory once, and spawns the workers, which attach at startup and
    rebuild each index with :meth:`IVFIndex.from_state`. ``search`` then
    ships only ``(queries, k, nprobe, dead)`` per call.

    ``generations`` maps each shard id to the compaction generation its
    arrays were exported at (read *before* the export, so a compaction racing
    the export can only make the pool look stale, never fresh): a search
    whose shard snapshot is of another generation must not use this pool.

    The pool must be :meth:`close`-d (or used as a context manager) to free
    the shared segments; a broken pool (dead worker) raises
    ``ShardCrashedError`` from every subsequent search.
    """

    def __init__(
        self,
        shards: Sequence,
        *,
        workers: "int | None" = None,
        start_timeout_s: float = 120.0,
    ) -> None:
        if not shards:
            raise ValueError("ProcessShardPool needs at least one shard")
        self._token = next(_POOL_TOKENS)
        self._segments: "list[shared_memory.SharedMemory]" = []
        self.broken = False
        self._closed = False
        self.generations = {int(s.shard_id): int(s.generation) for s in shards}
        specs = []
        try:
            for shard in shards:
                header, arrays = shard.index.export_state()
                arrays["global_ids"] = shard.global_ids
                exported = {}
                for key, arr in arrays.items():
                    seg, spec = _shm_export(arr)
                    self._segments.append(seg)
                    exported[key] = spec
                specs.append(
                    {"shard_id": shard.shard_id, "header": header, "arrays": exported}
                )
            self.shard_ids = [spec["shard_id"] for spec in specs]
            self._executor = ProcessPoolExecutor(
                max_workers=resolve_workers(workers, len(specs)),
                mp_context=get_context("spawn"),
                initializer=_pool_worker_init,
                initargs=(self._token, specs),
            )
            # Fail fast: surface initializer errors here, not on first search.
            ready = self._executor.submit(_pool_worker_ready, self._token)
            if not ready.result(timeout=start_timeout_s):
                raise RuntimeError("pool worker failed to attach shards")
        except BaseException:
            self.close()
            raise

    def search(
        self,
        shard_id: int,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: "int | None" = None,
        dead: "np.ndarray | None" = None,
        chaos_delay_s: float = 0.0,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Top-k on one shard in a worker; global ids, like ``IndexShard``.

        ``dead`` lists sealed rows (local ids) the worker's scan masks out —
        see :meth:`IVFIndex.search`. ``chaos_delay_s`` sleeps inside the
        worker before scanning — a fault-injection hook so crash tests can
        kill the worker mid-search.
        """
        from ..core.errors import ShardCrashedError

        if self._closed:
            raise RuntimeError("ProcessShardPool is closed")
        if self.broken:
            raise ShardCrashedError(shard_id, "shard worker pool is broken")
        q = np.ascontiguousarray(queries, dtype=np.float32)
        try:
            future = self._executor.submit(
                _pool_worker_search, self._token, shard_id, q, int(k), nprobe, dead,
                float(chaos_delay_s),
            )
            return future.result()
        except BrokenProcessPool as exc:
            self.broken = True
            raise ShardCrashedError(
                shard_id, f"search worker died mid-flight: {exc}"
            ) from exc

    def worker_pids(self) -> "list[int]":
        """PIDs of the live worker processes (crash-test hook)."""
        return [p.pid for p in self._executor._processes.values()]

    def close(self, *, wait: bool = True) -> None:
        """Shut the workers down and free the shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        executor = getattr(self, "_executor", None)
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
        self._segments = []

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(wait=False)
        except Exception:
            pass
