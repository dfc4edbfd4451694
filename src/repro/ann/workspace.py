"""Scratch-buffer arena for the query hot path.

Steady-state searches should do **zero large allocations**: every scan of the
same index with the same batch shape needs the same scratch arrays (ADC
lookup tables, per-cell distance tiles, top-k merge buffers), yet allocating
them per call costs page faults and allocator churn right on the latency
critical path. :class:`Workspace` is a grow-only arena keyed by buffer role:
``take(key, shape, dtype)`` returns a view of a cached backing buffer,
reallocating (geometrically) only when the request outgrows the cache.

Contract for callers:

- A view handed out by :meth:`take` is valid until the *next* ``take`` with
  the same key — never store it, and never return it to user code (copy
  final outputs out of the arena). A view that must be read after the call
  that filled it is taken with :meth:`lease` instead: its reader checks
  :meth:`holds` first.
- Buffers come back **uninitialised** unless ``fill=`` is given; callers
  overwrite what they read.
- A workspace is single-threaded scratch. Concurrent searchers each get
  their own instance (the IVF index keeps one per thread).

Hit/miss counts accumulate locally and are drained into the process metrics
registry (``workspace_hits_total`` / ``workspace_misses_total``) once per
search, keeping the per-``take`` cost to a dict lookup; the two counters are
bound once (:class:`~repro.obs.metrics.MetricHandle`), not looked up per
drain.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs.metrics import MetricHandle, MetricsRegistry

_HITS = MetricHandle(
    MetricsRegistry.counter, "workspace_hits_total", "scratch-arena buffer reuses"
)
_MISSES = MetricHandle(
    MetricsRegistry.counter, "workspace_misses_total", "scratch-arena buffer (re)allocations"
)


class Workspace:
    """Grow-only keyed scratch arena handing out sized array views.

    It holds a search's transient state only: coarse distances, ADC tables,
    distance tiles, candidate buffers and the leased dense matrix of a kept
    sample scan. What a scan multiplies against (an index's float32 scan
    operand) is derived when the index is written, never converted into an
    arena buffer per call.
    """

    __slots__ = ("_buffers", "_leases", "hits", "misses")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._leases: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def take(
        self,
        key: str,
        shape: "tuple[int, ...]",
        dtype=np.float32,
        *,
        fill=None,
        reserve: int = 0,
    ) -> np.ndarray:
        """A ``shape``-shaped view of the cached buffer for *key*.

        Grows the backing buffer geometrically on a miss so repeated
        slightly-larger requests (e.g. the widest cell of each probe chunk)
        converge to zero reallocations instead of reallocating every call.
        A miss allocates at least ``reserve`` elements: headroom for a
        request the caller knows may grow by a little.
        """
        n = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.dtype != dtype or buf.size < n:
            grow = n if buf is None or buf.dtype != dtype else max(n, 2 * buf.size)
            grow = max(grow, reserve)
            buf = np.empty(max(grow, 1), dtype=dtype)
            self._buffers[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        view = buf[:n].reshape(shape)
        if fill is not None:
            view[...] = fill
        return view

    def lease(self, key: str, shape: "tuple[int, ...]", **kwargs) -> "tuple[np.ndarray, int]":
        """:meth:`take` for a view read after the call that filled it returns,
        plus *key*'s lease number: the view stays intact exactly while
        :meth:`holds` that number, i.e. until the next lease of *key*. A key
        handed out by lease is never handed out by :meth:`take`."""
        number = self._leases[key] = self._leases.get(key, 0) + 1
        return self.take(key, shape, **kwargs), number

    def holds(self, key: str, number: int) -> bool:
        """True while the view of lease *number* of *key* is intact."""
        return self._leases.get(key) == number

    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        """Drop every cached buffer (tests / memory-pressure hook)."""
        self._buffers.clear()

    def flush_stats(self) -> None:
        """Drain accumulated hit/miss counts into the metrics registry."""
        if self.hits:
            _HITS().inc(self.hits)
            self.hits = 0
        if self.misses:
            _MISSES().inc(self.misses)
            self.misses = 0
