"""Discrete-event simulation core for the online serving simulator.

A minimal but complete event-driven engine: a clock, a priority queue of
timestamped events, and single-capacity resources with FIFO waiting. The
serving pipeline (:mod:`repro.serving.simulator`) builds on these to model
batches flowing through encode → sample → deep-search → prefill → decode
stages concurrently, the execution the paper's closed-form "max of stage
times" throughput analysis approximates.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class EventLoop:
    """Timestamped-event executor with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._queue: list[_Event] = []
        self._seq = itertools.count()
        self.now = 0.0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run *action* ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(self._queue, _Event(self.now + delay, next(self._seq), action))

    def run(self, *, until: float | None = None, max_events: int = 1_000_000) -> None:
        """Drain the event queue (optionally stopping at time *until*).

        ``max_events`` guards against accidental infinite self-scheduling.
        """
        executed = 0
        while self._queue:
            if executed >= max_events:
                raise RuntimeError(f"exceeded {max_events} events; runaway simulation?")
            event = self._queue[0]
            if until is not None and event.time > until:
                self.now = until
                return
            heapq.heappop(self._queue)
            self.now = event.time
            event.action()
            executed += 1

    @property
    def pending(self) -> int:
        return len(self._queue)


class Resource:
    """A serially reusable resource (one GPU, one retrieval node) with FIFO queueing.

    ``acquire`` either grants immediately or enqueues the continuation; the
    holder calls ``release`` when its work completes. Busy time is accumulated
    for utilization accounting.
    """

    def __init__(self, loop: EventLoop, name: str) -> None:
        self.loop = loop
        self.name = name
        self._busy = False
        self._waiting: list[Callable[[], None]] = []
        self.busy_seconds = 0.0
        self._acquired_at = 0.0

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def acquire(self, continuation: Callable[[], None]) -> None:
        """Grant the resource to *continuation* now or when it frees up."""
        if not self._busy:
            self._busy = True
            self._acquired_at = self.loop.now
            continuation()
        else:
            self._waiting.append(continuation)

    def release(self) -> None:
        """Free the resource, immediately handing it to the next waiter."""
        if not self._busy:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        self.busy_seconds += self.loop.now - self._acquired_at
        self._busy = False
        if self._waiting:
            continuation = self._waiting.pop(0)
            self._busy = True
            self._acquired_at = self.loop.now
            continuation()
