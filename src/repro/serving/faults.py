"""Seeded, composable fault injection for the retrieval fleet.

Hermes deploys one index per node (§4/§6), so fleet availability is a
first-order property: a dead or slow node sits directly on the TTFT
critical path. This module provides the *chaos* half of the story — fault
models that wrap a shard's ``search`` so the searcher's survival machinery
(deadlines, retries, circuit breaker; see
:class:`repro.core.policy.RetrievalPolicy`) can be exercised and
measured deterministically:

- :class:`CrashStop` — the node dies and stays dead (permanent
  :class:`~repro.core.errors.ShardCrashedError`);
- :class:`TransientFault` — independent per-call blips with probability
  ``p`` (:class:`~repro.core.errors.TransientShardError`), the retryable
  failure mode;
- :class:`OutageWindow` — a deterministic outage of ``n_calls`` calls that
  then *recovers*, for reproducing recovery behaviour exactly;
- :class:`Straggler` — latency injection, fixed or heavy-tailed (Pareto),
  the deadline stressor.

Every stochastic draw comes from a per-shard ``numpy.random.Generator``
seeded as ``default_rng([seed, shard_id])``, so a fault schedule is a pure
function of ``(seed, per-shard call sequence)`` — two runs with the same
seed produce identical failure schedules regardless of how shard fan-out
threads interleave *across* shards. (Calls racing on a single shard are
serialised by a lock, but their draw order follows wall-clock arrival.)

Models compose: a shard can be both a straggler and transiently flaky.
Models are applied in order; delays accumulate, the first exception wins
and is raised without serving the accumulated delay (failures are fast).
A delay past the call's ``timeout_s`` is served up to it, then the call
raises :class:`~repro.core.errors.ShardTimeoutError` (the log keeps the
delay drawn).
Model instances hold per-shard state — give each shard its own instances.
"""

from __future__ import annotations

import abc
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from ..core.clustering import ClusteredDatastore
from ..core.errors import ShardCrashedError, ShardTimeoutError, TransientShardError


class FaultModel(abc.ABC):
    """One failure mode bound to one shard."""

    @abc.abstractmethod
    def on_call(
        self, call_index: int, shard_id: int, rng: np.random.Generator
    ) -> float:
        """Inspect one ``search`` call; return extra latency seconds.

        Raise a :class:`~repro.core.errors.ShardError` subclass to fail the
        call instead.
        """

    def reset(self) -> None:
        """Clear any per-shard state (for reusing a model across runs)."""


class CrashStop(FaultModel):
    """Crash-stop: every call from ``at_call`` on raises, forever."""

    def __init__(self, at_call: int = 0) -> None:
        self.at_call = at_call

    def on_call(self, call_index: int, shard_id: int, rng: np.random.Generator) -> float:
        if call_index >= self.at_call:
            raise ShardCrashedError(shard_id)
        return 0.0


class TransientFault(FaultModel):
    """Independent per-call transient errors with probability ``p``.

    The canonical retryable fault: the very next attempt may succeed, so a
    bounded-retry policy absorbs it. ``max_failures`` caps the total number
    of injected failures (a bounded burst that then fully recovers).
    """

    def __init__(self, probability: float, *, max_failures: int | None = None) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        if max_failures is not None and max_failures < 1:
            raise ValueError(f"max_failures must be >= 1, got {max_failures}")
        self.probability = probability
        self.max_failures = max_failures
        self._failures = 0

    def on_call(self, call_index: int, shard_id: int, rng: np.random.Generator) -> float:
        exhausted = self.max_failures is not None and self._failures >= self.max_failures
        if not exhausted and rng.random() < self.probability:
            self._failures += 1
            raise TransientShardError(shard_id)
        return 0.0

    def reset(self) -> None:
        self._failures = 0


class OutageWindow(FaultModel):
    """Deterministic transient outage: calls ``[start_call, start_call +
    n_calls)`` fail, then the shard recovers.

    Call indices make recovery exact and thread-order independent — e.g.
    ``OutageWindow(start_call=1, n_calls=1)`` fails a shard's first deep
    search (call 1) after a clean sampling probe (call 0), and the retry
    (call 2) succeeds.
    """

    def __init__(self, start_call: int, n_calls: int = 1) -> None:
        if start_call < 0:
            raise ValueError(f"start_call must be >= 0, got {start_call}")
        if n_calls < 1:
            raise ValueError(f"n_calls must be >= 1, got {n_calls}")
        self.start_call = start_call
        self.n_calls = n_calls

    def on_call(self, call_index: int, shard_id: int, rng: np.random.Generator) -> float:
        if self.start_call <= call_index < self.start_call + self.n_calls:
            raise TransientShardError(
                shard_id,
                f"shard {shard_id} in outage window "
                f"[{self.start_call}, {self.start_call + self.n_calls})",
            )
        return 0.0


class Straggler(FaultModel):
    """Latency injection: each call is slowed with probability ``p``.

    ``delay_s`` is the base injected latency. With ``heavy_tail_alpha`` the
    delay is ``delay_s * (1 + Pareto(alpha))`` — the paper-adjacent model
    for production stragglers whose tail is far fatter than exponential
    (small alpha ⇒ fatter tail; alpha <= 1 has infinite mean, use > 1 for
    bounded experiments). ``calls`` restricts the slowdown to exact call
    indices — the deterministic mode for deadline tests (e.g. ``calls=[1]``
    slows only the first deep search, after a clean sampling probe).
    """

    def __init__(
        self,
        delay_s: float,
        *,
        probability: float = 1.0,
        heavy_tail_alpha: float | None = None,
        calls: Iterable[int] | None = None,
    ) -> None:
        if delay_s <= 0:
            raise ValueError(f"delay_s must be positive, got {delay_s}")
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        if heavy_tail_alpha is not None and heavy_tail_alpha <= 0:
            raise ValueError(f"heavy_tail_alpha must be positive, got {heavy_tail_alpha}")
        self.delay_s = delay_s
        self.probability = probability
        self.heavy_tail_alpha = heavy_tail_alpha
        self.calls = None if calls is None else frozenset(int(c) for c in calls)

    def on_call(self, call_index: int, shard_id: int, rng: np.random.Generator) -> float:
        if self.calls is not None and call_index not in self.calls:
            return 0.0
        if self.probability < 1.0 and rng.random() >= self.probability:
            return 0.0
        if self.heavy_tail_alpha is not None:
            return float(self.delay_s * (1.0 + rng.pareto(self.heavy_tail_alpha)))
        return self.delay_s


@dataclass(frozen=True)
class FaultEvent:
    """One entry of a shard's injected-fault log."""

    call_index: int
    kind: str  # "ok" | "crash" | "transient" | "delay"
    delay_s: float = 0.0


class FaultyShard:
    """Wraps a shard so its ``search`` passes through the fault models.

    Every other member of the :class:`~repro.core.clustering.Shard` surface
    (and the storage behind it) delegates to the wrapped shard, so a
    :class:`FaultyShard` drops into a
    :class:`~repro.core.clustering.ClusteredDatastore` unchanged.
    The injected-fault ``log`` records every call's outcome for determinism
    checks and chaos-test assertions.
    """

    def __init__(
        self,
        inner,
        models: Iterable[FaultModel],
        rng: np.random.Generator,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.models = list(models)
        self.rng = rng
        self.sleep = sleep
        self.log: list[FaultEvent] = []
        self._calls = 0
        self._lock = threading.Lock()

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __len__(self) -> int:
        return len(self.inner)

    def search(self, queries, k, *, nprobe=None, kept=None, timeout_s=None):
        with self._lock:
            idx = self._calls
            self._calls += 1
            delay = 0.0
            try:
                for model in self.models:
                    delay += model.on_call(idx, self.inner.shard_id, self.rng)
            except ShardCrashedError:
                self.log.append(FaultEvent(idx, "crash"))
                raise
            except TransientShardError:
                self.log.append(FaultEvent(idx, "transient"))
                raise
            self.log.append(FaultEvent(idx, "delay" if delay > 0 else "ok", delay))
        if delay > 0:
            if timeout_s is not None and delay > timeout_s:
                self.sleep(timeout_s)
                raise ShardTimeoutError(self.inner.shard_id, timeout_s)
            self.sleep(delay)
        return self.inner.search(queries, k, nprobe=nprobe, kept=kept, timeout_s=timeout_s)

    @property
    def calls(self) -> int:
        return self._calls

    def reset(self) -> None:
        """Clear call counter, log, and model state (rng is *not* re-seeded)."""
        with self._lock:
            self._calls = 0
            self.log.clear()
            for model in self.models:
                model.reset()


class FaultInjector:
    """Builds fault-wrapped datastores with deterministic per-shard seeding.

    >>> injector = FaultInjector(seed=7)
    >>> chaotic = injector.wrap(datastore, {0: CrashStop(), 3: Straggler(0.05)})

    Each wrapped shard draws from ``default_rng([seed, shard_id])``, so the
    schedule depends only on the seed and the shard's own call sequence.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def wrap_shard(
        self,
        shard,
        models: FaultModel | Iterable[FaultModel],
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> FaultyShard:
        if isinstance(models, FaultModel):
            models = [models]
        rng = np.random.default_rng([self.seed, int(shard.shard_id)])
        return FaultyShard(shard, models, rng, sleep=sleep)

    def wrap(
        self,
        datastore: ClusteredDatastore,
        faults: Mapping[int, FaultModel | Iterable[FaultModel]],
    ) -> ClusteredDatastore:
        """A shallow copy of *datastore* with faults injected per shard id.

        The underlying indices are shared, not copied — wrapping is cheap
        and the healthy datastore stays usable.
        """
        n = datastore.n_clusters
        unknown = sorted(s for s in faults if not 0 <= int(s) < n)
        if unknown:
            raise ValueError(f"fault map names unknown shard ids {unknown} (0..{n - 1})")
        shards = [
            self.wrap_shard(s, faults[s.shard_id])
            if s.shard_id in faults
            else s
            for s in datastore.shards
        ]
        return replace(datastore, shards=shards)


def kill_shards(
    datastore: ClusteredDatastore, shard_ids: Iterable[int], *, seed: int = 0
) -> ClusteredDatastore:
    """Convenience: crash-stop the given shards from their first call."""
    return FaultInjector(seed).wrap(
        datastore, {int(s): CrashStop() for s in shard_ids}
    )

