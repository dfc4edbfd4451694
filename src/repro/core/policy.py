"""Retry policy for one shard call: deadline, retries, retry budget, breaker.

One index per node (§4/§6) puts every retrieval node on the TTFT critical
path, so each deep-search call runs under a :class:`RetrievalPolicy`:

- a **per-attempt deadline** bounds how long one shard may stall the batch
  (the shard call receives it as ``timeout_s`` and must answer, or raise
  :class:`~repro.core.errors.ShardTimeoutError`, within it);
- **bounded retries** absorb transient errors, capped fleet-wide by a
  shared :class:`RetryBudget`;
- a **circuit breaker** (:class:`ShardHealth`) trips after consecutive
  failures; the searcher excludes open shards from routing until a cooldown
  expires.

:func:`run_call` takes one call to its final outcome and :func:`account`
books that outcome on the registry and the breaker. Both are plain functions
over a call taking its ``timeout_s``, a policy and a clock, so a test can
drive them with a scripted call and a manual clock, no searcher or datastore
needed.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..obs.metrics import MetricHandle, MetricsRegistry, get_registry
from ..obs.trace import Tracer
from .errors import ShardCrashedError, ShardTimeoutError, TransientShardError


class RetryBudget:
    """Fleet-wide token bucket bounding the *total* retry volume.

    Per-shard retry policies multiply during a correlated outage: with 10
    shards each allowed 2 retries, one bad window turns every batch into up
    to 30 shard calls — a retry storm that keeps the fleet saturated long
    after the fault clears. The classic fix (Finagle/SRE "retry budgets") is
    a shared bucket: every *primary* attempt deposits ``FILL_RATE`` tokens
    (capped at ``CAPACITY``) and every retry withdraws one, so sustained
    retry traffic is bounded to ``FILL_RATE`` of primary traffic while short
    bursts can still spend the accumulated capacity.

    Thread-safe — the deep-search fan-out spends from pool threads. Share
    one instance across every :class:`RetrievalPolicy` of a fleet (it is
    deliberately *not* created per policy).

    The bucket counts in exact integer units of ``1 / _SCALE`` token, so ten
    ``FILL_RATE`` deposits fund exactly one retry (ten float 0.1 additions
    sum to 0.999…, one ulp short).
    """

    CAPACITY = 10.0
    FILL_RATE = 0.1
    _SCALE = 10
    _FULL = round(CAPACITY * _SCALE)
    _FILL = round(FILL_RATE * _SCALE)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._units = self._FULL
        self.exhausted = 0

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._units / self._SCALE

    def deposit(self) -> None:
        """Credit one primary attempt's worth of retry allowance."""
        with self._lock:
            self._units = min(self._FULL, self._units + self._FILL)

    def try_spend(self) -> bool:
        """Withdraw one retry token; False (and counted) when the bucket is dry."""
        with self._lock:
            if self._units >= self._SCALE:
                self._units -= self._SCALE
                return True
            self.exhausted += 1
        get_registry().counter(
            "retry_budget_exhausted_total",
            "retries suppressed because the fleet-wide retry budget ran dry",
        ).inc()
        return False

    def reset(self) -> None:
        with self._lock:
            self._units = self._FULL
            self.exhausted = 0


@dataclass(frozen=True)
class RetrievalPolicy:
    """Fleet-survival knobs for the deep-search fan-out.

    ``deadline_s`` bounds each *attempt*; ``max_attempts`` counts the
    primary plus transient-error retries. ``breaker_threshold`` consecutive
    shard failures open the circuit for ``breaker_cooldown`` subsequent
    search batches. ``retry_budget`` is an optional *shared*
    :class:`RetryBudget`: when its bucket is dry, a shard fails after its
    primary attempt instead of retrying, so per-shard retry allowances
    cannot multiply into a fleet-wide retry storm.
    """

    deadline_s: float | None = None
    max_attempts: int = 1
    breaker_threshold: int | None = None
    breaker_cooldown: int = 2
    retry_budget: "RetryBudget | None" = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 1:
            raise ValueError(f"breaker_cooldown must be >= 1, got {self.breaker_cooldown}")


#: The fault sweep's and the overload failover's policy: one retry for
#: transients and a fast breaker, so a dead shard stops being probed after
#: two batches.
FLEET_POLICY = RetrievalPolicy(max_attempts=2, breaker_threshold=2, breaker_cooldown=4)


class ShardHealth:
    """Consecutive-failure circuit breaker over the shard fleet.

    ``record_failure`` past ``threshold`` opens the shard's circuit for
    ``cooldown`` search batches (:meth:`tick` advances the clock once per
    batch). An open shard is auto-excluded from routing. When the cooldown
    expires the shard is *half-open*: it is probed again, one success closes
    the circuit, one failure re-opens it immediately.

    Thread-safe: deep searches record outcomes from pool threads.
    """

    def __init__(self, n_shards: int, *, threshold: int = 3, cooldown: int = 2) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.n_shards = n_shards
        self.threshold = threshold
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._consecutive = np.zeros(n_shards, dtype=np.int64)
        self._open_for = np.zeros(n_shards, dtype=np.int64)

    def _check(self, shard_id: int) -> int:
        shard_id = int(shard_id)
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"shard id {shard_id} out of range [0, {self.n_shards})")
        return shard_id

    def record_success(self, shard_id: int) -> None:
        shard_id = self._check(shard_id)
        with self._lock:
            self._consecutive[shard_id] = 0
            self._open_for[shard_id] = 0

    def record_failure(self, shard_id: int) -> None:
        self._fail(shard_id, at_least=0)

    def trip(self, shard_id: int) -> None:
        """Open the circuit immediately (crash-stop: no point counting up)."""
        self._fail(shard_id, at_least=self.threshold)

    def _fail(self, shard_id: int, *, at_least: int) -> None:
        """Count one failure (to ``at_least``); at the threshold, (re)open."""
        shard_id = self._check(shard_id)
        with self._lock:
            count = max(at_least, int(self._consecutive[shard_id]) + 1)
            self._consecutive[shard_id] = count
            newly_open = count >= self.threshold and self._open_for[shard_id] == 0
            if count >= self.threshold:
                self._open_for[shard_id] = self.cooldown
        if newly_open:
            get_registry().counter(
                "retrieval_breaker_trips_total", "circuit-breaker open transitions"
            ).inc(shard=shard_id)

    def is_open(self, shard_id: int) -> bool:
        return bool(self._open_for[self._check(shard_id)] > 0)

    def open_shards(self) -> frozenset:
        """Shards whose circuit is currently open (auto-excluded)."""
        with self._lock:
            return frozenset(int(s) for s in np.flatnonzero(self._open_for > 0))

    def tick(self) -> None:
        """Advance the breaker clock by one search batch."""
        with self._lock:
            np.maximum(self._open_for - 1, 0, out=self._open_for)


@dataclass(frozen=True)
class ShardCallStats:
    """Accounting for one shard's deep-search participation in a batch.

    ``attempts`` counts issued requests, so ``queries * attempts`` is the
    work the perfmodel should charge; a healthy shard has ``attempts == 1``.
    ``latency_s`` is the time requests to this shard were in flight, summed
    across retries.
    """

    shard_id: int
    queries: int
    attempts: int
    latency_s: float
    outcome: str = "ok"

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def run_call(
    call: Callable[["float | None"], Any],
    policy: RetrievalPolicy,
    *,
    shard_id: int,
    queries: int,
    clock: Callable[[], float] = time.perf_counter,
    tracer: "Tracer | None" = None,
) -> "tuple[Any, ShardCallStats, BaseException | None]":
    """Run one shard call to its final outcome under *policy*.

    Returns ``(value, stats, failure)``: ``value`` is the call's return on
    an ``"ok"`` outcome, else ``failure`` is what ended it. Transient errors
    retry while attempts and the fleet retry budget last; a timeout, a crash
    or any other exception ends the call at once. Each attempt runs on the
    calling thread as ``call(policy.deadline_s)``: the shard gets the budget
    with the request, and an attempt that comes back later than it by
    *clock*, with a value or an error, is a ``"timeout"``: its value is
    dropped and it is not retried. With a *tracer*, each attempt is an
    ``attempt`` span.
    """
    deadline_s = policy.deadline_s
    attempts = 0
    busy = 0.0
    outcome = "ok"
    value = failure = None
    budget = policy.retry_budget
    if budget is not None:
        budget.deposit()
    while True:
        attempts += 1
        try:
            span = (
                tracer.span("attempt", try_index=attempts)
                if tracer is not None
                else nullcontext()
            )
            with span:
                start = clock()
                error = None
                try:
                    value = call(deadline_s)
                except Exception as exc:  # noqa: BLE001 — re-raised below
                    error = exc
                elapsed = clock() - start
                busy += elapsed
                if deadline_s is not None and elapsed > deadline_s:
                    # Late is a timeout whatever the attempt ended with: a
                    # value is dropped and a late error is not retried.
                    value = None
                    if not isinstance(error, ShardTimeoutError):
                        raise ShardTimeoutError(shard_id, deadline_s) from error
                if error is not None:
                    raise error
            break
        except TransientShardError as exc:
            failure = exc
            if attempts >= policy.max_attempts:
                outcome = "transient-exhausted"
                break
            if budget is not None and not budget.try_spend():
                # Fleet-wide budget dry: degrade now rather than join a
                # retry storm already in progress.
                outcome = "retry-budget-exhausted"
                break
        except ShardTimeoutError as exc:
            failure, outcome = exc, "timeout"
            break
        except ShardCrashedError as exc:
            failure, outcome = exc, "crashed"
            break
        except Exception as exc:  # noqa: BLE001 — classified; the caller degrades or raises
            failure, outcome = exc, "error"
            break
    stats = ShardCallStats(shard_id, queries, attempts, busy, outcome)
    return value, stats, None if stats.ok else failure


_RETRIES = MetricHandle(
    MetricsRegistry.counter,
    "retrieval_retries_total",
    "transient-error retries issued by the deep-search fan-out",
)
_SHARD_LATENCY = MetricHandle(
    MetricsRegistry.histogram, "retrieval_shard_latency_seconds", "per-shard in-flight deep-search time"
)


def account(stats: ShardCallStats, health: "ShardHealth | None") -> None:
    """Registry counters and breaker state for one policy-governed call."""
    if stats.attempts > 1:
        _RETRIES().inc(stats.attempts - 1)
    _SHARD_LATENCY().observe(stats.latency_s, outcome=stats.outcome)
    if health is not None:
        if stats.ok:
            health.record_success(stats.shard_id)
        else:
            health.record_failure(stats.shard_id)
