"""Admission control, CoDel-style load shedding, and the brownout ladder.

An unbounded serving queue converts overload into unbounded latency: when
offered load exceeds capacity the queue only ever grows, every request
completes eventually — and late — and goodput (requests served *within their
deadline*) collapses to zero even though throughput looks healthy. The
overload-safe alternative bounds every stage:

- **Admission control** — a bounded queue that fails fast at submit time
  (:class:`~repro.core.errors.AdmissionRejectedError`) once ``max_queue``
  requests are waiting. Rejecting in microseconds is strictly better than
  queueing a request that will miss its deadline anyway.
- **Deadline shedding** — at *dequeue* time, a request whose remaining
  budget cannot cover the estimated service time is dropped
  (:class:`~repro.core.errors.DeadlineExceededError`, ``stage="queue"``)
  instead of being executed late. The service-time estimate is an EWMA of
  recent batch service times, so the shed decision tracks the fleet's
  current speed.
- **Brownout ladder** — before shedding, quality degrades stepwise: the
  controller watches the queue *sojourn* delay CoDel-style (persistent
  delay above ``delay_target_s`` for ``escalate_after_s`` escalates; delay
  below target for the longer ``clear_after_s`` de-escalates — the
  hysteresis that prevents level flapping). Each level maps to
  :class:`BrownoutKnobs`: a smaller deep-search fan-out and probe depth,
  trading bounded accuracy for capacity.

The controller is passive and clock-injectable: the batcher calls
:meth:`AdmissionController.admit` on submit and
:meth:`AdmissionController.observe` on dequeue; all state transitions are
derived from those observations. Everything is observable via the process
registry (``serving_queue_depth``, ``serving_admission_rejected_total``,
``serving_deadline_shed_total``, ``serving_brownout_level``,
``serving_degradation_level`` histogram).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..core.errors import AdmissionRejectedError
from ..obs.metrics import get_registry

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BrownoutKnobs",
    "DEGRADATION_BUCKETS",
]

#: Degradation-level histogram buckets (levels, not seconds).
DEGRADATION_BUCKETS = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class BrownoutKnobs:
    """Quality knobs at one brownout level (level 0 = full quality).

    ``m_scale`` / ``nprobe_scale`` multiply the deep-search fan-out and probe
    depth (floored at 1 by the consumer).
    """

    m_scale: float = 1.0
    nprobe_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("m_scale", "nprobe_scale"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    def apply(self, m: int, nprobe: int) -> tuple:
        """Scaled ``(m, nprobe)``, floored at 1 each."""
        return (
            max(1, int(round(m * self.m_scale))),
            max(1, int(round(nprobe * self.nprobe_scale))),
        )


#: The default degradation ladder, mildest first; every level searches
#: shallower than the one before. Level 0 (full quality) is implicit; the
#: deepest level still searches (m, nprobe floored at 1) — shedding, not
#: level N, is the final overload response.
DEFAULT_LADDER = (
    BrownoutKnobs(m_scale=0.67, nprobe_scale=0.5),
    BrownoutKnobs(m_scale=0.34, nprobe_scale=0.25),
)


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of the overload layer.

    ``max_queue`` bounds the waiting-request count (submit past it rejects).
    ``default_deadline_s`` applies to requests submitted without an explicit
    deadline (``None`` = such requests never expire). ``delay_target_s`` is
    the CoDel-style acceptable queue sojourn; sojourns above it for
    ``escalate_after_s`` raise the brownout level, sojourns below it for
    ``clear_after_s`` lower it (``clear_after_s`` > ``escalate_after_s``
    gives the ladder hysteresis). ``ladder`` lists the knobs per level
    above 0. ``service_ewma_alpha`` smooths the per-request service-time
    estimate used by deadline shedding.
    """

    max_queue: int = 256
    default_deadline_s: float | None = None
    delay_target_s: float = 0.005
    escalate_after_s: float = 0.05
    clear_after_s: float = 0.2
    ladder: tuple = DEFAULT_LADDER
    service_ewma_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be positive, got {self.default_deadline_s}"
            )
        if self.delay_target_s <= 0:
            raise ValueError(f"delay_target_s must be positive, got {self.delay_target_s}")
        if self.escalate_after_s <= 0 or self.clear_after_s <= 0:
            raise ValueError("escalate_after_s and clear_after_s must be positive")
        if self.clear_after_s < self.escalate_after_s:
            raise ValueError(
                "clear_after_s must be >= escalate_after_s (hysteresis), got "
                f"{self.clear_after_s} < {self.escalate_after_s}"
            )
        if not 0.0 < self.service_ewma_alpha <= 1.0:
            raise ValueError(
                f"service_ewma_alpha must be in (0, 1], got {self.service_ewma_alpha}"
            )
        for level, knobs in enumerate(self.ladder, start=1):
            if not isinstance(knobs, BrownoutKnobs):
                raise TypeError(f"ladder level {level} is not BrownoutKnobs: {knobs!r}")

    @property
    def max_level(self) -> int:
        return len(self.ladder)


class AdmissionController:
    """Tracks queue pressure; decides reject / shed / degrade.

    Thread-safe: ``admit`` runs on client threads while ``observe`` runs on
    the batcher worker. The brownout level moves at most one step per
    observation, driven by how long the queue delay has been continuously
    above (or below) the CoDel target.

    Everything here governs *queued* requests. A query the cache answers at
    full quality is served inside ``DynamicBatcher.submit`` and never
    reaches this controller: it takes no queue slot, cannot be shed,
    and is served at level 0 whatever the brownout level — which is also the
    only way a full-quality cached answer is visible during brownout, since
    the batch path looks the cache up under the *degraded* parameters. The
    service-time EWMA therefore averages the worker's (miss) batches only.
    """

    def __init__(self, config: AdmissionConfig | None = None, *, clock=None) -> None:
        self.config = config or AdmissionConfig()
        self._clock = clock if clock is not None else time.perf_counter
        self._lock = threading.Lock()
        self._level = 0
        self._above_since: float | None = None
        self._below_since: float | None = None
        self._service_ewma: float | None = None
        self.rejected = 0
        self.shed = 0

    # -- submit side ---------------------------------------------------------
    def admit(self, queue_depth: int) -> None:
        """Raise :class:`AdmissionRejectedError` when the queue is full."""
        registry = get_registry()
        registry.gauge(
            "serving_queue_depth", "requests waiting in the serving queue"
        ).set(queue_depth)
        if queue_depth >= self.config.max_queue:
            with self._lock:
                self.rejected += 1
            registry.counter(
                "serving_admission_rejected_total",
                "requests fail-fast rejected by the bounded serving queue",
            ).inc()
            raise AdmissionRejectedError(queue_depth, self.config.max_queue)

    def deadline_for(self, deadline_s: float | None) -> float | None:
        """Resolve a request's deadline (explicit wins over the default)."""
        if deadline_s is not None:
            return float(deadline_s)
        return self.config.default_deadline_s

    # -- dequeue side --------------------------------------------------------
    def should_shed(self, remaining_s: float | None) -> bool:
        """True when the remaining budget cannot cover the estimated service.

        Conservative before any service time has been observed: only
        already-expired requests shed. Callers count the shed on
        ``serving_deadline_shed_total`` via :meth:`record_shed`.
        """
        if remaining_s is None:
            return False
        if remaining_s <= 0:
            return True
        with self._lock:
            estimate = self._service_ewma
        return estimate is not None and remaining_s < estimate

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1
        get_registry().counter(
            "serving_deadline_shed_total",
            "requests dropped at dequeue because their deadline was unmeetable",
        ).inc()

    def record_service_time(self, seconds: float) -> None:
        """Feed one batch's *per-request-visible* service time into the EWMA."""
        seconds = max(float(seconds), 0.0)
        alpha = self.config.service_ewma_alpha
        with self._lock:
            if self._service_ewma is None:
                self._service_ewma = seconds
            else:
                self._service_ewma += alpha * (seconds - self._service_ewma)

    @property
    def service_estimate_s(self) -> float | None:
        with self._lock:
            return self._service_ewma

    def observe(self, queue_delay_s: float) -> int:
        """Feed one dequeued request's sojourn; returns the brownout level.

        CoDel-flavoured: a single delay spike does nothing — the level
        rises only when the sojourn stays above ``delay_target_s`` for
        ``escalate_after_s`` straight, and falls only after
        ``clear_after_s`` continuously below it.
        """
        now = self._clock()
        cfg = self.config
        with self._lock:
            if queue_delay_s > cfg.delay_target_s:
                self._below_since = None
                if self._above_since is None:
                    self._above_since = now
                elif (
                    now - self._above_since >= cfg.escalate_after_s
                    and self._level < cfg.max_level
                ):
                    self._level += 1
                    self._above_since = now  # one step per escalation window
            else:
                self._above_since = None
                if self._below_since is None:
                    self._below_since = now
                elif now - self._below_since >= cfg.clear_after_s and self._level > 0:
                    self._level -= 1
                    self._below_since = now
            level = self._level
        registry = get_registry()
        registry.gauge(
            "serving_brownout_level", "current quality-degradation level"
        ).set(level)
        registry.histogram(
            "serving_queue_delay_seconds", "request sojourn time in the serving queue"
        ).observe(max(queue_delay_s, 0.0))
        return level

    # -- quality mapping -----------------------------------------------------
    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    def knobs(self, level: int | None = None) -> BrownoutKnobs:
        """The quality knobs for *level* (default: the current level)."""
        if level is None:
            level = self.level
        if level <= 0:
            return BrownoutKnobs()
        ladder = self.config.ladder
        return ladder[min(int(level), len(ladder)) - 1]

    def reset(self) -> None:
        with self._lock:
            self._level = 0
            self._above_since = None
            self._below_since = None
            self._service_ewma = None
            self.rejected = 0
            self.shed = 0
