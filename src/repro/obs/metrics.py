"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

The Prometheus-shaped half of ``repro.obs`` (numpy + stdlib only): named
metrics with label support —

    REGISTRY.counter("build_cache_lookups_total").inc(result="hit")
    REGISTRY.histogram("retrieval_latency_seconds").observe(0.012,
                                                            shard="2",
                                                            phase="deep")

Histograms are **fixed-bucket**: only per-bucket counts are stored, never
samples, so observation is O(log buckets) and memory is constant regardless
of traffic — the property that makes it safe to leave instrumentation on in
the hot paths. Quantiles (p50/p95/p99) are estimated by linear interpolation
inside the bucket containing the target rank, the standard Prometheus
``histogram_quantile`` scheme; the estimate is guaranteed to land inside
that bucket, i.e. within one bucket boundary of the exact sample quantile
(the property ``tests/obs/test_metrics.py`` checks against numpy).

All metric operations are thread-safe: the shard fan-out and parallel build
pools record from worker threads.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricHandle",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
]

#: Default histogram buckets (upper bounds, seconds): 10 µs .. ~84 s in
#: half-decade steps — wide enough for sample search through simulated E2E.
DEFAULT_LATENCY_BUCKETS = tuple(
    round(10.0 ** (e / 2.0), 10) for e in range(-10, 4)
)


def _label_key(labels: Mapping[str, object]) -> tuple:
    return tuple(sorted(zip(labels, map(str, labels.values()))))


def format_labels(key: tuple) -> str:
    """Render a label key the Prometheus way: ``{shard="2",phase="deep"}``."""
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class _Metric:
    """Base: a named family of per-labelset children behind one lock."""

    def __init__(self, name: str, description: str = "") -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._children: dict = {}

    def labelsets(self) -> list:
        with self._lock:
            return list(self._children)


class Counter(_Metric):
    """Monotonically increasing count (events, retries, cache hits)."""

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        key = _label_key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._children.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labelset."""
        with self._lock:
            return sum(self._children.values())

    def collect(self) -> dict:
        with self._lock:
            return dict(self._children)


class Gauge(_Metric):
    """A value that can go up and down (open breakers, queue depth)."""

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._children[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._children.get(_label_key(labels), 0.0)

    def collect(self) -> dict:
        with self._lock:
            return dict(self._children)


class _HistogramChild:
    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 = overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram(_Metric):
    """Fixed-bucket distribution with O(1)-memory quantile estimates.

    ``buckets`` are strictly increasing upper bounds; an observation lands
    in the first bucket whose bound is >= the value, or the overflow bucket
    past the last bound. Only counts are kept.
    """

    def __init__(
        self,
        name: str,
        description: str = "",
        *,
        buckets: Iterable[float] | None = None,
    ) -> None:
        super().__init__(name, description)
        bounds = tuple(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.buckets = bounds

    def _child(self, labels: Mapping[str, object]) -> _HistogramChild:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistogramChild(len(self.buckets))
        return child

    def observe(self, value: float, **labels: object) -> None:
        if not math.isfinite(value):
            raise ValueError(f"cannot observe non-finite value {value}")
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            child = self._child(labels)
            child.bucket_counts[idx] += 1
            child.count += 1
            child.sum += value
            if value < child.min:
                child.min = value
            if value > child.max:
                child.max = value

    # -- reads --------------------------------------------------------------
    def count(self, **labels: object) -> int:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return 0 if child is None else child.count

    def total(self, **labels: object) -> float:
        with self._lock:
            child = self._children.get(_label_key(labels))
            return 0.0 if child is None else child.sum

    def mean(self, **labels: object) -> float:
        with self._lock:
            child = self._children.get(_label_key(labels))
            if child is None or child.count == 0:
                return math.nan
            return child.sum / child.count

    def quantile(self, q: float, **labels: object) -> float:
        """Estimate the q-quantile (q in [0, 1]) from bucket counts.

        Linear interpolation inside the target bucket; the overflow bucket
        (values past the last bound) is clamped to the observed max. Returns
        NaN with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            child = self._children.get(_label_key(labels))
            if child is None or child.count == 0:
                return math.nan
            target = q * child.count
            cumulative = 0.0
            for idx, n in enumerate(child.bucket_counts):
                if n == 0:
                    continue
                if cumulative + n >= target:
                    frac = 0.0 if n == 0 else max(0.0, (target - cumulative)) / n
                    if idx >= len(self.buckets):  # overflow bucket
                        lo, hi = self.buckets[-1], child.max
                    else:
                        hi = self.buckets[idx]
                        lo = self.buckets[idx - 1] if idx > 0 else min(0.0, hi)
                    # Clamp the interpolation to the observed range so tiny
                    # samples don't report below-min / above-max estimates.
                    lo = max(lo, child.min)
                    hi = min(hi, child.max)
                    if hi < lo:
                        return child.max
                    return lo + frac * (hi - lo)
                cumulative += n
            return child.max  # pragma: no cover - target <= count always hits

    def snapshot(self, **labels: object) -> dict:
        """count/sum/min/max plus p50/p95/p99 for one labelset."""
        return {
            "count": self.count(**labels),
            "sum": self.total(**labels),
            "p50": self.quantile(0.50, **labels),
            "p95": self.quantile(0.95, **labels),
            "p99": self.quantile(0.99, **labels),
        }


class MetricsRegistry:
    """Named metrics, created on first use and shared after.

    ``registry.counter("x")`` is get-or-create: instrumented modules never
    need to coordinate declaration order. Re-registering a name as a
    different metric type is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict = {}

    def _get_or_create(self, cls, name: str, description: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            metric = cls(name, description, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        *,
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, description, buckets=buckets)

    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every metric (test isolation)."""
        with self._lock:
            self._metrics = {}

    def snapshot(self) -> dict:
        """Flat ``name{labels} -> value`` view of everything recorded.

        Histograms expand into ``_count`` / ``_sum`` / quantile series, the
        shape a scraper (or an experiment run log) wants.
        """
        out: dict[str, float] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if isinstance(metric, Histogram):
                for key in metric.labelsets():
                    labels = dict(key)
                    snap = metric.snapshot(**labels)
                    suffix = format_labels(key)
                    out[f"{metric.name}_count{suffix}"] = snap["count"]
                    out[f"{metric.name}_sum{suffix}"] = snap["sum"]
                    for p in ("p50", "p95", "p99"):
                        out[f"{metric.name}_{p}{suffix}"] = snap[p]
            else:
                for key, value in metric.collect().items():
                    out[f"{metric.name}{format_labels(key)}"] = value
        return out


#: Process-wide default registry, the sink instrumented modules report to.
_DEFAULT = MetricsRegistry()


class MetricHandle:
    """One named metric of the process-wide registry, for a hot path.

    ``MetricHandle(MetricsRegistry.counter, name, description)()`` is
    ``get_registry().counter(name, description)``, looked up once per
    registry instead of on every call: again after :func:`set_registry` swaps
    the registry or :meth:`MetricsRegistry.reset` empties it, so an
    instrumented module keeps reporting wherever the registry currently is.
    """

    __slots__ = ("_make", "_name", "_description", "_table", "_metric")

    def __init__(self, make, name: str, description: str) -> None:
        self._make, self._name, self._description = make, name, description
        self._table = self._metric = None

    def __call__(self):
        registry = _DEFAULT
        table = registry._metrics
        if table is not self._table:
            self._metric = self._make(registry, self._name, self._description)
            self._table = table
        return self._metric


def get_registry() -> MetricsRegistry:
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
