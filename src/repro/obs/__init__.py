"""End-to-end observability for the Hermes reproduction.

``repro.obs`` is a deliberately dependency-free subsystem (numpy + stdlib
only — CI enforces it) with three parts:

- :mod:`repro.obs.trace` — hierarchical spans with clock injection and a
  Chrome-tracing exporter;
- :mod:`repro.obs.metrics` — a process-local registry of counters, gauges,
  and fixed-bucket histograms with labels;
- :mod:`repro.obs.validate` — the latency-accounting invariants the test
  harness asserts over every traced run.

Instrumented modules (hierarchical searcher, IVF scan, build pipeline,
generation timeline, live serving pipeline) report to the process-wide
tracer and registry, both of which start disabled/no-op;
``enable_tracing()`` opts in.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .trace import (
    ManualClock,
    Span,
    Tracer,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    trace_skeleton,
)
from .validate import TraceInvariantError, validate_span_tree, validate_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "ManualClock",
    "Span",
    "Tracer",
    "chrome_trace",
    "trace_skeleton",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "TraceInvariantError",
    "validate_span_tree",
    "validate_trace",
]
