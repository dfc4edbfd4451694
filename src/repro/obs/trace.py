"""Hierarchical tracing spans for the retrieval/serving pipeline.

Hermes's central results are latency *decompositions* — TTFT and E2E broken
into sample search, routing, deep search, rerank, and inference (Figs. 7,
12, 14, 16) — so the reproduction needs a way to see those stages rather
than scrape them out of ad-hoc timing dicts. This module is the span half of
``repro.obs``: a zero-dependency (numpy + stdlib only) tracer producing
trees of timed spans, exportable to the Chrome ``chrome://tracing`` /
Perfetto event format.

Design points:

- **Clock injection.** A tracer owns a ``clock`` callable returning seconds.
  The default is ``time.perf_counter`` (wall clock); tests pass a
  :class:`ManualClock` they advance by hand.
- **Two recording APIs.** ``tracer.span(...)`` is a context manager (and
  via :meth:`Tracer.traced` a decorator) that nests through a thread-local
  stack — the natural fit for instrumenting call trees. ``start_span`` /
  ``record`` take explicit parents and timestamps — the fit for
  code that reports intervals after the fact, like the generation timeline
  (:func:`repro.llm.generation.record_timeline`), whose spans sit on a
  virtual clock rather than the Python stack.
- **Workers.** Every span carries a ``worker`` label (thread, shard, node,
  device — the unit that executes serially). Spans on one worker must not
  overlap; spans on different workers may. ``worker=None`` inherits the
  parent's worker (or the thread name at the root).
- **Disabled is (nearly) free.** A disabled tracer hands out one shared
  no-op context manager; the hot-path cost is an attribute check. The
  module-level default tracer starts disabled, so instrumented library code
  costs almost nothing until someone opts in via :func:`enable_tracing`.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "ManualClock",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "chrome_trace",
    "trace_skeleton",
]


class ManualClock:
    """A deterministic clock for tests: advances only when told to.

    Instances are callables returning the current time in seconds, so they
    drop into any ``clock=`` seam (:class:`Tracer`, the hierarchical
    searcher, ...).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new now."""
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time, got {seconds}")
        self._now += seconds
        return self._now

    def sleep(self, seconds: float) -> None:
        """Drop-in for ``time.sleep`` that advances the clock instead."""
        self.advance(seconds)


@dataclass
class Span:
    """One timed, named interval in a trace tree."""

    name: str
    start_s: float
    end_s: float | None = None
    worker: str = "main"
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise ValueError(f"span {self.name!r} is not finished")
        return self.end_s - self.start_s

    def finish(self, end_s: float) -> "Span":
        """Close the span at an explicit timestamp (manual API)."""
        if self.end_s is not None:
            raise ValueError(f"span {self.name!r} already finished")
        if end_s < self.start_s:
            raise ValueError(
                f"span {self.name!r}: end {end_s} precedes start {self.start_s}"
            )
        self.end_s = end_s
        return self

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes; chainable inside ``with`` blocks."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list:
        return [s for s in self.walk() if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every descendant span named *name*."""
        return sum(s.duration_s for s in self.find_all(name))


class _NullSpan:
    """Inert span handed out by disabled tracers; absorbs every call."""

    __slots__ = ()
    name = ""
    worker = ""
    attrs: dict = {}
    children: list = []
    start_s = 0.0
    end_s = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self, end_s: float) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Shared no-op context manager: the disabled-tracing fast path.

    Entering and leaving it run no Python frame. ``__enter__`` is
    ``next`` of an endless repeat of the null span, which returns the span
    called bare (the ``with`` statement) or with the context as ``next``'s
    unused default (``type(cm).__enter__(cm)``, as ``ExitStack`` calls it).
    ``__exit__`` is ``"".format``, which returns ``""`` (falsy, so an
    exception propagates) for the exception arguments, with or without the
    context before them.
    """

    __slots__ = ()
    __enter__ = functools.partial(next, itertools.repeat(_NULL_SPAN))
    __exit__ = "".format


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Context manager created by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_worker", "_attrs", "_parent", "_span")

    def __init__(self, tracer, name, worker, parent, attrs):
        self._tracer = tracer
        self._name = name
        self._worker = worker
        self._parent = parent
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(
            self._name, worker=self._worker, parent=self._parent, attrs=self._attrs
        )
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)


class Tracer:
    """Collects span trees; thread-safe, with per-thread implicit nesting."""

    def __init__(
        self, *, clock: Callable[[], float] | None = None, enabled: bool = True
    ) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self.enabled = enabled
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- implicit (context-manager / decorator) API -------------------------
    def span(
        self,
        name: str,
        *,
        worker: str | None = None,
        parent: Span | None = None,
        **attrs: Any,
    ):
        """Open a child of the current span (or of *parent* if given).

        Usable as ``with tracer.span("deep_search", shard=3) as sp:``. The
        span nests under this thread's innermost open span unless an
        explicit ``parent`` crosses threads (the shard fan-out case).
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, worker, parent, attrs)

    def traced(self, name: str | None = None, **attrs: Any):
        """Decorator form: trace every call of the wrapped function."""

        def deco(func):
            span_name = name if name is not None else func.__qualname__

            def wrapper(*args: Any, **kwargs: Any):
                with self.span(span_name, **attrs):
                    return func(*args, **kwargs)

            wrapper.__name__ = func.__name__
            wrapper.__qualname__ = func.__qualname__
            wrapper.__doc__ = func.__doc__
            wrapper.__wrapped__ = func
            return wrapper

        return deco

    # -- explicit (callback-driven) API -------------------------------------
    def start_span(
        self,
        name: str,
        *,
        start_s: float | None = None,
        parent: Span | None = None,
        worker: str | None = None,
        **attrs: Any,
    ):
        """Open a span with an explicit parent/timestamp; caller must
        ``finish()`` it. Does not touch the thread-local stack — the API for
        event-loop code where span lifetime is not a ``with`` block."""
        if not self.enabled:
            return _NULL_SPAN
        start = self.clock() if start_s is None else start_s
        span = Span(
            name,
            start_s=start,
            worker=self._resolve_worker(worker, parent),
            attrs=dict(attrs),
        )
        self._attach(span, parent)
        return span

    def record(
        self,
        name: str,
        *,
        start_s: float,
        end_s: float,
        parent: Span | None = None,
        worker: str | None = None,
        **attrs: Any,
    ):
        """Record an already-elapsed interval as a finished span."""
        span = self.start_span(
            name, start_s=start_s, parent=parent, worker=worker, **attrs
        )
        span.finish(end_s)
        return span

    # -- internals ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _resolve_worker(self, worker: str | None, parent: Span | None) -> str:
        if worker is not None:
            return worker
        if parent is not None:
            return parent.worker
        return threading.current_thread().name

    def _attach(self, span: Span, parent: Span | None) -> None:
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)

    def _open(self, name, *, worker, parent, attrs) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            name,
            start_s=self.clock(),
            worker=self._resolve_worker(worker, parent),
            attrs=attrs,
        )
        self._attach(span, parent)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_s = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misuse guard (exit order violated)
            try:
                stack.remove(span)
            except ValueError:
                pass

    # -- management ---------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self.roots = []

    def finished_roots(self) -> list:
        """Completed root spans (in-flight ones are excluded)."""
        with self._lock:
            return [r for r in self.roots if r.finished]


#: Process-wide default tracer. Disabled until someone opts in, so library
#: instrumentation stays effectively free.
_DEFAULT = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer instrumented code reports to."""
    return _DEFAULT


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = tracer
    return previous


def enable_tracing(*, clock: Callable[[], float] | None = None) -> Tracer:
    """Install and return a fresh enabled process-wide tracer."""
    tracer = Tracer(clock=clock, enabled=True)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> None:
    """Restore the free-when-off default."""
    set_tracer(Tracer(enabled=False))


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _as_spans(spans) -> list:
    if isinstance(spans, Tracer):
        return spans.finished_roots()
    if isinstance(spans, Span):
        return [spans]
    return list(spans)


def trace_skeleton(spans) -> list:
    """Structure-only view: names, workers, nesting — durations stripped.

    This is what the golden-trace regression test pins down: the span
    taxonomy and phase order are stable run to run, wall-clock noise is not.
    """
    roots = _as_spans(spans)

    def strip(span: Span) -> dict:
        out: dict[str, Any] = {"name": span.name}
        if span.children:
            out["children"] = [strip(c) for c in span.children]
        return out

    return [strip(r) for r in roots]


def chrome_trace(spans, *, align_roots: bool = False) -> dict:
    """Export to the Chrome ``chrome://tracing`` / Perfetto JSON format.

    Complete ("ph": "X") events with microsecond timestamps, one ``tid`` per
    worker (in order of first appearance). ``align_roots=True`` rebases each
    root tree to t=0 — useful when one artifact mixes clocks (a wall-clock
    retrieval trace next to a virtual-time generation trace).
    """
    roots = _as_spans(spans)
    events: list[dict] = []
    tids: dict[str, int] = {}

    def tid_of(worker: str) -> int:
        if worker not in tids:
            tids[worker] = len(tids)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tids[worker],
                    "args": {"name": worker},
                }
            )
        return tids[worker]

    if align_roots:
        bases = {id(r): r.start_s for r in roots}
    else:
        base = min((r.start_s for r in roots), default=0.0)
        bases = {id(r): base for r in roots}

    for root in roots:
        base = bases[id(root)]
        for span in root.walk():
            if not span.finished:
                continue
            events.append(
                {
                    "name": span.name,
                    "cat": root.name,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid_of(span.worker),
                    "ts": (span.start_s - base) * 1e6,
                    "dur": span.duration_s * 1e6,
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _jsonable(value: Any) -> Any:
    """Coerce attr values (incl. numpy scalars) into JSON-safe types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):
        try:
            return value.item()
        except Exception:  # pragma: no cover - exotic array-likes
            return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)
