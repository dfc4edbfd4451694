"""Latency-accounting invariants over span trees.

The test harness half of ``repro.obs``: a traced pipeline is only useful for
latency decomposition if its spans actually account for time coherently.
:func:`validate_span_tree` checks the structural invariants every exporter
and breakdown table relies on:

1. every span is finished and has non-negative duration;
2. every child interval lies inside its parent's interval (no orphans
   escaping their stage);
3. siblings executing on the **same worker** do not overlap (a serial
   executor cannot run two spans at once); siblings on different workers
   (the shard fan-out, pipelined retrieval vs. GPU) may;
4. as a corollary of 2+3, the summed duration of same-worker children never
   exceeds the parent's duration.

``eps`` absorbs floating-point timestamp arithmetic; it defaults to zero
because both the wall clock (monotonic ``perf_counter`` reads) and the
generation timeline's virtual clock produce exactly ordered timestamps.
"""

from __future__ import annotations

__all__ = ["TraceInvariantError", "validate_span_tree", "validate_trace"]


class TraceInvariantError(AssertionError):
    """A span tree violated a latency-accounting invariant."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise TraceInvariantError(message)


def validate_span_tree(root, *, eps: float = 0.0) -> int:
    """Validate one span tree; returns the number of spans checked.

    Raises :class:`TraceInvariantError` on the first violation, with a
    message naming the offending spans.
    """
    checked = 0
    stack = [root]
    while stack:
        span = stack.pop()
        checked += 1
        _check(span.finished, f"span {span.name!r} was never finished")
        _check(
            span.end_s >= span.start_s,
            f"span {span.name!r} has negative duration "
            f"[{span.start_s}, {span.end_s}]",
        )
        children = list(span.children)
        for child in children:
            _check(child.finished, f"span {child.name!r} was never finished")
            _check(
                child.start_s >= span.start_s - eps
                and child.end_s <= span.end_s + eps,
                f"child {child.name!r} [{child.start_s}, {child.end_s}] escapes "
                f"parent {span.name!r} [{span.start_s}, {span.end_s}]",
            )
        # Same-worker siblings must serialize.
        by_worker: dict = {}
        for child in children:
            by_worker.setdefault(child.worker, []).append(child)
        for worker, group in by_worker.items():
            group = sorted(group, key=lambda s: (s.start_s, s.end_s))
            for left, right in zip(group, group[1:]):
                _check(
                    right.start_s >= left.end_s - eps,
                    f"siblings {left.name!r} and {right.name!r} overlap on "
                    f"worker {worker!r}: [{left.start_s}, {left.end_s}] vs "
                    f"[{right.start_s}, {right.end_s}]",
                )
            same_as_parent = worker == span.worker
            if same_as_parent:
                total = sum(c.end_s - c.start_s for c in group)
                _check(
                    total <= (span.end_s - span.start_s) + eps * max(1, len(group)),
                    f"children of {span.name!r} on worker {worker!r} sum to "
                    f"{total}, exceeding parent duration "
                    f"{span.end_s - span.start_s}",
                )
        stack.extend(children)
    return checked


def validate_trace(spans, *, eps: float = 0.0) -> int:
    """Validate a tracer, a single span, or an iterable of root spans."""
    from .trace import _as_spans

    total = 0
    for root in _as_spans(spans):
        total += validate_span_tree(root, eps=eps)
    return total
