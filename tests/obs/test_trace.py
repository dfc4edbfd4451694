"""Unit tests for the span tracer: clocks, nesting, workers, exporters."""

import contextlib
import json
import threading

import numpy as np
import pytest

from repro.obs.trace import (
    ManualClock,
    Tracer,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    trace_skeleton,
)

pytestmark = pytest.mark.obs


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def tracer(clock):
    return Tracer(clock=clock, enabled=True)


class TestManualClock:
    def test_advances_and_sleeps(self, clock):
        assert clock() == 0.0
        clock.advance(1.5)
        clock.sleep(0.5)
        assert clock() == 2.0

    def test_negative_advance_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.advance(-0.1)


class TestSpanNesting:
    def test_context_manager_nests_and_times(self, tracer, clock):
        with tracer.span("outer", k=10) as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(0.25)
        assert outer.name == "outer"
        assert outer.attrs == {"k": 10}
        assert outer.duration_s == pytest.approx(1.25)
        assert inner.duration_s == pytest.approx(0.25)
        assert outer.children == [inner]
        assert tracer.finished_roots() == [outer]

    def test_siblings_attach_in_order(self, tracer, clock):
        with tracer.span("root"):
            with tracer.span("a"):
                clock.advance(0.1)
            with tracer.span("b"):
                clock.advance(0.1)
        (root,) = tracer.finished_roots()
        assert [c.name for c in root.children] == ["a", "b"]

    def test_span_closes_on_exception(self, tracer, clock):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                clock.advance(0.5)
                raise RuntimeError("fail inside span")
        (root,) = tracer.finished_roots()
        assert root.finished
        assert root.duration_s == pytest.approx(0.5)

    def test_set_attrs_inside_block(self, tracer):
        with tracer.span("s") as span:
            span.set(result="hit", n=3)
        assert span.attrs == {"result": "hit", "n": 3}

    def test_decorator_records_call(self, tracer, clock):
        @tracer.traced("work", kind="unit")
        def work(x):
            clock.advance(0.1)
            return x * 2

        assert work(21) == 42
        (root,) = tracer.finished_roots()
        assert root.name == "work"
        assert root.attrs == {"kind": "unit"}
        assert root.duration_s == pytest.approx(0.1)

    def test_walk_find_total(self, tracer, clock):
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("leaf"):
                    clock.advance(0.2)
        (root,) = tracer.finished_roots()
        assert len(root.find_all("leaf")) == 3
        assert root.total("leaf") == pytest.approx(0.6)
        assert root.find("leaf") is root.children[0]
        assert root.find("missing") is None


class TestWorkers:
    def test_worker_inherited_from_parent(self, tracer):
        with tracer.span("root", worker="node3") as root:
            with tracer.span("child") as child:
                pass
        assert root.worker == "node3"
        assert child.worker == "node3"

    def test_explicit_parent_crosses_threads(self, tracer, clock):
        with tracer.span("fanout") as parent:
            def shard_work(sid):
                with tracer.span("shard", parent=parent, worker=f"shard{sid}"):
                    pass

            threads = [
                threading.Thread(target=shard_work, args=(sid,)) for sid in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sorted(c.worker for c in parent.children) == [
            "shard0",
            "shard1",
            "shard2",
        ]
        # without an explicit parent, a pool thread would start its own root
        assert tracer.finished_roots() == [parent]


class TestDisabled:
    def test_disabled_returns_shared_null_context(self):
        tracer = Tracer(enabled=False)
        ctx1 = tracer.span("a", shard=1)
        ctx2 = tracer.span("b")
        assert ctx1 is ctx2  # one shared singleton: no per-call allocation
        with ctx1 as span:
            span.set(anything="goes")  # null span absorbs attribute writes
        assert tracer.finished_roots() == []

    @pytest.mark.parametrize("enabled", [False, True])
    def test_a_span_enters_through_an_exit_stack(self, enabled):
        """``ExitStack.enter_context`` calls ``type(cm).__enter__(cm)`` and
        the exit with the context first: the null context takes both forms
        as the recording one does, and lets an exception through."""
        tracer = Tracer(enabled=enabled)
        with contextlib.ExitStack() as stack:
            span = stack.enter_context(tracer.span("x"))
            span.set(a=1)
        with pytest.raises(KeyError):
            with contextlib.ExitStack() as stack:
                stack.enter_context(tracer.span("y"))
                raise KeyError("y")
        names = [r.name for r in tracer.finished_roots()]
        assert names == (["x", "y"] if enabled else [])

    def test_module_default_starts_disabled(self):
        assert get_tracer().enabled is False

    def test_enable_disable_roundtrip(self):
        tracer = enable_tracing()
        try:
            assert get_tracer() is tracer
            with get_tracer().span("visible"):
                pass
            assert [r.name for r in tracer.finished_roots()] == ["visible"]
        finally:
            disable_tracing()
        assert get_tracer().enabled is False

    def test_set_tracer_returns_previous(self):
        replacement = Tracer(enabled=True)
        previous = set_tracer(replacement)
        try:
            assert get_tracer() is replacement
        finally:
            set_tracer(previous)


class TestExplicitAPI:
    def test_start_span_and_finish(self, tracer, clock):
        root = tracer.start_span("batch", start_s=5.0, worker="batch0")
        child = tracer.record(
            "phase", start_s=5.0, end_s=7.0, parent=root, stride=0
        )
        root.finish(8.0)
        assert root.duration_s == 3.0
        assert child.worker == "batch0"  # inherited through explicit parent
        assert root.children == [child]
        assert tracer.finished_roots() == [root]

    def test_double_finish_rejected(self, tracer):
        span = tracer.start_span("s", start_s=0.0)
        span.finish(1.0)
        with pytest.raises(ValueError):
            span.finish(2.0)

    def test_end_before_start_rejected(self, tracer):
        span = tracer.start_span("s", start_s=2.0)
        with pytest.raises(ValueError):
            span.finish(1.0)

    def test_unfinished_duration_raises(self, tracer):
        span = tracer.start_span("s", start_s=0.0)
        with pytest.raises(ValueError):
            _ = span.duration_s

    def test_clear_drops_roots(self, tracer):
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.finished_roots() == []


class TestExporters:
    def _sample_tracer(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, enabled=True)
        with tracer.span("root", worker="main", k=np.int64(5)):
            clock.advance(0.5)
            with tracer.span("deep", worker="shard0"):
                clock.advance(1.0)
        return tracer

    def test_trace_skeleton_strips_durations(self):
        skeleton = trace_skeleton(self._sample_tracer())
        assert skeleton == [{"name": "root", "children": [{"name": "deep"}]}]

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self._sample_tracer())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"main", "shard0"}
        assert len(complete) == 2
        root_evt = next(e for e in complete if e["name"] == "root")
        deep_evt = next(e for e in complete if e["name"] == "deep")
        assert root_evt["dur"] == pytest.approx(1.5e6)  # microseconds
        assert deep_evt["ts"] == pytest.approx(root_evt["ts"] + 0.5e6)
        assert root_evt["args"]["k"] == 5  # numpy scalar coerced to int
        assert json.dumps(doc)  # whole artifact is JSON-serializable

    def test_chrome_trace_align_roots(self):
        tracer = Tracer(enabled=True)
        tracer.record("wall", start_s=1000.0, end_s=1001.0)
        tracer.record("virtual", start_s=0.0, end_s=2.0)
        doc = chrome_trace(tracer, align_roots=True)
        starts = {
            e["name"]: e["ts"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert starts["wall"] == pytest.approx(0.0)
        assert starts["virtual"] == pytest.approx(0.0)
