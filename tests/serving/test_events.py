"""Tests for the discrete-event engine."""

import pytest

from repro.serving.events import EventLoop, Resource


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, lambda: seen.append("b"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(3.0, lambda: seen.append("c"))
        loop.run()
        assert seen == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_ties_run_in_schedule_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(1.0, lambda: seen.append(2))
        loop.run()
        assert seen == [1, 2]

    def test_nested_scheduling(self):
        loop = EventLoop()
        seen = []

        def outer():
            seen.append(("outer", loop.now))
            loop.schedule(0.5, lambda: seen.append(("inner", loop.now)))

        loop.schedule(1.0, outer)
        loop.run()
        assert seen == [("outer", 1.0), ("inner", 1.5)]

    def test_until_stops_early(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(5.0, lambda: seen.append(2))
        loop.run(until=2.0)
        assert seen == [1]
        assert loop.now == 2.0
        assert loop.pending == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, lambda: None)

    def test_runaway_guard(self):
        loop = EventLoop()

        def forever():
            loop.schedule(0.0, forever)

        loop.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="runaway"):
            loop.run(max_events=100)


class TestResource:
    def test_immediate_grant_when_free(self):
        loop = EventLoop()
        res = Resource(loop, "r")
        granted = []
        res.acquire(lambda: granted.append(loop.now))
        assert granted == [0.0]
        assert res.busy

    def test_fifo_queueing(self):
        loop = EventLoop()
        res = Resource(loop, "r")
        order = []

        def holder():
            loop.schedule(1.0, lambda: (order.append("first"), res.release()))

        def second():
            order.append("second")
            res.release()

        res.acquire(holder)
        res.acquire(second)
        res.acquire(lambda: order.append("third"))
        assert res.queue_length == 2
        loop.run()
        assert order == ["first", "second", "third"]

    def test_release_idle_raises(self):
        loop = EventLoop()
        with pytest.raises(RuntimeError):
            Resource(loop, "r").release()

    def test_busy_seconds_accumulate(self):
        loop = EventLoop()
        res = Resource(loop, "r")
        for seconds in (2.0, 3.0):  # the second waits for the first
            res.acquire(lambda seconds=seconds: loop.schedule(seconds, res.release))
        loop.run()
        assert res.busy_seconds == pytest.approx(5.0)
        assert loop.now == pytest.approx(5.0)
