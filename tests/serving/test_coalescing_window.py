"""When ``DynamicBatcher`` holds its coalescing window, and when it does not.

The worker holds a batch open for at most ``max_wait_s``, and only when a
companion is likely: the head queued behind a busy worker, or at least half
of the last ``max_batch`` gaps between queued submits were shorter than the
window (the low median gap is; an empty history counts as dense). Otherwise
a lone miss is searched at once.

- the rule (hypothesis): the O(1) ring-and-count decision equals the low
  median of the remembered gaps against the window — ``np.median`` whenever
  the middle pair of gaps sits on one side of it — and the busy clause always
  holds;
- the batcher, with a 5 s window so that a hold is unmistakable and a clock
  the test can jump past it: a lone miss after sparse traffic goes at once
  (and the admission controller sees its real queueing), back-to-back
  submits form one batch, a request behind a busy worker waits for company,
  and an empty history holds;
- concurrency: the ring's running count survives four client threads.
"""

import statistics
import sys
import threading
import time
from concurrent.futures import wait
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer, set_tracer
from repro.serving.admission import AdmissionController
from repro.serving.cache import MISS
from repro.serving.frontend import DynamicBatcher, FrontendResult, _ArrivalGaps

WINDOW_S = 5.0
QUERY = np.ones(4, dtype=np.float32)


class JumpClock:
    """``perf_counter`` plus the jumps the test makes: a held window ends
    when the test jumps past it, and a gap that spans a jump is long."""

    def __init__(self) -> None:
        self.offset = 0.0

    def __call__(self) -> float:
        return time.perf_counter() + self.offset

    def jump(self) -> None:
        self.offset += 2 * WINDOW_S


class MissFrontend:
    """Frontend double: every submit queues; ``gate`` blocks the worker
    inside ``search`` and ``entered`` says it got there."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()
        self.batches: list = []

    def cached_answer(self, query, **params):
        return None

    def search(self, queries, **params):
        self.entered.set()
        self.gate.wait(10)
        self.batches.append(len(queries))
        n = len(queries)
        return FrontendResult(
            distances=np.zeros((n, 1), dtype=np.float32),
            ids=np.zeros((n, 1), dtype=np.int64),
            kinds=np.full(n, MISS, dtype=np.int8),
            searched=n,
            shard_queries=n,
        )


class RecordingAdmission(AdmissionController):
    """Admission control that keeps every sojourn the batcher reports."""

    def __init__(self) -> None:
        super().__init__()
        self.waits: list = []

    def observe(self, queue_delay_s: float) -> int:
        self.waits.append(queue_delay_s)
        return super().observe(queue_delay_s)


def settle(futures, clock: JumpClock) -> None:
    """Wait for *futures*, jumping the clock past any window holding them."""
    for _ in range(200):
        if not wait(futures, timeout=0.05).not_done:
            return
        clock.jump()
    raise AssertionError("futures never resolved")


def sparse_history(batcher: DynamicBatcher, clock: JumpClock, n: int) -> None:
    """*n* lone requests, each a long gap after the one before."""
    for _ in range(n):
        settle([batcher.submit(QUERY)], clock)
        clock.jump()


@pytest.fixture()
def obs():
    """A fresh registry and tracer, installed before the batcher starts (its
    worker binds both)."""
    registry, tracer = MetricsRegistry(), Tracer()
    previous = set_registry(registry), set_tracer(tracer)
    try:
        yield registry, tracer
    finally:
        set_registry(previous[0])
        set_tracer(previous[1])


class TestHoldRule:
    @given(
        gaps=st.lists(
            st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 1.0])), max_size=40
        ),
        size=st.integers(1, 9),
        window=st.sampled_from([0.5, 1.0, 2.0]),
        start=st.floats(0.0, 1e4),
    )
    def test_ring_count_is_the_median_rule(self, gaps, size, window, start):
        arrivals = list(accumulate(gaps, initial=start))
        history = _ArrivalGaps(size, window)
        for at in arrivals:
            history.record(at)
        # The gaps exactly as ``record`` computes them, the last *size* kept.
        recent = [b - a for a, b in zip(arrivals, arrivals[1:])][-size:]
        decision = history.hold(False)
        if not recent:
            assert decision  # no history yet: hold, as a fixed window did
        else:
            assert decision == (statistics.median_low(recent) < window)
            ordered = sorted(recent)
            lo, hi = ordered[(len(recent) - 1) // 2], ordered[len(recent) // 2]
            if (lo < window) == (hi < window):  # always so for an odd count
                assert decision == (np.median(recent) < window)
        assert history.hold(True)  # behind a busy worker: always hold


class TestWindow:
    def test_lone_miss_after_sparse_traffic_goes_at_once(self, obs):
        """The window is a timer the head paid whatever the arrival rate;
        with sparse arrivals it is not held at all."""
        registry, tracer = obs
        frontend, clock = MissFrontend(), JumpClock()
        with DynamicBatcher(frontend, max_batch=4, max_wait_s=WINDOW_S, clock=clock) as batcher:
            sparse_history(batcher, clock, 3)
            started = time.perf_counter()
            served = batcher.submit(QUERY).result(timeout=1.0)
            assert time.perf_counter() - started < 1.0
        assert served.kind == MISS and frontend.batches == [1, 1, 1, 1]
        # Only the very first request, with no history yet, was held.
        spans = [s for s in tracer.finished_roots() if s.name == "coalesce"]
        assert [s.attrs["held"] for s in spans] == [True, False, False, False]
        assert registry.get("frontend_coalesce_held_total").total() == 1

    def test_admission_sees_real_queueing_not_the_window(self, obs):
        """The sojourn the brownout ladder climbs on is queueing: a lone miss
        on an idle worker reports a wait well under the window."""
        frontend, clock, admission = MissFrontend(), JumpClock(), RecordingAdmission()
        with DynamicBatcher(
            frontend, max_batch=4, max_wait_s=WINDOW_S, clock=clock, admission=admission
        ) as batcher:
            sparse_history(batcher, clock, 3)
            started = time.perf_counter()
            batcher.submit(QUERY).result(timeout=1.0)
            assert time.perf_counter() - started < 1.0
        assert len(admission.waits) == 4 and admission.waits[-1] < 1.0

    def test_back_to_back_submits_form_one_batch(self):
        frontend, clock = MissFrontend(), JumpClock()
        with DynamicBatcher(frontend, max_batch=4, max_wait_s=WINDOW_S, clock=clock) as batcher:
            for _ in range(2):
                settle([batcher.submit(QUERY) for _ in range(4)], clock)
                clock.jump()  # one long gap between the rounds: still dense
        assert frontend.batches == [4, 4]
        assert batcher.stats.batches == 2 and batcher.stats.max_batch == 4

    def test_request_behind_a_busy_worker_is_held_for_a_companion(self):
        frontend, clock = MissFrontend(), JumpClock()
        with DynamicBatcher(frontend, max_batch=4, max_wait_s=WINDOW_S, clock=clock) as batcher:
            sparse_history(batcher, clock, 4)
            frontend.gate.clear()
            frontend.entered.clear()
            first = batcher.submit(QUERY)  # sparse: searched at once, then blocks
            assert frontend.entered.wait(5)
            # Queued while the worker is busy; its own gap history is sparse
            # (one short gap of four), so only the busy clause holds it.
            behind = batcher.submit(QUERY)
            frontend.gate.set()
            first.result(timeout=5)
            time.sleep(0.2)
            assert not behind.done()
            companion = batcher.submit(QUERY)
            settle([behind, companion], clock)
        assert frontend.batches == [1, 1, 1, 1, 1, 2]

    def test_gap_ring_under_concurrent_submits(self):
        """Four clients, a 10 us switch interval: the running count is still
        the count of the ring's short flags (an unlocked update would lose
        one), and every request is served."""
        frontend = MissFrontend()
        clients, per_client = 4, 150
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DynamicBatcher(frontend, max_batch=8, max_wait_s=0.001) as batcher:

                def client() -> None:
                    for _ in range(per_client):
                        batcher.submit(QUERY).result(timeout=30)

                threads = [threading.Thread(target=client) for _ in range(clients)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        gaps = batcher._gaps
        assert len(gaps._short) == 8 and gaps._n_short == sum(gaps._short)
        assert batcher.stats.requests == sum(frontend.batches) == clients * per_client

    def test_empty_history_holds(self):
        frontend, clock = MissFrontend(), JumpClock()
        with DynamicBatcher(frontend, max_batch=2, max_wait_s=WINDOW_S, clock=clock) as batcher:
            head = batcher.submit(QUERY)
            time.sleep(0.2)
            assert not head.done()
            companion = batcher.submit(QUERY)
            assert head.result(timeout=5).kind == companion.result(timeout=5).kind == MISS
        assert frontend.batches == [2]
