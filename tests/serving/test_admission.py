"""Tests for admission control, deadline shedding, and the brownout ladder."""

import threading
import time

import numpy as np
import pytest

from repro.core.errors import AdmissionRejectedError, DeadlineExceededError
from repro.core.hierarchical import HermesSearcher
from repro.serving.admission import (
    DEFAULT_LADDER,
    AdmissionConfig,
    AdmissionController,
    BrownoutKnobs,
)
from repro.serving.cache import EXACT_HIT, MISS, CacheConfig
from repro.serving.frontend import DynamicBatcher, FrontendResult, ServingFrontend


@pytest.fixture(scope="module")
def searcher(clustered):
    return HermesSearcher(clustered)


@pytest.fixture(scope="module")
def queries(small_queries):
    return small_queries.embeddings


def exact_only_frontend(searcher, capacity=64):
    return ServingFrontend(searcher, cache_config=CacheConfig(capacity=capacity))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class _StubFrontend:
    """Frontend double: records search kwargs; an optional gate blocks the worker."""

    def __init__(self, k=5):
        self.k = k
        self.gate = threading.Event()
        self.gate.set()
        self.calls = []

    def cached_answer(self, query, *, k=None, clusters_to_search=None, deep_nprobe=None):
        return None  # no cache: every submit queues

    def search(
        self,
        queries,
        *,
        k=None,
        clusters_to_search=None,
        deep_nprobe=None,
        deadline_s=None,
        brownout=None,
        degradation_level=0,
    ):
        self.gate.wait(10)
        self.calls.append(
            {
                "n": len(queries),
                "deadline_s": deadline_s,
                "brownout": brownout,
                "level": degradation_level,
            }
        )
        nq = len(queries)
        kk = self.k if k is None else int(k)
        return FrontendResult(
            distances=np.zeros((nq, kk), dtype=np.float32),
            ids=np.zeros((nq, kk), dtype=np.int64),
            kinds=np.zeros(nq, dtype=np.int8),
            searched=nq,
            shard_queries=nq,
            degradation_level=degradation_level,
        )


class TestBrownoutKnobs:
    def test_apply_scales_and_floors(self):
        assert BrownoutKnobs().apply(3, 8) == (3, 8)
        assert BrownoutKnobs(m_scale=0.34, nprobe_scale=0.25).apply(3, 4) == (1, 1)
        assert BrownoutKnobs(m_scale=0.67, nprobe_scale=0.5).apply(6, 8) == (4, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutKnobs(m_scale=0.0)
        with pytest.raises(ValueError):
            BrownoutKnobs(nprobe_scale=1.5)

    def test_default_ladder_is_monotone(self):
        """Every level searches shallower than the one below it: a level
        that changed neither fan-out nor probe depth would be a step of the
        ladder that buys no capacity."""
        levels = [BrownoutKnobs()] + list(DEFAULT_LADDER)
        for lower, upper in zip(levels, levels[1:]):
            assert upper.m_scale <= lower.m_scale and upper.nprobe_scale <= lower.nprobe_scale
            assert upper.m_scale < lower.m_scale or upper.nprobe_scale < lower.nprobe_scale


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionConfig(default_deadline_s=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(delay_target_s=0.0)
        # Hysteresis: clearing must be at least as slow as escalating.
        with pytest.raises(ValueError):
            AdmissionConfig(escalate_after_s=0.2, clear_after_s=0.1)
        with pytest.raises(TypeError):
            AdmissionConfig(ladder=("not knobs",))
        with pytest.raises(ValueError):
            AdmissionConfig(service_ewma_alpha=0.0)

    def test_max_level_tracks_ladder(self):
        assert AdmissionConfig().max_level == len(DEFAULT_LADDER)
        assert AdmissionConfig(ladder=(BrownoutKnobs(),)).max_level == 1


class TestAdmissionController:
    def test_admit_rejects_full_queue(self):
        ctl = AdmissionController(AdmissionConfig(max_queue=2))
        ctl.admit(0)
        ctl.admit(1)
        with pytest.raises(AdmissionRejectedError) as exc:
            ctl.admit(2)
        assert exc.value.queue_depth == 2 and exc.value.max_queue == 2
        assert ctl.rejected == 1

    def test_deadline_resolution(self):
        ctl = AdmissionController(AdmissionConfig(default_deadline_s=0.5))
        assert ctl.deadline_for(None) == 0.5
        assert ctl.deadline_for(0.1) == 0.1
        assert AdmissionController().deadline_for(None) is None

    def test_should_shed_conservative_before_estimate(self):
        ctl = AdmissionController()
        assert not ctl.should_shed(None)
        assert ctl.should_shed(0.0) and ctl.should_shed(-1.0)
        # No EWMA yet: a positive budget is never shed.
        assert not ctl.should_shed(1e-9)

    def test_should_shed_tracks_service_ewma(self):
        ctl = AdmissionController(AdmissionConfig(service_ewma_alpha=0.5))
        ctl.record_service_time(0.1)
        assert ctl.service_estimate_s == pytest.approx(0.1)
        ctl.record_service_time(0.2)
        assert ctl.service_estimate_s == pytest.approx(0.15)
        assert ctl.should_shed(0.1)
        assert not ctl.should_shed(0.2)

    def test_single_spike_does_not_escalate(self):
        clock = FakeClock()
        ctl = AdmissionController(clock=clock)
        assert ctl.observe(10.0) == 0

    def test_escalation_one_step_per_window(self):
        clock = FakeClock()
        cfg = AdmissionConfig(
            delay_target_s=0.01, escalate_after_s=0.1, clear_after_s=0.3
        )
        ctl = AdmissionController(cfg, clock=clock)
        assert ctl.observe(0.02) == 0  # opens the above-target window
        clock.advance(0.05)
        assert ctl.observe(0.02) == 0  # window not yet elapsed
        clock.advance(0.05)
        assert ctl.observe(0.02) == 1
        assert ctl.observe(0.02) == 1  # window restarted: no double step
        clock.advance(0.1)
        assert ctl.observe(0.02) == 2
        clock.advance(1.0)
        assert ctl.observe(0.02) == 2  # capped at max_level

    def test_clearing_needs_longer_quiet_period(self):
        clock = FakeClock()
        cfg = AdmissionConfig(
            delay_target_s=0.01, escalate_after_s=0.1, clear_after_s=0.3
        )
        ctl = AdmissionController(cfg, clock=clock)
        ctl.observe(0.02)
        clock.advance(0.1)
        assert ctl.observe(0.02) == 1
        assert ctl.observe(0.001) == 1  # opens the below-target window
        clock.advance(0.2)
        assert ctl.observe(0.001) == 1  # escalate_after quiet is not enough
        clock.advance(0.1)
        assert ctl.observe(0.001) == 0  # clear_after quiet de-escalates

    def test_spike_resets_quiet_window(self):
        clock = FakeClock()
        cfg = AdmissionConfig(
            delay_target_s=0.01, escalate_after_s=0.1, clear_after_s=0.3
        )
        ctl = AdmissionController(cfg, clock=clock)
        ctl.observe(0.02)
        clock.advance(0.1)
        assert ctl.observe(0.02) == 1
        ctl.observe(0.001)
        clock.advance(0.25)
        ctl.observe(0.02)  # spike: the quiet window restarts
        ctl.observe(0.001)
        clock.advance(0.25)
        assert ctl.observe(0.001) == 1  # still not cleared

    def test_knobs_mapping(self):
        ctl = AdmissionController()
        assert ctl.knobs(0) == BrownoutKnobs()
        assert ctl.knobs(1) == DEFAULT_LADDER[0]
        assert ctl.knobs(2) == DEFAULT_LADDER[1]
        assert ctl.knobs(99) == DEFAULT_LADDER[-1]  # clamped

    def test_reset(self):
        ctl = AdmissionController(AdmissionConfig(max_queue=1))
        with pytest.raises(AdmissionRejectedError):
            ctl.admit(1)
        ctl.record_shed()
        ctl.record_service_time(0.1)
        ctl.reset()
        assert ctl.rejected == 0 and ctl.shed == 0
        assert ctl.service_estimate_s is None and ctl.level == 0


class TestBatcherAdmission:
    def test_bounded_queue_rejects_fail_fast(self):
        stub = _StubFrontend()
        stub.gate.clear()  # block the worker inside frontend.search
        q = np.zeros(8, dtype=np.float32)
        batcher = DynamicBatcher(
            stub,
            max_batch=1,
            max_wait_s=0.0,
            admission=AdmissionConfig(max_queue=2),
        )
        try:
            accepted = []
            with pytest.raises(AdmissionRejectedError):
                for _ in range(10):
                    accepted.append(batcher.submit(q, k=5))
            # Worker holds at most one in-flight request, so rejection hits
            # by the fourth submit at the latest.
            assert 2 <= len(accepted) <= 3
            assert batcher.stats.rejected == 1
            stub.gate.set()
            for f in accepted:
                assert f.result(timeout=10).kind == MISS
        finally:
            stub.gate.set()
            batcher.close()

    def test_spent_deadline_rejected_at_submit(self):
        stub = _StubFrontend()
        with DynamicBatcher(stub, admission=AdmissionConfig()) as batcher:
            with pytest.raises(DeadlineExceededError) as exc:
                batcher.submit(np.zeros(4, dtype=np.float32), deadline_s=0.0)
            assert exc.value.stage == "submit"
        # Without admission control an explicit spent deadline still rejects.
        with DynamicBatcher(_StubFrontend()) as batcher:
            with pytest.raises(DeadlineExceededError):
                batcher.submit(np.zeros(4, dtype=np.float32), deadline_s=-1.0)

    def test_default_deadline_propagates_to_search(self):
        stub = _StubFrontend()
        with DynamicBatcher(
            stub, max_wait_s=0.0, admission=AdmissionConfig(default_deadline_s=5.0)
        ) as batcher:
            batcher.submit(np.zeros(4, dtype=np.float32), k=5).result(timeout=10)
        budget = stub.calls[0]["deadline_s"]
        assert budget is not None and 0 < budget <= 5.0

    def test_expired_request_shed_at_dequeue(self):
        stub = _StubFrontend()
        stub.gate.clear()
        q = np.zeros(4, dtype=np.float32)
        batcher = DynamicBatcher(
            stub, max_batch=1, max_wait_s=0.0, admission=AdmissionConfig(max_queue=8)
        )
        try:
            ok = batcher.submit(q, k=5)  # no deadline: taken first, blocks
            doomed = batcher.submit(q, k=5, deadline_s=0.05)
            time.sleep(0.2)  # the doomed request expires while queued
            stub.gate.set()
            assert ok.result(timeout=10).kind == MISS
            with pytest.raises(DeadlineExceededError) as exc:
                doomed.result(timeout=10)
            assert exc.value.stage == "queue"
            assert batcher.stats.shed == 1
            assert batcher.admission.shed == 1
        finally:
            stub.gate.set()
            batcher.close()

    def test_brownout_level_reaches_search_and_result(self):
        fake = FakeClock()
        cfg = AdmissionConfig(
            delay_target_s=0.001, escalate_after_s=0.01, clear_after_s=100.0
        )
        ctl = AdmissionController(cfg, clock=fake)
        ctl.observe(1.0)
        fake.advance(0.02)
        assert ctl.observe(1.0) == 1  # force level 1; frozen clock keeps it
        stub = _StubFrontend()
        with DynamicBatcher(stub, max_wait_s=0.0, admission=ctl) as batcher:
            served = batcher.submit(np.zeros(4, dtype=np.float32), k=5).result(
                timeout=10
            )
        assert served.degradation_level == 1
        call = stub.calls[0]
        assert call["level"] == 1
        assert call["brownout"] == DEFAULT_LADDER[0]


class TestBrownoutFrontend:
    def test_brownout_shrinks_deep_search(self, searcher, queries):
        q = queries[:4]
        full = exact_only_frontend(searcher).search(q, k=5, clusters_to_search=3)
        degraded = exact_only_frontend(searcher).search(
            q, k=5, clusters_to_search=3, brownout=BrownoutKnobs(m_scale=0.34)
        )
        assert full.shard_queries == 4 * 3
        assert degraded.shard_queries == 4 * 1

    def test_degraded_results_cached_under_effective_key(self, searcher, queries):
        q = queries[:3]
        knobs = BrownoutKnobs(m_scale=0.34)
        frontend = exact_only_frontend(searcher)
        first = frontend.search(q, k=5, clusters_to_search=3, brownout=knobs)
        assert (first.kinds == MISS).all()
        # A full-quality request must not be served the degraded entry.
        full = frontend.search(q, k=5, clusters_to_search=3)
        assert (full.kinds == MISS).all()
        # ... but an equally-degraded repeat hits it exactly.
        again = frontend.search(q, k=5, clusters_to_search=3, brownout=knobs)
        assert (again.kinds == EXACT_HIT).all()
        assert np.array_equal(again.ids, first.ids)

    def test_frontend_spent_budget_rejected(self, searcher, queries):
        frontend = exact_only_frontend(searcher)
        with pytest.raises(DeadlineExceededError) as exc:
            frontend.search(queries[:2], k=5, deadline_s=0.0)
        assert exc.value.stage == "submit"

    def test_generous_budget_leaves_results_intact(self, searcher, queries):
        q = queries[:6]
        direct = searcher.search(q, k=5)
        res = exact_only_frontend(searcher).search(q, k=5, deadline_s=60.0)
        assert np.array_equal(res.ids, direct.ids)
