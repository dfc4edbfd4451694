"""Unit tests for the fault models and the injector's determinism."""

import numpy as np
import pytest

from repro.core.errors import ShardCrashedError, ShardTimeoutError, TransientShardError
from repro.serving.faults import (
    CrashStop,
    FaultInjector,
    OutageWindow,
    Straggler,
    TransientFault,
    kill_shards,
)


def rng():
    return np.random.default_rng(0)


class TestCrashStop:
    def test_crashes_from_at_call(self):
        model = CrashStop(at_call=2)
        r = rng()
        assert model.on_call(0, 5, r) == 0.0
        assert model.on_call(1, 5, r) == 0.0
        with pytest.raises(ShardCrashedError) as exc:
            model.on_call(2, 5, r)
        assert exc.value.shard_id == 5

    def test_stays_crashed(self):
        model = CrashStop(at_call=0)
        for _ in range(3):
            with pytest.raises(ShardCrashedError):
                model.on_call(0, 1, rng())


class TestTransientFault:
    def test_fails_with_probability_and_recovers(self):
        model = TransientFault(0.5)
        r = rng()
        outcomes = []
        for i in range(200):
            try:
                model.on_call(i, 3, r)
                outcomes.append(True)
            except TransientShardError:
                outcomes.append(False)
        failures = outcomes.count(False)
        assert 50 < failures < 150  # roughly p=0.5
        assert any(outcomes)  # recovery: successes interleave

    def test_max_failures_bounds_the_burst(self):
        model = TransientFault(1.0, max_failures=3)
        r = rng()
        failures = 0
        for i in range(10):
            try:
                model.on_call(i, 0, r)
            except TransientShardError:
                failures += 1
        assert failures == 3  # recovered after the bounded burst


class TestOutageWindow:
    def test_window_fails_then_recovers(self):
        model = OutageWindow(start_call=1, n_calls=2)
        r = rng()
        assert model.on_call(0, 7, r) == 0.0
        for idx in (1, 2):
            with pytest.raises(TransientShardError):
                model.on_call(idx, 7, r)
        assert model.on_call(3, 7, r) == 0.0


class TestStraggler:
    def test_fixed_delay(self):
        model = Straggler(0.25)
        assert model.on_call(0, 0, rng()) == 0.25

    def test_heavy_tail_exceeds_base(self):
        model = Straggler(0.1, heavy_tail_alpha=2.0)
        delays = [model.on_call(i, 0, rng()) for i in range(5)]
        assert all(d >= 0.1 for d in delays)

    def test_call_restriction(self):
        model = Straggler(0.5, calls=[1])
        r = rng()
        assert model.on_call(0, 0, r) == 0.0
        assert model.on_call(1, 0, r) == 0.5
        assert model.on_call(2, 0, r) == 0.0


class TestFaultInjector:
    def test_wrap_shares_indices_and_preserves_surface(self, clustered):
        chaotic = kill_shards(clustered, [0])
        assert chaotic.n_clusters == clustered.n_clusters
        assert chaotic.ntotal == clustered.ntotal
        # wrapped shard delegates the full shard surface
        wrapped = chaotic.shards[0]
        assert wrapped.shard_id == 0
        assert len(wrapped) == len(clustered.shards[0])
        assert wrapped.index is clustered.shards[0].index
        # unwrapped shards are the same objects
        assert chaotic.shards[1] is clustered.shards[1]

    def test_killed_shard_raises_on_search(self, clustered, small_queries):
        chaotic = kill_shards(clustered, [2])
        with pytest.raises(ShardCrashedError):
            chaotic.shards[2].search(small_queries.embeddings[:2], 5)

    def test_unknown_shard_id_rejected(self, clustered):
        with pytest.raises(ValueError, match="unknown shard ids"):
            FaultInjector().wrap(clustered, {99: CrashStop()})

    def test_fault_log_records_outcomes(self, clustered, small_queries):
        injector = FaultInjector(seed=1)
        chaotic = injector.wrap(clustered, {0: OutageWindow(start_call=0, n_calls=1)})
        shard = chaotic.shards[0]
        with pytest.raises(TransientShardError):
            shard.search(small_queries.embeddings[:1], 5)
        shard.search(small_queries.embeddings[:1], 5)
        assert [e.kind for e in shard.log] == ["transient", "ok"]

    def test_straggler_past_the_timeout_sleeps_only_to_it(self, clustered, small_queries):
        """A delay longer than the call's ``timeout_s`` is served up to the
        deadline, then the call raises; the log keeps the delay drawn. A
        shorter delay is served in full and the call answers."""
        slept = []
        shard = FaultInjector(seed=2).wrap_shard(
            clustered.shards[0], Straggler(0.6, calls=[0, 1]), sleep=slept.append
        )
        q = small_queries.embeddings[:2]
        with pytest.raises(ShardTimeoutError) as exc:
            shard.search(q, 5, timeout_s=0.1)
        assert (exc.value.shard_id, exc.value.deadline_s) == (0, 0.1)
        assert slept == [0.1]
        shard.search(q, 5, timeout_s=1.0)
        assert slept == [0.1, 0.6]
        assert [(e.kind, e.delay_s) for e in shard.log] == [
            ("delay", 0.6),
            ("delay", 0.6),
        ]

    def test_same_seed_same_schedule(self, clustered, small_queries):
        """Satellite: two runs with one seed produce identical schedules."""

        def run_once():
            injector = FaultInjector(seed=11)
            chaotic = injector.wrap(
                clustered,
                {
                    1: [TransientFault(0.4), Straggler(1e-4, heavy_tail_alpha=2.0)],
                    3: TransientFault(0.3),
                },
            )
            logs = {}
            for shard_id in (1, 3):
                shard = chaotic.shards[shard_id]
                for _ in range(30):
                    try:
                        shard.search(small_queries.embeddings[:1], 5)
                    except TransientShardError:
                        pass
                logs[shard_id] = list(shard.log)
            return logs

        assert run_once() == run_once()
