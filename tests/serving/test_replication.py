"""Tests for replica groups: failover, probing, and recovery."""

import dataclasses

import numpy as np
import pytest

from repro.core.errors import ShardCrashedError, ShardTimeoutError, TransientShardError
from repro.core.hierarchical import HermesSearcher
from repro.serving.faults import CrashStop, FaultInjector, FaultyShard, Straggler
from repro.serving.replication import (
    BREAKER_THRESHOLD,
    PROBE_INTERVAL,
    RECOVERY_SUCCESSES,
    ReplicaGroup,
    kill_replica,
    replica_groups,
    replicate_datastore,
)


@pytest.fixture(scope="module")
def queries(small_queries):
    return small_queries.embeddings


class _FlakyReplica:
    """Replica wrapper that fails while ``failing`` is set; counts calls."""

    def __init__(self, inner, exc=TransientShardError):
        self._inner = inner
        self._exc = exc
        self.failing = True
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def search(self, queries, k, *, nprobe=None, kept=None, timeout_s=None):
        self.calls += 1
        if self.failing:
            raise self._exc(self._inner.shard_id)
        return self._inner.search(
            queries, k, nprobe=nprobe, kept=kept, timeout_s=timeout_s
        )


class TestReplicaGroup:
    def test_shard_surface_delegates(self, clustered, queries):
        shard = clustered.shards[0]
        group = ReplicaGroup([shard, shard])
        assert group.shard_id == shard.shard_id
        assert len(group) == len(shard)
        assert group.n_replicas == 2
        assert np.array_equal(group.global_ids, shard.global_ids)
        assert np.array_equal(group.centroid, shard.centroid)
        direct = shard.search(queries[:4], 5)
        via = group.search(queries[:4], 5)
        assert np.array_equal(via[0], direct[0])
        assert np.array_equal(via[1], direct[1])

    def test_validation(self, clustered):
        with pytest.raises(ValueError, match="at least one"):
            ReplicaGroup([])
        with pytest.raises(ValueError, match="disagree on shard_id"):
            ReplicaGroup([clustered.shards[0], clustered.shards[1]])

    def test_crash_fails_over_within_the_call(self, clustered, queries):
        shard = clustered.shards[2]
        dead = FaultInjector(7).wrap_shard(shard, CrashStop(at_call=0))
        group = ReplicaGroup([dead, shard])
        direct = shard.search(queries[:4], 5)
        served = group.search(queries[:4], 5)
        assert np.array_equal(served[1], direct[1])
        assert group.failovers == 1
        assert group.out_replicas() == (0,)
        # The tripped replica is skipped entirely until a probe is due.
        for _ in range(PROBE_INTERVAL - 2):
            group.search(queries[:4], 5)
        assert dead.calls == 1
        assert group.failovers == 1

    def test_transient_failures_count_to_threshold(self, clustered, queries):
        shard = clustered.shards[1]
        flaky = _FlakyReplica(shard)
        group = ReplicaGroup([flaky, shard])
        for _ in range(BREAKER_THRESHOLD):
            assert group.out_replicas() == ()  # still under threshold
            group.search(queries[:2], 5)
        assert group.out_replicas() == (0,)  # the threshold opens the breaker
        group.search(queries[:2], 5)
        assert flaky.calls == BREAKER_THRESHOLD  # no longer tried once open
        assert group.failovers == BREAKER_THRESHOLD

    def test_timeout_ends_the_call_without_failover(self, clustered, queries):
        """A straggling replica gets the call's ``timeout_s`` and times out:
        the budget is spent, so the group re-raises instead of trying the
        next replica, and the straggler's breaker counts the failure (one
        opens it)."""
        shard = clustered.shards[4]
        slept = []
        slow = FaultInjector(3).wrap_shard(shard, Straggler(0.6), sleep=slept.append)
        spare = _FlakyReplica(shard)
        spare.failing = False
        group = ReplicaGroup([slow, spare])
        with pytest.raises(ShardTimeoutError):
            group.search(queries[:2], 5, timeout_s=0.1)
        assert slept == [0.1]
        assert spare.calls == 0
        assert group.failovers == 0
        assert BREAKER_THRESHOLD == 1 and group.out_replicas() == (0,)
        group.search(queries[:2], 5, timeout_s=0.1)  # the spare serves now
        assert spare.calls == 1

    def test_all_replicas_dead_reraises(self, clustered, queries):
        shard = clustered.shards[3]
        injector = FaultInjector(9)
        group = ReplicaGroup(
            [
                injector.wrap_shard(shard, CrashStop(at_call=0)),
                injector.wrap_shard(shard, CrashStop(at_call=0)),
            ]
        )
        with pytest.raises(ShardCrashedError):
            group.search(queries[:2], 5)
        assert group.out_replicas() == (0, 1)
        # With nothing healthy, every call probes everything (still dead).
        with pytest.raises(ShardCrashedError):
            group.search(queries[:2], 5)

    def test_probe_recovery_readmits_after_streak(self, clustered, queries):
        shard = clustered.shards[4]
        flaky = _FlakyReplica(shard, exc=ShardCrashedError)
        group = ReplicaGroup([flaky, shard])
        q = queries[:2]
        group.search(q, 5)  # call 1: crash trips the breaker, failover serves
        assert group.out_replicas() == (0,)
        for _ in range(PROBE_INTERVAL - 1):  # the probe that ends these fails
            group.search(q, 5)
        assert flaky.calls == 2
        flaky.failing = False
        for streak in range(1, RECOVERY_SUCCESSES + 1):
            assert group.out_replicas() == (0,)  # streak short: still out
            for _ in range(PROBE_INTERVAL):  # healthy replica, then a probe
                group.search(q, 5)
            assert flaky.calls == 2 + streak
        assert group.out_replicas() == ()  # the full streak re-admits it
        assert group.recoveries == 1
        group.search(q, 5)  # back in normal selection
        assert flaky.calls == 3 + RECOVERY_SUCCESSES

    def test_probes_are_rate_limited(self, clustered, queries):
        shard = clustered.shards[5]
        flaky = _FlakyReplica(shard, exc=ShardCrashedError)
        group = ReplicaGroup([flaky, shard])
        for _ in range(3 * PROBE_INTERVAL):
            group.search(queries[:2], 5)
        # Initial trip (call 1) + one probe per interval (three of them).
        assert flaky.calls == 4
        assert group.out_replicas() == (0,)


class TestReplicateDatastore:
    def test_structure(self, clustered):
        rep = replicate_datastore(clustered, 2)
        assert len(rep.shards) == clustered.config.n_clusters
        groups = replica_groups(rep)
        assert len(groups) == len(rep.shards)
        assert all(g.n_replicas == 2 for g in groups)
        assert [g.shard_id for g in groups] == [
            s.shard_id for s in clustered.shards
        ]
        with pytest.raises(ValueError):
            replicate_datastore(clustered, 0)

    def test_search_equivalent_to_unreplicated(self, clustered, queries):
        base = HermesSearcher(clustered).search(queries, k=5)
        rep = HermesSearcher(replicate_datastore(clustered, 2)).search(
            queries, k=5
        )
        assert np.array_equal(rep.ids, base.ids)
        assert np.array_equal(rep.distances, base.distances)

    def test_replica_kill_costs_no_quality(self, clustered, queries):
        """Killing one replica of every shard leaves results bit-identical —
        the failover path serves the exact copy."""
        base = HermesSearcher(clustered).search(queries, k=5)
        rep = replicate_datastore(clustered, 2)
        for group in replica_groups(rep):
            kill_replica(group, 0, seed=3)
        result = HermesSearcher(rep).search(queries, k=5)
        assert np.array_equal(result.ids, base.ids)
        assert not result.degraded
        groups = replica_groups(rep)
        assert sum(g.failovers for g in groups) >= len(groups)
        assert all(g.out_replicas() == (0,) for g in groups)

    def test_kill_is_local_to_the_replicated_copy(self, clustered):
        copy = dataclasses.replace(clustered, shards=list(clustered.shards))
        rep = replicate_datastore(copy, 2)
        kill_replica(replica_groups(rep)[0], 0)
        # The source datastore's shard objects are untouched.
        assert not isinstance(clustered.shards[0], FaultyShard)
