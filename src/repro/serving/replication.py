"""Replica groups: health-aware failover so node death costs latency, not NDCG.

The fault layer so far makes the fleet *degrade* gracefully — a crashed
shard's candidates simply vanish from the merge. That is the right floor,
but Hermes's one-index-per-node deployment makes it a permanent quality
loss: semantic clusters are unique, so a dead node removes a topic until a
human reboots it. Replication closes that gap: each cluster's index runs on
``n_replicas`` nodes, and a :class:`ReplicaGroup` wraps them behind the
:class:`~repro.core.clustering.Shard` surface so it drops into a
:class:`~repro.core.clustering.ClusteredDatastore` — and therefore under
the routers, the hierarchical searcher (in either worker mode), and the
fault injector — unchanged.

Selection and failover:

- replica health is tracked by the existing
  :class:`~repro.core.policy.ShardHealth` breaker, indexed by replica
  instead of by shard. A replica whose breaker is open is skipped.
- a call tries the preferred (lowest-index healthy) replica first; a
  :class:`~repro.core.errors.ShardError` fails over to the next healthy
  replica *within the same call* (``retrieval_failovers_total``), so the
  query pays one extra attempt of latency instead of losing the cluster.
  :class:`~repro.core.errors.ShardCrashedError` trips the breaker
  immediately; transient errors count toward its threshold. A
  :class:`~repro.core.errors.ShardTimeoutError` counts too, but ends the
  call: the call's ``timeout_s`` is spent, so no replica could answer in it.
- **background recovery**: every :data:`PROBE_INTERVAL` group calls, one
  downed replica is probed by putting it first in the failover order — its
  success serves the call (replicas are exact copies), its failure falls
  through to a healthy replica. After :data:`RECOVERY_SUCCESSES`
  *consecutive* probe successes the replica is re-admitted to normal selection
  (``retrieval_replica_recoveries_total``); any probe failure resets the
  streak. Until re-admission, a flaky replica sees at most one call per
  probe interval.

Only when every replica fails in one call does the group re-raise the last
error — at which point the searcher's own degradation machinery (breaker,
``failed_shards``, +inf candidate slots) takes over, exactly as it would
for an unreplicated shard.
"""

from __future__ import annotations

import threading
from typing import Iterable

from ..core.clustering import ClusteredDatastore
from ..core.errors import ShardCrashedError, ShardError, ShardTimeoutError
from ..core.policy import ShardHealth
from ..obs.metrics import get_registry

__all__ = ["ReplicaGroup", "replicate_datastore", "replica_groups", "kill_replica"]

#: A downed replica is probed on every this-many-th group call.
PROBE_INTERVAL = 8
#: Consecutive probe successes that re-admit a downed replica.
RECOVERY_SUCCESSES = 3
#: Transient failures that take a replica out of selection (a crash takes
#: it out at once).
BREAKER_THRESHOLD = 1


class ReplicaGroup:
    """N replicas of one shard behind the standard shard surface."""

    def __init__(self, replicas: Iterable) -> None:
        self.replicas = list(replicas)
        if not self.replicas:
            raise ValueError("a replica group needs at least one replica")
        ids = {int(r.shard_id) for r in self.replicas}
        if len(ids) != 1:
            raise ValueError(f"replicas disagree on shard_id: {sorted(ids)}")
        self.shard_id = ids.pop()
        # The fleet breaker, repurposed per replica: cooldown is irrelevant
        # because the group never tick()s — an open replica stays out until
        # the probe loop closes it explicitly.
        self.health = ShardHealth(
            len(self.replicas), threshold=BREAKER_THRESHOLD, cooldown=1
        )
        self._lock = threading.Lock()
        self._calls = 0
        self._probe_streak = [0] * len(self.replicas)
        self.failovers = 0
        self.recoveries = 0

    # Everything but ``search`` goes to the first replica — replicas are exact
    # copies over one shared index, so a mutation through it reaches them all.
    def __getattr__(self, name: str):
        return getattr(self.replicas[0], name)

    def __len__(self) -> int:
        return len(self.replicas[0])

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def out_replicas(self) -> tuple:
        """Replica indices currently excluded from normal selection."""
        return tuple(
            i for i in range(len(self.replicas)) if self.health.is_open(i)
        )

    # -- selection ----------------------------------------------------------
    def _attempt_order(self) -> tuple[list, frozenset]:
        """Healthy replicas in preference order, a due probe prepended."""
        with self._lock:
            self._calls += 1
            probe_due = self._calls % PROBE_INTERVAL == 0
        out = set()
        healthy = []
        for i in range(len(self.replicas)):
            if self.health.is_open(i):
                out.add(i)
            else:
                healthy.append(i)
        order = list(healthy)
        probing = frozenset()
        if out:
            if probe_due and healthy:
                # Probe the longest-out replica by serving this call from it
                # (fallback to a healthy replica keeps the call safe).
                probe = min(out)
                order = [probe] + healthy
                probing = frozenset([probe])
            elif not healthy:
                # Nothing healthy left: every call is a probe of everything.
                order = sorted(out)
                probing = frozenset(out)
        return order, probing

    def _record_failure(self, idx: int, exc: ShardError, probing: bool) -> None:
        if probing:
            with self._lock:
                self._probe_streak[idx] = 0
        if isinstance(exc, ShardCrashedError):
            self.health.trip(idx)
        else:
            self.health.record_failure(idx)

    def _record_success(self, idx: int, probing: bool) -> None:
        if not probing:
            self.health.record_success(idx)
            return
        with self._lock:
            self._probe_streak[idx] += 1
            recovered = self._probe_streak[idx] >= RECOVERY_SUCCESSES
            if recovered:
                self._probe_streak[idx] = 0
                self.recoveries += 1
        if recovered:
            self.health.record_success(idx)  # closes the breaker: re-admitted
            get_registry().counter(
                "retrieval_replica_recoveries_total",
                "replicas re-admitted after consecutive probe successes",
            ).inc(shard=self.shard_id)

    def search(self, queries, k, *, nprobe=None, kept=None, timeout_s=None):
        """Serve from the first replica that answers; fail over on a
        ShardError other than a timeout (the call's budget is spent)."""
        order, probing = self._attempt_order()
        registry = get_registry()
        last_exc: ShardError | None = None
        try:
            for attempt, idx in enumerate(order):
                try:
                    result = self.replicas[idx].search(
                        queries, k, nprobe=nprobe, kept=kept, timeout_s=timeout_s
                    )
                except ShardError as exc:
                    self._record_failure(idx, exc, idx in probing)
                    if isinstance(exc, ShardTimeoutError):
                        raise  # no time left to try another replica
                    last_exc = exc
                    if attempt + 1 < len(order):
                        self.failovers += 1
                        registry.counter(
                            "retrieval_failovers_total",
                            "calls failed over to another replica of the same shard",
                        ).inc(shard=self.shard_id)
                    continue
                self._record_success(idx, idx in probing)
                return result
        finally:
            registry.gauge(
                "retrieval_replicas_out",
                "replicas currently excluded from selection",
            ).set(len(self.out_replicas()), shard=self.shard_id)
        assert last_exc is not None
        raise last_exc


def replicate_datastore(
    datastore: ClusteredDatastore, n_replicas: int = 2
) -> ClusteredDatastore:
    """A datastore whose every shard is an ``n_replicas``-wide ReplicaGroup.

    Replicas share the underlying index (this process models N nodes serving
    the same cluster; memory is not duplicated). To inject a fault into one
    replica, wrap it in place afterwards, as :func:`kill_replica` does.
    """
    from dataclasses import replace

    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    groups = [ReplicaGroup([shard] * n_replicas) for shard in datastore.shards]
    return replace(datastore, shards=groups)


def replica_groups(datastore: ClusteredDatastore) -> list:
    """The ReplicaGroup shards of a datastore (for inspection/chaos)."""
    return [s for s in datastore.shards if isinstance(s, ReplicaGroup)]


def kill_replica(group: ReplicaGroup, replica_index: int, *, seed: int = 0) -> None:
    """Crash-stop one replica in place from its next call."""
    from .faults import CrashStop, FaultInjector

    group.replicas[replica_index] = FaultInjector(seed).wrap_shard(
        group.replicas[replica_index], CrashStop()
    )
