"""Chaos suite: retry, deadline, breaker, and degradation invariants.

Deterministic fault injection (seeded models from
:mod:`repro.serving.faults`) drives the searcher's survival machinery
(:class:`repro.core.policy.RetrievalPolicy`). The invariants here are
the acceptance criteria of the fault-tolerance layer:

- a crash-stopped shard degrades the batch instead of aborting it, and
  queries routed to surviving clusters score exactly what they score on a
  healthy fleet;
- a transient shard recovers inside the retry budget and leaves
  ``failed_shards`` empty;
- a straggling shard is cut off by the deadline;
- repeated failures open the circuit breaker, which stops probing the dead
  shard until the cooldown expires.
"""

import numpy as np
import pytest

from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.errors import RetrievalUnavailableError
from repro.core.hierarchical import HermesSearcher
from repro.core.policy import RetrievalPolicy
from repro.datastore.embeddings import make_corpus
from repro.metrics.ndcg import ndcg_single
from repro.serving.faults import (
    CrashStop,
    FaultInjector,
    OutageWindow,
    Straggler,
    TransientFault,
    kill_shards,
)
from repro.serving.replication import replica_groups, replicate_datastore


@pytest.fixture(scope="module")
def healthy_result(clustered, small_queries):
    return HermesSearcher(clustered).search(small_queries.embeddings, clusters_to_search=3)


class TestCrashStopDegradation:
    """1 of 10 shards crash-stopped: degrade, never abort."""

    def test_batch_survives_with_degraded_accounting(self, clustered, small_queries):
        dead = 4
        chaotic = kill_shards(clustered, [dead], seed=0)
        searcher = HermesSearcher(chaotic, policy=RetrievalPolicy(max_attempts=2))
        result = searcher.search(small_queries.embeddings, clusters_to_search=3)
        assert result.degraded
        assert result.failed_shards == (dead,)
        assert result.ids.shape == (len(small_queries), 5)

    def test_surviving_cluster_queries_score_healthy(
        self, clustered, small_queries, healthy_result
    ):
        """Semantic clustering localises damage: queries that never routed
        to the dead shard return *exactly* their healthy results."""
        dead = 4
        chaotic = kill_shards(clustered, [dead], seed=0)
        searcher = HermesSearcher(chaotic, policy=RetrievalPolicy(max_attempts=2))
        result = searcher.search(small_queries.embeddings, clusters_to_search=3)

        surviving = [
            qi
            for qi in range(len(small_queries))
            if dead not in set(healthy_result.routing.clusters[qi].tolist())
        ]
        assert surviving, "fixture corpus must leave some queries unaffected"
        for qi in surviving:
            np.testing.assert_array_equal(result.ids[qi], healthy_result.ids[qi])

    def test_ndcg_on_surviving_queries_unchanged(
        self, clustered, small_queries, small_corpus, healthy_result
    ):
        from repro.baselines.monolithic import MonolithicRetriever

        dead = 4
        truth = MonolithicRetriever(small_corpus.embeddings).ground_truth(
            small_queries.embeddings, 5
        )[1]
        chaotic = kill_shards(clustered, [dead], seed=0)
        searcher = HermesSearcher(chaotic, policy=RetrievalPolicy(max_attempts=2))
        result = searcher.search(small_queries.embeddings, clusters_to_search=3)
        for qi in range(len(small_queries)):
            if dead in set(healthy_result.routing.clusters[qi].tolist()):
                continue
            assert ndcg_single(result.ids[qi], truth[qi]) == pytest.approx(
                ndcg_single(healthy_result.ids[qi], truth[qi])
            )

    def test_all_shards_dead_raises_unavailable(self, clustered, small_queries):
        chaotic = kill_shards(clustered, range(clustered.n_clusters), seed=0)
        searcher = HermesSearcher(chaotic, policy=RetrievalPolicy(max_attempts=2))
        with pytest.raises(RetrievalUnavailableError):
            searcher.search(small_queries.embeddings, clusters_to_search=3)


class TestTransientRecovery:
    def test_retry_absorbs_deep_search_outage(
        self, clustered, small_queries, healthy_result
    ):
        """Shard fails its first deep search (call 1; call 0 is the sampling
        probe), the retry succeeds: no failed shards, results healthy."""
        flaky_shard = 2
        chaotic = FaultInjector(seed=5).wrap(
            clustered, {flaky_shard: OutageWindow(start_call=1, n_calls=1)}
        )
        searcher = HermesSearcher(chaotic, policy=RetrievalPolicy(max_attempts=3))
        result = searcher.search(small_queries.embeddings, clusters_to_search=3)
        assert result.failed_shards == ()
        assert not result.degraded
        np.testing.assert_array_equal(result.ids, healthy_result.ids)
        stats = {s.shard_id: s for s in result.shard_stats}
        assert stats[flaky_shard].attempts == 2
        assert stats[flaky_shard].outcome == "ok"
        assert result.shard_queries_attempted > result.shard_queries

    def test_retry_budget_exhausted_degrades(self, clustered, small_queries):
        flaky_shard = 2
        chaotic = FaultInjector(seed=5).wrap(
            clustered, {flaky_shard: TransientFault(1.0)}  # always failing
        )
        searcher = HermesSearcher(chaotic, policy=RetrievalPolicy(max_attempts=2))
        result = searcher.search(small_queries.embeddings, clusters_to_search=10)
        assert flaky_shard in result.failed_shards
        stats = {s.shard_id: s for s in result.shard_stats}
        # Sampling already failed (probe not retried), so the deep fan-out
        # routed around the shard — or, if routed, exhausted its attempts.
        if flaky_shard in stats:
            assert stats[flaky_shard].outcome == "transient-exhausted"
            assert stats[flaky_shard].attempts == 2

class TestDeadlinesAndHedging:
    def test_deadline_cuts_off_straggler(self, clustered, small_queries):
        slow_shard = 1
        chaotic = FaultInjector(seed=5).wrap(
            clustered, {slow_shard: Straggler(0.6, calls=[1])}
        )
        searcher = HermesSearcher(chaotic, policy=RetrievalPolicy(deadline_s=0.1))
        result = searcher.search(small_queries.embeddings, clusters_to_search=10)
        assert slow_shard in result.failed_shards
        stats = {s.shard_id: s for s in result.shard_stats}
        assert stats[slow_shard].outcome == "timeout"
        assert stats[slow_shard].latency_s < 0.5  # bailed before the straggle

    def test_threaded_fanout_matches_serial_under_faults(
        self, clustered, small_queries
    ):
        dead = 3
        policy = RetrievalPolicy(max_attempts=2)
        serial = HermesSearcher(kill_shards(clustered, [dead], seed=0), policy=policy)
        threaded = HermesSearcher(
            kill_shards(clustered, [dead], seed=0), policy=policy, max_workers=4
        )
        a = serial.search(small_queries.embeddings, clusters_to_search=3)
        b = threaded.search(small_queries.embeddings, clusters_to_search=3)
        np.testing.assert_array_equal(a.ids, b.ids)
        assert a.failed_shards == b.failed_shards == (dead,)


class TestCircuitBreaker:
    def test_breaker_opens_and_stops_probing(self, clustered, small_queries):
        dead = 0
        chaotic = kill_shards(clustered, [dead], seed=0)
        searcher = HermesSearcher(
            chaotic,
            policy=RetrievalPolicy(
                max_attempts=2, breaker_threshold=2, breaker_cooldown=3
            ),
        )
        q = small_queries.embeddings
        searcher.search(q, clusters_to_search=3)
        searcher.search(q, clusters_to_search=3)  # second failure trips it
        assert searcher.health.is_open(dead)
        calls_when_open = chaotic.shards[dead].calls
        result = searcher.search(q, clusters_to_search=3)
        # open circuit: the dead shard was not probed at all...
        assert chaotic.shards[dead].calls == calls_when_open
        # ...but the degraded-result contract still reports it
        assert dead in result.failed_shards

    def test_breaker_half_opens_after_cooldown(self, clustered, small_queries):
        dead = 0
        chaotic = kill_shards(clustered, [dead], seed=0)
        searcher = HermesSearcher(
            chaotic,
            policy=RetrievalPolicy(
                max_attempts=2, breaker_threshold=2, breaker_cooldown=3
            ),
        )
        q = small_queries.embeddings
        for _ in range(2):
            searcher.search(q, clusters_to_search=3)
        assert searcher.health.is_open(dead)
        probed_before = chaotic.shards[dead].calls
        # tick() runs at the start of each search: cooldown 3 skips two
        # full batches before the half-open probe on the third.
        searcher.search(q, clusters_to_search=3)  # cooldown 3 -> 2
        searcher.search(q, clusters_to_search=3)  # cooldown 2 -> 1
        assert chaotic.shards[dead].calls == probed_before
        searcher.search(q, clusters_to_search=3)  # half-open: probes again
        assert chaotic.shards[dead].calls > probed_before
        assert searcher.health.is_open(dead)  # probe failed: re-opened

    def test_breaker_closes_on_recovery(self, clustered, small_queries):
        flaky = 0
        # Down for sampling+deep of two batches (calls 0-1), then healthy.
        chaotic = FaultInjector(seed=5).wrap(
            clustered, {flaky: OutageWindow(start_call=0, n_calls=2)}
        )
        searcher = HermesSearcher(
            chaotic,
            policy=RetrievalPolicy(
                max_attempts=1, breaker_threshold=2, breaker_cooldown=1
            ),
        )
        q = small_queries.embeddings
        searcher.search(q, clusters_to_search=3)
        searcher.search(q, clusters_to_search=3)
        assert searcher.health.is_open(flaky)
        searcher.search(q, clusters_to_search=3)  # cooldown expires
        result = searcher.search(q, clusters_to_search=3)  # healthy again
        assert flaky not in result.failed_shards
        assert not searcher.health.is_open(flaky)


class TestDeterminism:
    def test_same_seed_same_results_and_schedule(self, clustered, small_queries):
        """Satellite: a chaotic run is a pure function of its seed."""

        def run_once():
            chaotic = FaultInjector(seed=9).wrap(
                clustered,
                {
                    1: TransientFault(0.5),
                    4: TransientFault(0.3),
                    7: [Straggler(1e-4, heavy_tail_alpha=2.0)],
                },
            )
            searcher = HermesSearcher(
                chaotic,
                policy=RetrievalPolicy(
                    max_attempts=2, breaker_threshold=3, breaker_cooldown=2
                ),
            )
            ids = []
            failed = []
            for _ in range(5):
                r = searcher.search(small_queries.embeddings, clusters_to_search=3)
                ids.append(r.ids.copy())
                failed.append(r.failed_shards)
            logs = {s: list(chaotic.shards[s].log) for s in (1, 4, 7)}
            return ids, failed, logs

        ids_a, failed_a, logs_a = run_once()
        ids_b, failed_b, logs_b = run_once()
        assert failed_a == failed_b
        assert logs_a == logs_b
        for a, b in zip(ids_a, ids_b):
            np.testing.assert_array_equal(a, b)


class TestWrappersSeeEveryDeepSearch:
    """Fault injection and replica failover act on deep searches identically
    inline and on the ``max_workers`` thread pool, on frozen and on mutated
    shards: every deep search is a call on the wrapper in
    ``datastore.shards``."""

    DIM = 16
    #: the two fan-outs: one shard after another, and a thread pool
    MODES = {"inline": None, "threaded": 2}

    @pytest.fixture(scope="class", params=["frozen", "mutated"])
    def fleet(self, request):
        corpus = make_corpus(600, n_topics=4, dim=self.DIM, seed=9)
        # Full fan-out: every query deep-searches every shard, so each
        # wrapper's call count is exact.
        config = HermesConfig(n_clusters=4, clusters_to_search=4, nlist=4)
        datastore = cluster_datastore(corpus.embeddings, config)
        rng = np.random.default_rng(10)
        if request.param == "mutated":
            datastore.add_documents(rng.normal(size=(32, self.DIM)).astype(np.float32))
            datastore.delete_documents(rng.choice(600, size=16, replace=False))
            assert any(s.has_mutations for s in datastore.shards)
        queries = rng.normal(size=(6, self.DIM)).astype(np.float32)
        return datastore, queries

    def test_crash_stop_degrades_in_both_worker_modes(self, fleet):
        datastore, queries = fleet
        seen = {}
        for mode, workers in self.MODES.items():
            # Call 0 is shard 0's sampling probe; its deep search crashes.
            chaotic = FaultInjector(seed=0).wrap(datastore, {0: CrashStop(at_call=1)})
            searcher = HermesSearcher(
                chaotic, policy=RetrievalPolicy(), max_workers=workers
            )
            result = searcher.search(queries, k=5)
            seen[mode] = (result.failed_shards, chaotic.shards[0].calls)
            outcomes = {s.shard_id: s.outcome for s in result.shard_stats}
            assert outcomes == {0: "crashed", 1: "ok", 2: "ok", 3: "ok"}
        assert seen["inline"] == seen["threaded"] == ((0,), 2)

    def test_replicas_fail_over_in_both_worker_modes(self, fleet):
        datastore, queries = fleet
        healthy = HermesSearcher(datastore).search(queries, k=5)
        injector = FaultInjector(seed=0)
        seen = {}
        for mode, workers in self.MODES.items():
            replicated = replicate_datastore(datastore, 2)
            for group in replica_groups(replicated):
                # The primary dies after its sampling probe.
                group.replicas[0] = injector.wrap_shard(
                    group.replicas[0], CrashStop(at_call=1)
                )
            searcher = HermesSearcher(replicated, max_workers=workers)
            result = searcher.search(queries, k=5)
            groups = replica_groups(replicated)
            seen[mode] = (
                result.failed_shards,
                [g.failovers for g in groups],
                [g.out_replicas() for g in groups],
            )
            # Node death cost an attempt, not an answer.
            np.testing.assert_array_equal(result.ids, healthy.ids)
            np.testing.assert_array_equal(result.distances, healthy.distances)
        assert seen["inline"] == seen["threaded"] == ((), [1] * 4, [(0,)] * 4)
