"""Chaos tests at the frontend layer: faults under the batcher, race hammers.

The core chaos suite (tests/serving/test_faults.py) exercises the searcher's
survival machinery directly; these tests drive the same fault models through
the *serving* stack — ServingFrontend + DynamicBatcher — where a shard crash
or straggler hits mid-batch, behind the cache, under coalescing.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.hierarchical import HermesSearcher, RetrievalPolicy
from repro.serving.cache import CacheConfig
from repro.serving.faults import CrashStop, FaultInjector, Straggler
from repro.serving.frontend import DynamicBatcher, ServingFrontend
from repro.serving.replication import kill_replica, replica_groups, replicate_datastore


@pytest.fixture(scope="module")
def queries(small_queries):
    return small_queries.embeddings


def exact_only_frontend(searcher, capacity=64):
    return ServingFrontend(searcher, cache_config=CacheConfig(capacity=capacity))


class TestChaosUnderBatcher:
    def test_shard_crash_mid_batch_degrades_not_fails(self, clustered, queries):
        """A shard crashing between sampling and deep search degrades the
        batch; every future still resolves with a full top-k row."""
        crash_id = 1
        chaotic = FaultInjector(3).wrap(
            clustered, {crash_id: CrashStop(at_call=1)}
        )
        searcher = HermesSearcher(
            chaotic, policy=RetrievalPolicy(max_attempts=1, breaker_threshold=1)
        )
        frontend = exact_only_frontend(searcher)
        with DynamicBatcher(frontend, max_batch=8, max_wait_s=0.01) as batcher:
            futures = [batcher.submit(row, k=5) for row in queries[:8]]
            rows = [f.result(timeout=30) for f in futures]
        for served in rows:
            assert served.ids.shape == (5,)
            assert served.degradation_level == 0  # brownout is off here
        log = chaotic.shards[crash_id].log
        assert any(ev.kind == "crash" for ev in log)

    def test_pareto_straggler_blocks_but_does_not_corrupt(
        self, clustered, queries
    ):
        """A heavy-tailed straggler on one shard head-of-line blocks its
        batches; later requests still complete and ids match a healthy run."""
        q = queries[:8]
        direct = HermesSearcher(clustered).search(q, k=5)
        chaotic = FaultInjector(5).wrap(
            clustered,
            {0: Straggler(0.02, heavy_tail_alpha=1.5)},
        )
        searcher = HermesSearcher(chaotic)
        frontend = exact_only_frontend(searcher)
        with DynamicBatcher(frontend, max_batch=4, max_wait_s=0.001) as batcher:
            futures = [batcher.submit(row, k=5) for row in q]
            rows = [f.result(timeout=60) for f in futures]
        for i, served in enumerate(rows):
            assert np.array_equal(served.ids, direct.ids[i])
        assert batcher.stats.requests == 8
        log = chaotic.shards[0].log
        assert any(ev.kind == "delay" and ev.delay_s >= 0.02 for ev in log)

    def test_replica_kill_invisible_through_frontend(self, clustered, queries):
        """With every shard replicated and one replica killed, the frontend
        serves bit-identical ids — failover happens below the cache."""
        q = queries[:8]
        healthy = exact_only_frontend(HermesSearcher(clustered)).search(q, k=5)
        rep = replicate_datastore(clustered, 2)
        for group in replica_groups(rep):
            kill_replica(group, 0, seed=11)
        survived = exact_only_frontend(HermesSearcher(rep)).search(q, k=5)
        assert np.array_equal(survived.ids, healthy.ids)
        assert sum(g.failovers for g in replica_groups(rep)) > 0


class TestSubmitCloseRace:
    def test_submit_vs_close_hammer(self, clustered, queries):
        """Threads hammer submit() while the batcher closes: no deadlock,
        and every accepted future resolves (close drains the queue)."""
        searcher = HermesSearcher(clustered)
        for trial in range(3):
            batcher = DynamicBatcher(
                exact_only_frontend(searcher), max_batch=8, max_wait_s=0.001
            )
            futures = []
            lock = threading.Lock()
            closed_seen = threading.Event()

            def hammer(tid):
                i = 0
                while not closed_seen.is_set():
                    try:
                        f = batcher.submit(queries[(tid + i) % len(queries)], k=5)
                    except RuntimeError:
                        closed_seen.set()
                        return
                    with lock:
                        futures.append(f)
                    i += 1

            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            time.sleep(0.05)
            batcher.close()
            closed_seen.set()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads), f"trial {trial} hung"
            assert futures, "hammer threads never got a request in"
            for f in futures:
                served = f.result(timeout=10)
                assert served.ids.shape == (5,)
            assert batcher.stats.requests == len(futures)
