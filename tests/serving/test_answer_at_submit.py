"""``DynamicBatcher.submit`` answers exact-cache hits itself: that changes
latency, never answers.

- differential (hypothesis): a batcher-over-frontend stack and a
  frontend-only twin, fed one sequence of reads and datastore mutations,
  return the same rows and end with the same cache statistics;
- concurrency: the suite's ``request_conservation`` and
  ``lookup_conservation`` under four client threads;
- what a submit-time answer skips (the queue, the brownout level) and what it
  keeps (every submit-time error, done-callbacks, the counters).
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.errors import AdmissionRejectedError, DeadlineExceededError
from repro.core.hierarchical import HermesSearcher
from repro.datastore.embeddings import make_corpus, zipf_weights
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.cache import EXACT_HIT, MISS, CacheConfig
from repro.serving.frontend import DynamicBatcher, ServingFrontend

DIM = 32
CORPUS = make_corpus(400, n_topics=4, dim=DIM, seed=71).embeddings
CONFIG = HermesConfig(n_clusters=2, clusters_to_search=2, nlist=8)


def query_pool() -> np.ndarray:
    """Six distinct queries, then a near-duplicate of each at cosine ~0.999
    (semantic tier) and one at ~0.99 (routing tier)."""
    rng = np.random.default_rng(72)
    base = rng.normal(size=(6, DIM)).astype(np.float32)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    noise = rng.normal(size=(2, 6, DIM)).astype(np.float32) / np.sqrt(DIM)
    return np.concatenate([base, base + 0.04 * noise[0], base + 0.14 * noise[1]])


POOL = query_pool()


def fresh_frontend(capacity: int = 8, **cache_kwargs) -> ServingFrontend:
    """A private two-shard datastore behind a small cache (mutations would
    poison a shared fixture)."""
    datastore = cluster_datastore(CORPUS, CONFIG)
    return ServingFrontend(
        HermesSearcher(datastore, config=CONFIG),
        cache_config=CacheConfig(capacity=capacity, **cache_kwargs),
    )


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def count(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    return 0.0 if metric is None else metric.total()


#: Half the traffic on three hot queries, so that repeats (and with them
#: submit-time answers, evictions of live entries, stale entries) are common.
which = st.one_of(st.integers(0, 2), st.integers(0, len(POOL) - 1))
reads = st.one_of(
    st.tuples(st.just("submit"), which),
    st.tuples(st.just("submit"), which),
    st.tuples(st.just("search"), st.lists(which, min_size=1, max_size=5)),
)
writes = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 2**16)),
    st.tuples(st.just("delete"), st.integers(0, 4)),
    st.tuples(st.just("compact"), st.none()),
)


class TestDifferential:
    @settings(deadline=None)
    @given(
        ops=st.lists(st.one_of(*[reads] * 6, writes), min_size=4, max_size=30),
        capacity=st.sampled_from([3, 8, 32]),
    )
    def test_batcher_stack_equals_frontend_only_twin(self, ops, capacity):
        stacked, twin = fresh_frontend(capacity), fresh_frontend(capacity)
        deleted: set = set()
        last_ids = None
        with DynamicBatcher(stacked, max_wait_s=0.0) as batcher:
            for verb, arg in ops:
                if verb == "submit":
                    before = batcher.stats.answered_at_submit
                    served = batcher.submit(POOL[arg], k=5).result(timeout=30)
                    want = twin.search(POOL[arg][np.newaxis], k=5)
                    got = (served.distances[np.newaxis], served.ids[np.newaxis], [served.kind])
                    if batcher.stats.answered_at_submit > before:
                        # Answered at the door: never stale, never tombstoned.
                        assert served.kind == EXACT_HIT and served.degradation_level == 0
                        assert deleted.isdisjoint(served.ids.tolist())
                elif verb == "search":
                    q = POOL[arg]
                    result, want = stacked.search(q, k=5), twin.search(q, k=5)
                    got = (result.distances, result.ids, result.kinds)
                else:
                    if verb == "add":
                        new = np.random.default_rng(arg).normal(size=(3, DIM)).astype(np.float32)
                        for frontend in (stacked, twin):
                            frontend.searcher.datastore.add_documents(new)
                    elif verb == "delete":
                        # A document the last answer contained, so a cached
                        # row that must not be served again exists.
                        live = [] if last_ids is None else [
                            i for i in last_ids.ravel().tolist() if i >= 0 and i not in deleted
                        ]
                        if not live:
                            continue
                        victim = live[arg % len(live)]
                        deleted.add(victim)
                        for frontend in (stacked, twin):
                            frontend.searcher.datastore.delete_documents([victim])
                    else:
                        for frontend in (stacked, twin):
                            frontend.searcher.datastore.compact()
                    continue
                assert np.array_equal(got[0], want.distances)
                assert np.array_equal(got[1], want.ids)
                assert np.array_equal(got[2], want.kinds)
                assert deleted.isdisjoint(want.ids.ravel().tolist())
                last_ids = want.ids
        # Equal statistics: a submit-time hit counted what the batch path
        # would have, a submit-time non-hit counted nothing.
        assert stacked.cache.stats == twin.cache.stats
        assert stacked.cache.cached_digests() == twin.cache.cached_digests()


class TestConservationUnderThreads:
    def test_four_clients_zipf_stream(self, registry):
        frontend = fresh_frontend(capacity=12)
        rng = np.random.default_rng(73)
        uniques = rng.normal(size=(48, DIM)).astype(np.float32)
        clients, per_client = 4, 500
        which = rng.choice(
            len(uniques), size=(clients, per_client), p=zipf_weights(len(uniques), exponent=1.1)
        )
        outcomes = [[] for _ in range(clients)]
        # Limits that bind: up to eight requests in flight against a queue of
        # three, and every fifth on a budget that is spent by the time the
        # worker dequeues it — shed, unless the cache answers it at submit.
        # (No budget in between: one that ran out *inside* the search would
        # fail its batch — ``stats.failed``, TestFailedBatch below.)
        admission = AdmissionConfig(max_queue=3, default_deadline_s=30.0, delay_target_s=10.0)

        def client(c: int) -> None:
            previous = None
            for j, u in enumerate(which[c]):
                try:
                    future = batcher.submit(
                        uniques[u], k=5, deadline_s=1e-6 if j % 5 == 0 else None
                    )
                except AdmissionRejectedError:
                    future = None
                outcomes[c].append(future)
                if previous is not None:
                    previous.exception(timeout=30)  # one request outstanding
                previous = future

        # Switch threads every 10 us instead of every 5 ms: an unlocked
        # read-modify-write of a shared counter loses updates within the run.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DynamicBatcher(
                frontend, max_batch=4, max_wait_s=0.001, admission=admission
            ) as batcher:
                threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        served = shed = rejected = 0
        for future in (f for row in outcomes for f in row):
            if future is None:
                rejected += 1
                continue
            try:
                future.result(timeout=30)
                served += 1
            except DeadlineExceededError:
                shed += 1
        stats = batcher.stats
        # request_conservation: submitted = served + shed + rejected, each
        # counted the same by the clients and by the batcher.
        assert served + shed + rejected == clients * per_client
        assert (stats.requests, stats.shed, stats.rejected) == (served, shed, rejected)
        assert 0 < stats.answered_at_submit < served and shed > 0 and rejected > 0
        assert count(registry, "frontend_answered_at_submit_total") == stats.answered_at_submit
        # lookup_conservation: every served request is one frontend query,
        # one cache lookup (tier hits + misses) and one registry lookup.
        assert frontend.cache.stats.lookups == served
        assert count(registry, "frontend_requests_total") == served
        assert count(registry, "retrieval_cache_lookups_total") == served
        # mean_batch is about the queue: submit-time answers joined no batch.
        assert stats.mean_batch == (served - stats.answered_at_submit) / stats.batches
        assert stats.mean_batch <= stats.max_batch <= 4


class TestFailedBatch:
    def test_raising_batch_is_counted_and_the_worker_survives(self, registry):
        """Bugfix: a batch that raised inside ``frontend.search`` failed its
        futures but was counted by none of requests / shed / rejected."""
        frontend = fresh_frontend()
        marked = POOL[3]
        search = frontend.search

        def poisoned(queries, **kwargs):
            if (queries == marked).all(axis=1).any():
                raise RuntimeError("poisoned batch")
            return search(queries, **kwargs)

        frontend.search = poisoned
        with DynamicBatcher(frontend, max_batch=2, max_wait_s=0.02) as batcher:
            futures = [batcher.submit(POOL[i], k=5) for i in (0, 3, 1, 2, 3, 4)]
            errors = [f.exception(timeout=30) for f in futures]
            # the worker outlived both failures
            assert batcher.submit(POOL[5], k=5).result(timeout=30).kind == MISS
        assert all(e is None or isinstance(e, RuntimeError) for e in errors)
        failed = sum(e is not None for e in errors)
        served = errors.count(None) + 1
        # the marked requests failed (with whatever shared their batch); the
        # other batches were served
        assert errors[1] is not None and errors[4] is not None and 2 <= failed <= 4
        stats = batcher.stats
        assert (stats.requests, stats.failed) == (served, failed)
        assert stats.requests + stats.shed + stats.rejected + stats.failed == 7
        assert count(registry, "frontend_failed_requests_total") == failed
        assert count(registry, "frontend_requests_total") == served

    def test_batch_that_raised_inside_the_search_is_not_counted_as_served(self, registry):
        """Bugfix: ``ServingFrontend.search`` counted ``frontend_requests_total``
        before it searched, so a batch whose searcher raised was counted as
        served as well as failed."""
        frontend = fresh_frontend()
        marked = POOL[3]
        search = frontend.searcher.search

        def poisoned(queries, **kwargs):
            if (queries == marked).all(axis=1).any():
                raise RuntimeError("poisoned search")
            return search(queries, **kwargs)

        frontend.searcher.search = poisoned
        with DynamicBatcher(frontend, max_batch=2, max_wait_s=0.02) as batcher:
            futures = [batcher.submit(POOL[i], k=5) for i in (0, 3, 1, 2, 3, 4)]
            errors = [f.exception(timeout=30) for f in futures]
        served = errors.count(None)
        assert errors[1] is not None and errors[4] is not None
        assert (batcher.stats.requests, batcher.stats.failed) == (served, 6 - served)
        assert count(registry, "frontend_requests_total") == served
        assert count(registry, "frontend_failed_requests_total") == 6 - served


class _PinnedAdmission(AdmissionController):
    """Overloaded, whatever the queue looks like: brownout level 2."""

    def observe(self, queue_delay_s: float) -> int:
        return 2


class TestWhatSubmitSkipsAndKeeps:
    def test_full_quality_answer_is_served_during_brownout(self, monkeypatch):
        """Bugfix: the batch path keys its lookup on the *degraded*
        parameters, so at level > 0 an entry written at level 0 never matched
        and a repeat was re-searched at reduced fan-out. The submit-time
        probe keys on level-0 parameters."""
        frontend = fresh_frontend(semantic_threshold=None, routing_threshold=None)
        q = POOL[0]
        full = frontend.search(q[np.newaxis], k=5)  # written at level 0
        calls = []
        search = frontend.searcher.search
        monkeypatch.setattr(
            frontend.searcher, "search", lambda *a, **kw: calls.append(kw) or search(*a, **kw)
        )
        with DynamicBatcher(frontend, max_wait_s=0.0, admission=_PinnedAdmission()) as batcher:
            repeat = batcher.submit(q, k=5).result(timeout=30)
            other = batcher.submit(POOL[1], k=5).result(timeout=30)
        assert (repeat.kind, repeat.degradation_level) == (EXACT_HIT, 0)
        assert np.array_equal(repeat.ids, full.ids[0])
        assert np.array_equal(repeat.distances, full.distances[0])
        # Only the uncached query reached the searcher, and it was degraded.
        assert (other.kind, other.degradation_level) == (MISS, 2)
        assert [kw["clusters_to_search"] for kw in calls] == [1]

    def test_hit_bypasses_a_full_queue(self):
        frontend = fresh_frontend()
        frontend.search(POOL[:1], k=5)
        gate = threading.Event()
        search = frontend.search
        frontend.search = lambda *a, **kw: gate.wait(10) and search(*a, **kw)
        batcher = DynamicBatcher(
            frontend, max_batch=1, max_wait_s=0.0, admission=AdmissionConfig(max_queue=1)
        )
        try:
            with pytest.raises(AdmissionRejectedError):
                for i in range(1, 4):  # worker holds one, the queue one
                    batcher.submit(POOL[i], k=5)
            hit = batcher.submit(POOL[0], k=5)
            assert hit.done() and hit.result().kind == EXACT_HIT
            assert batcher.stats.rejected == 1
        finally:
            gate.set()
            batcher.close()

    def test_submit_time_errors_come_before_any_probe(self):
        frontend = fresh_frontend()
        frontend.search(POOL[:1], k=5)
        stats = frontend.cache.stats
        lookups = stats.lookups
        batcher = DynamicBatcher(frontend, max_wait_s=0.0)
        with pytest.raises(DeadlineExceededError) as spent:
            batcher.submit(POOL[0], k=5, deadline_s=0.0)
        assert spent.value.stage == "submit"
        with pytest.raises(ValueError):
            batcher.submit(POOL[:2], k=5)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(POOL[0], k=5)  # cached, but the batcher is closed
        assert stats.lookups == lookups and batcher.stats.requests == 0

    def test_hit_is_a_resolved_future_whose_callbacks_fire(self, registry):
        frontend = fresh_frontend()
        with DynamicBatcher(frontend, max_wait_s=0.0) as batcher:
            cold = batcher.submit(POOL[0], k=5)
            assert cold.result(timeout=30).kind == MISS
            warm = batcher.submit(POOL[0], k=5)
            assert warm.done()  # before the worker could have run
            fired = []
            warm.add_done_callback(lambda f: fired.append(threading.current_thread()))
            assert fired == [threading.current_thread()]
            served = warm.result()
            assert (served.kind, served.degradation_level) == (EXACT_HIT, 0)
            assert np.array_equal(served.ids, cold.result().ids)
            assert np.array_equal(served.distances, cold.result().distances)
            # Different search parameters are a different entry: queued.
            assert batcher.submit(POOL[0], k=3).result(timeout=30).kind == MISS
        stats = batcher.stats
        assert (stats.requests, stats.answered_at_submit, stats.batches) == (3, 1, 2)
        assert stats.mean_batch == 1.0
        assert count(registry, "frontend_answered_at_submit_total") == 1
        assert count(registry, "frontend_requests_total") == 3
