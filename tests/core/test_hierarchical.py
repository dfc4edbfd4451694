"""Tests for the hierarchical sample→deep→rerank search."""

import numpy as np
import pytest

from repro.baselines.monolithic import MonolithicRetriever
from repro.core.hierarchical import (
    ExhaustiveSplitSearcher,
    HermesSearcher,
    HierarchicalSearcher,
)
from repro.core.router import CentroidRouter
from repro.metrics.ndcg import ndcg
from repro.metrics.recall import recall_at_k
from tests.oracles import ivf_search_reference


@pytest.fixture(scope="module")
def truth(small_corpus, small_queries):
    mono = MonolithicRetriever(small_corpus.embeddings)
    return mono.ground_truth(small_queries.embeddings, 5)[1]


@pytest.fixture(scope="module")
def hermes(clustered):
    return HermesSearcher(clustered)


class TestSearchMechanics:
    def test_result_shapes(self, hermes, small_queries):
        result = hermes.search(small_queries.embeddings)
        assert result.ids.shape == (len(small_queries), 5)
        assert result.distances.shape == (len(small_queries), 5)
        assert result.batch_size == len(small_queries)

    def test_results_sorted_by_distance(self, hermes, small_queries):
        result = hermes.search(small_queries.embeddings)
        finite = np.where(np.isfinite(result.distances), result.distances, np.inf)
        assert (np.diff(finite, axis=1) >= -1e-5).all()

    def test_ids_unique_per_query(self, hermes, small_queries):
        result = hermes.search(small_queries.embeddings)
        for row in result.ids:
            valid = row[row >= 0]
            assert len(valid) == len(set(valid.tolist()))

    def test_shard_queries_equals_batch_times_fanout(self, hermes, small_queries):
        result = hermes.search(small_queries.embeddings, clusters_to_search=3)
        assert result.shard_queries == len(small_queries) * 3

    def test_results_come_from_routed_shards(self, hermes, clustered, small_queries):
        result = hermes.search(small_queries.embeddings, clusters_to_search=2)
        for qi, row in enumerate(result.ids):
            allowed = set()
            for cid in result.routing.clusters[qi]:
                allowed.update(clustered.shards[int(cid)].global_ids.tolist())
            assert all(int(doc) in allowed for doc in row if doc >= 0)


class TestAccuracy:
    def test_iso_accuracy_at_three_clusters(self, hermes, small_queries, truth):
        # The paper's headline accuracy claim (Fig. 11).
        result = hermes.search(small_queries.embeddings, clusters_to_search=3)
        assert ndcg(result.ids, truth) > 0.93

    def test_accuracy_monotone_in_fanout(self, hermes, small_queries, truth):
        scores = [
            ndcg(hermes.search(small_queries.embeddings, clusters_to_search=m).ids, truth)
            for m in (1, 3, 10)
        ]
        assert scores[0] <= scores[1] + 0.02
        assert scores[1] <= scores[2] + 0.02

    def test_sampling_beats_centroid_routing(self, clustered, small_queries, truth):
        sampled = HermesSearcher(clustered)
        centroid = HierarchicalSearcher(clustered, router=CentroidRouter())
        m = 2
        s_score = ndcg(
            sampled.search(small_queries.embeddings, clusters_to_search=m).ids, truth
        )
        c_score = ndcg(
            centroid.search(small_queries.embeddings, clusters_to_search=m).ids, truth
        )
        assert s_score >= c_score - 0.01

    def test_semantic_clusters_beat_random_split(
        self, clustered, even_split, small_queries, truth
    ):
        m = 3
        semantic = HermesSearcher(clustered).search(
            small_queries.embeddings, clusters_to_search=m
        )
        random_split = HermesSearcher(even_split).search(
            small_queries.embeddings, clusters_to_search=m
        )
        assert ndcg(semantic.ids, truth) > ndcg(random_split.ids, truth)

    def test_deep_nprobe_improves_recall(self, hermes, small_queries, truth):
        shallow = hermes.search(
            small_queries.embeddings, clusters_to_search=3, deep_nprobe=1
        )
        deep = hermes.search(
            small_queries.embeddings, clusters_to_search=3, deep_nprobe=128
        )
        assert recall_at_k(deep.ids, truth) >= recall_at_k(shallow.ids, truth)


class TestParameterValidation:
    """Explicit zero must be rejected, not silently swallowed to a default
    (the old ``k or self.config.k`` pattern treated 0 as 'unset')."""

    def test_zero_k_rejected(self, hermes, small_queries):
        with pytest.raises(ValueError, match="k must be positive"):
            hermes.search(small_queries.embeddings, k=0)

    def test_zero_clusters_to_search_rejected(self, hermes, small_queries):
        with pytest.raises(ValueError, match="clusters_to_search"):
            hermes.search(small_queries.embeddings, clusters_to_search=0)

    def test_zero_deep_nprobe_rejected(self, hermes, small_queries):
        with pytest.raises(ValueError, match="deep_nprobe"):
            hermes.search(small_queries.embeddings, deep_nprobe=0)

    def test_zero_max_workers_rejected(self, clustered):
        with pytest.raises(ValueError, match="max_workers"):
            HermesSearcher(clustered, max_workers=0)


class TestParallelFanout:
    def test_threaded_matches_sequential(self, clustered, small_queries):
        sequential = HermesSearcher(clustered)
        threaded = HermesSearcher(clustered, max_workers=4)
        a = sequential.search(small_queries.embeddings)
        b = threaded.search(small_queries.embeddings)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_allclose(a.distances, b.distances, rtol=1e-5, atol=1e-5)

    def test_matches_reference_path(self, clustered, small_queries):
        """Oracle for the whole fast stack (batched cell-major scans, shard
        fan-out, vectorised merge): sequential shards, per-query reference
        IVF scans, row-by-row candidate merge over the same routing."""
        q = small_queries.embeddings
        fast = HermesSearcher(clustered, max_workers=4).search(q)
        k, nprobe = clustered.config.k, clustered.config.deep_nprobe
        clusters = fast.routing.clusters
        cand_d = np.full((len(q), clusters.shape[1] * k), np.inf, dtype=np.float32)
        cand_i = np.full(cand_d.shape, -1, dtype=np.int64)
        for shard in clustered.shards:
            hit_q, hit_slot = np.nonzero(clusters == shard.shard_id)
            if not len(hit_q):
                continue
            dists, local = ivf_search_reference(shard.index, q[hit_q], k, nprobe=nprobe)
            ids = np.where(local >= 0, shard.global_ids[local], -1)
            for row, slot, d_row, i_row in zip(hit_q, hit_slot, dists, ids):
                cand_d[row, slot * k : (slot + 1) * k] = d_row
                cand_i[row, slot * k : (slot + 1) * k] = i_row
        order = np.argsort(cand_d, axis=1)[:, :k]
        rows = np.arange(len(q))[:, np.newaxis]
        np.testing.assert_array_equal(fast.ids, cand_i[rows, order])
        np.testing.assert_allclose(
            fast.distances, cand_d[rows, order], rtol=1e-3, atol=5e-3
        )


class TestExhaustiveSplit:
    def test_searches_all_clusters(self, even_split, small_queries):
        searcher = ExhaustiveSplitSearcher(even_split)
        result = searcher.search(small_queries.embeddings)
        assert result.shard_queries == len(small_queries) * even_split.n_clusters

    def test_recovers_monolithic_quality(self, even_split, small_queries, truth):
        searcher = ExhaustiveSplitSearcher(even_split)
        result = searcher.search(small_queries.embeddings)
        assert ndcg(result.ids, truth) > 0.93


class TestExcludeClusters:
    def test_all_shards_excluded_raises_unavailable(self, hermes, small_queries):
        from repro.core.errors import RetrievalUnavailableError

        with pytest.raises(RetrievalUnavailableError, match="all"):
            hermes.search(
                small_queries.embeddings,
                exclude_clusters=set(range(hermes.datastore.n_clusters)),
            )

    def test_unknown_shard_id_rejected(self, hermes, small_queries):
        with pytest.raises(ValueError, match="unknown shard ids"):
            hermes.search(small_queries.embeddings, exclude_clusters={99})
        with pytest.raises(ValueError, match="unknown shard ids"):
            hermes.search(small_queries.embeddings, exclude_clusters={-1})

    def test_user_exclusion_is_not_a_failure(self, hermes, small_queries):
        result = hermes.search(small_queries.embeddings, exclude_clusters={0})
        assert not result.degraded
        assert result.failed_shards == ()
        routed = {int(c) for row in result.routing.clusters for c in row}
        assert 0 not in routed

    def test_degradation_localised_to_excluded_cluster(
        self, hermes, clustered, small_queries
    ):
        """Excluding one cluster leaves queries routed to surviving
        clusters completely untouched — the graceful-degradation bound."""
        healthy = hermes.search(small_queries.embeddings, clusters_to_search=3)
        excluded = 4
        degraded = hermes.search(
            small_queries.embeddings, clusters_to_search=3,
            exclude_clusters={excluded},
        )
        surviving = [
            qi
            for qi in range(len(small_queries))
            if excluded not in set(healthy.routing.clusters[qi].tolist())
        ]
        assert surviving
        for qi in surviving:
            np.testing.assert_array_equal(degraded.ids[qi], healthy.ids[qi])
            # float32 scoring: the shrunken candidate layout may flip the
            # last bit, so compare with a small tolerance
            np.testing.assert_allclose(
                degraded.distances[qi], healthy.distances[qi], rtol=1e-5
            )

    def test_surviving_query_ndcg_unchanged(
        self, hermes, small_queries, truth
    ):
        from repro.metrics.ndcg import ndcg_single

        healthy = hermes.search(small_queries.embeddings, clusters_to_search=3)
        excluded = 4
        degraded = hermes.search(
            small_queries.embeddings, clusters_to_search=3,
            exclude_clusters={excluded},
        )
        for qi in range(len(small_queries)):
            if excluded in set(healthy.routing.clusters[qi].tolist()):
                continue
            assert ndcg_single(degraded.ids[qi], truth[qi]) == pytest.approx(
                ndcg_single(healthy.ids[qi], truth[qi])
            )


class _BoomShard:
    """Wraps a shard so its deep search raises an unexpected error."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def search(self, queries, k, *, nprobe=None, kept=None, timeout_s=None):
        raise RuntimeError("disk on fire")


class TestShardErrorContext:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_deep_search_errors_carry_shard_context(
        self, clustered, small_queries, workers
    ):
        """One runner, two endings for an unexpected shard exception.
        Without a policy the searcher fails fast, but the exception names
        the shard and the routed query count (the debugging breadcrumbs);
        under a policy the same failure is an ``"error"`` outcome and the
        batch degrades around the shard."""
        import dataclasses

        from repro.core.errors import ShardSearchError
        from repro.core.policy import RetrievalPolicy

        boom_id = 3
        shards = [
            _BoomShard(s) if s.shard_id == boom_id else s
            for s in clustered.shards
        ]
        broken = dataclasses.replace(clustered, shards=shards)

        # CentroidRouter: sampling never touches shard.search, so the
        # explosion happens in the deep phase where it gets wrapped.
        def searcher(policy):
            return HierarchicalSearcher(
                broken, router=CentroidRouter(), max_workers=workers, policy=policy
            )

        with pytest.raises(ShardSearchError, match=f"shard {boom_id}") as exc:
            searcher(None).search(small_queries.embeddings, clusters_to_search=10)
        assert exc.value.shard_id == boom_id
        assert exc.value.n_queries == len(small_queries)
        assert "32 routed queries" in str(exc.value)
        assert isinstance(exc.value.__cause__, RuntimeError)

        result = searcher(RetrievalPolicy()).search(
            small_queries.embeddings, clusters_to_search=10
        )
        assert result.degraded
        assert result.failed_shards == (boom_id,)
        outcomes = {s.shard_id: s.outcome for s in result.shard_stats}
        assert outcomes.pop(boom_id) == "error"
        assert set(outcomes.values()) == {"ok"}
        boom = next(s for s in result.shard_stats if s.shard_id == boom_id)
        assert (boom.queries, boom.attempts) == (len(small_queries), 1)
        assert (result.ids >= 0).all()  # nine shards still fill every top-k


class _TimedFlakyShard:
    """Wraps a shard: each search advances a fake clock, the first throws."""

    def __init__(self, inner, clock, busy_s=0.05):
        self._inner = inner
        self._clock = clock
        self._busy_s = busy_s
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def search(self, queries, k, *, nprobe=None, kept=None, timeout_s=None):
        self.calls += 1
        self._clock.advance(self._busy_s)
        if self.calls == 1:
            from repro.core.errors import TransientShardError

            raise TransientShardError(self._inner.shard_id, "transient blip")
        return self._inner.search(
            queries, k, nprobe=nprobe, kept=kept, timeout_s=timeout_s
        )


class TestRetryLatencyAccounting:
    def test_healthy_shard_latency_equals_wall(self, clustered, small_queries):
        """No retries: the reported latency is the one call's clock time."""
        import dataclasses

        from repro.core.policy import RetrievalPolicy
        from repro.obs.trace import ManualClock

        clock = ManualClock()
        timed_id = 1
        timed = _TimedFlakyShard(clustered.shards[timed_id], clock)
        timed.calls = 1  # skip the failure branch: every call succeeds
        shards = [
            timed if s.shard_id == timed_id else s for s in clustered.shards
        ]
        searcher = HierarchicalSearcher(
            dataclasses.replace(clustered, shards=shards),
            router=CentroidRouter(),
            policy=RetrievalPolicy(max_attempts=3),
            clock=clock,
        )
        result = searcher.search(small_queries.embeddings, clusters_to_search=10)
        stats = next(s for s in result.shard_stats if s.shard_id == timed_id)
        assert stats.attempts == 1
        assert stats.latency_s == pytest.approx(0.05)


class _AlwaysFlakyShard:
    """Wraps a shard so every deep search raises a transient error."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def search(self, queries, k, *, nprobe=None, kept=None, timeout_s=None):
        from repro.core.errors import TransientShardError

        self.calls += 1
        raise TransientShardError(self._inner.shard_id, "still flapping")


def _drain(budget, *, leave=0):
    """Spend all but ``leave`` tokens of a full bucket."""
    for _ in range(int(budget.CAPACITY) - leave):
        assert budget.try_spend()


class TestRetryBudget:
    def test_bucket_mechanics(self):
        from repro.core.policy import RetryBudget

        budget = RetryBudget()
        assert budget.tokens == RetryBudget.CAPACITY
        _drain(budget)
        assert not budget.try_spend()  # dry
        assert budget.exhausted == 1
        for _ in range(10):
            budget.deposit()  # ten primary attempts buy back one retry
        assert budget.tokens == 1.0
        assert budget.try_spend()
        assert not budget.try_spend()
        for _ in range(1000):
            budget.deposit()
        assert budget.tokens == RetryBudget.CAPACITY  # capped
        budget.reset()
        assert budget.tokens == RetryBudget.CAPACITY and budget.exhausted == 0

    def test_dry_budget_suppresses_retries(self, clustered, small_queries):
        """Per-shard policy allows 5 attempts, but the shared fleet budget
        has one token left: exactly one retry happens, then the shard
        degrades with the retry-budget-exhausted outcome instead of
        retrying on."""
        import dataclasses

        from repro.core.policy import RetrievalPolicy, RetryBudget

        flaky_id = 2
        flaky = _AlwaysFlakyShard(clustered.shards[flaky_id])
        shards = [flaky if s.shard_id == flaky_id else s for s in clustered.shards]
        budget = RetryBudget()
        _drain(budget, leave=1)
        searcher = HierarchicalSearcher(
            dataclasses.replace(clustered, shards=shards),
            router=CentroidRouter(),
            policy=RetrievalPolicy(max_attempts=5, retry_budget=budget),
        )
        result = searcher.search(small_queries.embeddings, clusters_to_search=10)
        assert flaky.calls == 2  # primary + the single budgeted retry
        assert result.degraded
        assert flaky_id in result.failed_shards
        stats = next(s for s in result.shard_stats if s.shard_id == flaky_id)
        assert stats.outcome == "retry-budget-exhausted"
        assert budget.exhausted == 1

    def test_primary_attempts_refill_the_bucket(self, clustered, small_queries):
        from repro.core.policy import RetrievalPolicy, RetryBudget

        budget = RetryBudget()
        _drain(budget)
        assert budget.tokens == 0.0
        searcher = HierarchicalSearcher(
            clustered,
            router=CentroidRouter(),
            policy=RetrievalPolicy(max_attempts=2, retry_budget=budget),
        )
        searcher.search(small_queries.embeddings, clusters_to_search=10)
        # 10 healthy primaries deposited 0.1 each: exactly one retry's worth.
        assert budget.tokens == 1.0


class TestDeadlineBudget:
    def test_spent_budget_rejected_at_submit(self, hermes, small_queries):
        from repro.core.errors import DeadlineExceededError

        for budget in (0.0, -1.0):
            with pytest.raises(DeadlineExceededError) as exc:
                hermes.search(small_queries.embeddings, deadline_s=budget)
            assert exc.value.stage == "submit"

    def test_budget_exhausted_by_routing_sheds_before_deep(
        self, clustered, small_queries
    ):
        """Sample search burns the whole budget on the manual clock: the
        search sheds at the route stage, before any deep search launches."""
        import dataclasses

        from repro.core.errors import DeadlineExceededError
        from repro.obs.trace import ManualClock

        clock = ManualClock()
        timed = []
        for s in clustered.shards:
            w = _TimedFlakyShard(s, clock, busy_s=0.05)
            w.calls = 1  # skip the failure branch: every call succeeds
            timed.append(w)
        searcher = HermesSearcher(
            dataclasses.replace(clustered, shards=timed), clock=clock
        )
        # 10 sampling probes x 0.05s = 0.5s of routing against a 0.1s budget.
        with pytest.raises(DeadlineExceededError) as exc:
            searcher.search(small_queries.embeddings, deadline_s=0.1)
        assert exc.value.stage == "route"
        assert all(w.calls == 2 for w in timed)  # sampled once, never deep

    def test_generous_budget_leaves_results_intact(self, hermes, small_queries):
        base = hermes.search(small_queries.embeddings, k=5)
        timed = hermes.search(small_queries.embeddings, k=5, deadline_s=60.0)
        np.testing.assert_array_equal(timed.ids, base.ids)
        np.testing.assert_array_equal(timed.distances, base.distances)

    @pytest.mark.parametrize("batch", [1, 32])
    def test_deadline_starts_no_thread(self, hermes, small_queries, monkeypatch, batch):
        """The deadline travels with the shard call: the attempts run on the
        caller's thread, and the answer is the one without a deadline."""
        import threading

        q = small_queries.embeddings[:batch]
        base = hermes.search(q)
        started = []
        original = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            original(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        timed = hermes.search(q, deadline_s=30.0)
        assert started == []
        assert all(s.outcome == "ok" for s in timed.shard_stats)
        np.testing.assert_array_equal(timed.ids, base.ids)
        np.testing.assert_array_equal(timed.distances, base.distances)
