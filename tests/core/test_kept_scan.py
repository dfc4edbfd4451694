"""The deep search selects from its shard's kept sample scan.

A shard whose sample ran the dense kernel hands its distance matrix to the
same batch's deep call (:class:`~repro.ann.ivf.KeptScan`), which then only
selects. Held here:

- the searcher against ``tests/oracles.whole_batch_deep_oracle`` (every
  routed shard deep-searches the *whole* batch through the scanning path and
  the routed rows are taken), bit for bit, over codecs, metrics, frozen and
  live shards, a delete between route and deep, inline and threaded
  fan-out, full and partial deep probe, a forced-sparse sample and wrapped
  shards;
- a shard's best merged candidate is never farther than its routing score;
- the kept path's observability: one ``ivf_scan`` span, ``strategy="kept"``.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher, HierarchicalSearcher
from repro.core.router import SampledRouter
from repro.datastore.embeddings import make_corpus
from repro.datastore.queries import trivia_queries
from repro.obs import disable_tracing, enable_tracing
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.serving.faults import FaultInjector
from repro.serving.replication import replicate_datastore
from tests.oracles import forced_strategy, whole_batch_deep_oracle

DIM = 16
NLIST = 8
K = 5
CODECS = ("flat", "sq8", "sq4", "pq8")

_corpus = make_corpus(1600, n_topics=6, dim=DIM, seed=21)


def build(codec: str, metric: str, *, live: bool, seed: int):
    """A fresh 4-shard datastore; a live one has delta rows and tombstones."""
    config = HermesConfig(
        n_clusters=4, clusters_to_search=2, nlist=NLIST, sample_nprobe=2,
        deep_nprobe=NLIST, k=K, quantization=codec, metric=metric,
    )
    datastore = cluster_datastore(_corpus.embeddings, config)
    if live:
        rng = np.random.default_rng(seed)
        fresh = _corpus.embeddings[rng.choice(1600, 48, replace=False)]
        datastore.add_documents(fresh + rng.normal(0, 0.05, fresh.shape).astype(np.float32))
        datastore.delete_documents(rng.choice(1600, 40, replace=False))
        assert all(s.has_mutations for s in datastore.shards)
    return datastore


class DeleteAfterRouting(SampledRouter):
    """Samples, then deletes *doomed* before the deep phase runs."""

    def __init__(self, doomed, **kwargs) -> None:
        super().__init__(**kwargs)
        self.doomed = doomed

    def route(self, queries, datastore, m, *, exclude=frozenset()):
        decision = super().route(queries, datastore, m, exclude=exclude)
        datastore.delete_documents(self.doomed)
        return decision


def scan_strategies(root, name: str) -> dict:
    """Shard id -> the ``ivf_scan`` strategies under its *name* span."""
    return {
        span.attrs["shard"]: [s.attrs["strategy"] for s in span.find_all("ivf_scan")]
        for span in root.find_all(name)
    }


@given(
    codec=st.sampled_from(CODECS),
    metric=st.sampled_from(["ip", "l2"]),
    live=st.booleans(),
    delete_between=st.booleans(),
    workers=st.sampled_from([None, 2]),
    deep_nprobe=st.sampled_from([NLIST, 4]),
    sample_nprobe=st.sampled_from([2, NLIST]),
    force_sparse=st.booleans(),
    wrapper=st.sampled_from(["none", "faulty", "replicas"]),
    seed=st.integers(0, 2**16),
)
def test_searcher_matches_whole_batch_deep_oracle(
    codec, metric, live, delete_between, workers, deep_nprobe, sample_nprobe,
    force_sparse, wrapper, seed,
):
    """A deep call selects from its shard's kept scan exactly when the
    sample ran dense, the deep probe is at least the sample's and no write
    reached the shard in between — and then it answers as a deep search of
    the whole batch would; otherwise it scans its routed rows."""
    datastore = build(codec, metric, live=live, seed=seed)
    if wrapper == "faulty":
        datastore = FaultInjector(seed).wrap(
            datastore, {s: [] for s in range(datastore.n_clusters)}
        )
    elif wrapper == "replicas":
        datastore = replicate_datastore(datastore, 2)
    queries = trivia_queries(_corpus.topic_model, 12, seed=seed).embeddings
    doomed = np.array([], dtype=np.int64)
    if delete_between:
        # The nearest live document of a few queries: ids a search serves.
        tombstoned = np.concatenate([s.tombstoned_ids for s in datastore.shards])
        alive = np.setdiff1d(np.arange(len(_corpus.embeddings)), tombstoned)
        gaps = queries[:4, None, :] - _corpus.embeddings[None, alive, :]
        doomed = np.unique(alive[(gaps**2).sum(axis=2).argmin(axis=1)])
    router = DeleteAfterRouting(doomed, sample_nprobe=sample_nprobe)
    searcher = HierarchicalSearcher(datastore, router=router, max_workers=workers)
    with ExitStack() as stack:
        if force_sparse:
            for shard in datastore.shards:
                stack.enter_context(forced_strategy(shard.index, "sparse"))
        tracer = enable_tracing()
        stack.callback(disable_tracing)
        result = searcher.search(queries, k=K, deep_nprobe=deep_nprobe)
        disable_tracing()
        [root] = [r for r in tracer.finished_roots() if r.name == "retrieval"]
        sampled = scan_strategies(root, "sample")
        deep = scan_strategies(root, "shard_search")
        written = set(datastore.assignments[doomed].tolist())
        for sid, strategies in deep.items():
            reuses = (
                sampled[sid] == ["dense"]
                and sid not in written
                and deep_nprobe >= sample_nprobe
            )
            assert (strategies == ["kept"]) == reuses, (sid, sampled[sid], strategies)
        scanned = {sid for sid, strategies in deep.items() if strategies != ["kept"]}
        want_d, want_i = whole_batch_deep_oracle(
            datastore, queries, result.routing, K, deep_nprobe, scanned=scanned)
    np.testing.assert_array_equal(result.ids, want_i)
    np.testing.assert_array_equal(result.distances, want_d)
    assert not np.isin(result.ids, doomed).any()
    assert result.routing.kept is None  # the result does not hold the scans
    if force_sparse:  # short of a full probe, which is always dense
        for strategies, probe in ((sampled, sample_nprobe), (deep, deep_nprobe)):
            if probe < NLIST:
                assert all(s == ["sparse"] for s in strategies.values())


def run_traced(run):
    """Run *run* traced, on a private registry: the strategies of its
    ``ivf_scan`` spans in order, and the ``ivf_scans_total`` counts."""
    previous = get_registry()
    registry = MetricsRegistry()
    set_registry(registry)
    tracer = enable_tracing()
    try:
        run()
    finally:
        disable_tracing()
        set_registry(previous)
    spans = [s.attrs["strategy"] for root in tracer.roots for s in root.find_all("ivf_scan")]
    return spans, registry.get("ivf_scans_total").collect()


class TestObservability:
    def test_a_kept_deep_call_is_one_kept_scan_span(self):
        datastore = build("sq8", "l2", live=False, seed=0)
        queries = trivia_queries(_corpus.topic_model, 16, seed=3).embeddings
        searcher = HermesSearcher(datastore)
        results = []
        spans, counts = run_traced(lambda: results.append(searcher.search(queries, k=K)))
        samples, deep = spans[: datastore.n_clusters], spans[datastore.n_clusters :]
        assert samples == ["dense"] * datastore.n_clusters
        assert deep == ["kept"] * len(np.unique(results[0].routing.clusters))
        assert sum(v for key, v in counts.items() if "kept" in str(key)) == len(deep)

    def test_a_write_between_route_and_deep_scans_again(self):
        datastore = build("sq8", "l2", live=False, seed=0)
        queries = trivia_queries(_corpus.topic_model, 16, seed=3).embeddings
        router = DeleteAfterRouting(np.arange(0, 1600, 7), sample_nprobe=2)
        searcher = HierarchicalSearcher(datastore, router=router)
        spans, _ = run_traced(lambda: searcher.search(queries, k=K))
        assert "kept" not in spans


    def test_a_lapsed_lease_is_not_read(self):
        """The kept matrix lives in the sampling thread's arena until that
        thread's next keeping scan of the index: a decision routed before
        another batch was sampled hands over nothing readable."""
        datastore = build("sq8", "l2", live=False, seed=0)
        router = SampledRouter(sample_nprobe=2)
        first, second = (
            trivia_queries(_corpus.topic_model, 8, seed=s).embeddings for s in (4, 5)
        )
        stale = router.route(first, datastore, 2)
        router.route(second, datastore, 2)
        shard = datastore.shards[0]
        want = shard.search(first, K)
        got = []
        spans, _ = run_traced(lambda: got.append(shard.search(first, K, kept=stale.kept[0])))
        assert spans == ["dense"]
        np.testing.assert_array_equal(got[0][0], want[0])
        np.testing.assert_array_equal(got[0][1], want[1])


@pytest.fixture(scope="module")
def suite_shaped():
    """The suite's vector stack: 40 k x 64, default config, 60 batches of 32."""
    corpus = make_corpus(40_000, dim=64, seed=7)
    datastore = cluster_datastore(corpus.embeddings, HermesConfig(k=10))
    queries = trivia_queries(corpus.topic_model, 60 * 32, seed=7).embeddings
    return datastore, queries.reshape(60, 32, -1)


def test_no_routed_shard_answers_farther_than_its_routing_score(suite_shaped):
    """A routing score is the distance of a real document the deep search of
    that shard probes again (``deep_nprobe >= sample_nprobe``), so the
    shard's best merged candidate is at most that far — to the bit, since
    the deep call selects from the very distances the sample computed."""
    datastore, batches = suite_shaped
    assert datastore.config.deep_nprobe >= datastore.config.sample_nprobe
    searcher = HermesSearcher(datastore)
    pairs = broken = 0
    for batch in batches:
        result = searcher.search(batch)
        owner = datastore.assignments[np.maximum(result.ids, 0)]
        for q, routed in enumerate(result.routing.clusters):
            for shard in routed:
                mine = (owner[q] == shard) & (result.ids[q] >= 0)
                if mine.any():
                    pairs += 1
                    best = result.distances[q][mine].min()
                    broken += bool(best > result.routing.scores[q, shard])
    assert pairs > 1000
    assert broken == 0, f"{broken} of {pairs} (query, shard) pairs"
