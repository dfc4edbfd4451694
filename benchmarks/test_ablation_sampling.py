"""Ablation: how deep should the sampling phase probe?

Hermes samples a *single* document per cluster (§4.2) — the router scores a
cluster by its best sampled document, so there is nothing to gain from
retrieving more than one. What the sampling phase can vary is how hard it
looks for that document: this ablation sweeps the sampling nProbe and
quantifies the design choice DESIGN.md calls out.
"""

from repro.core.hierarchical import HierarchicalSearcher
from repro.core.router import SampledRouter
from repro.experiments.common import (
    accuracy_queries,
    clustered_accuracy_datastore,
    monolithic_accuracy_retriever,
)
from repro.metrics.ndcg import ndcg
from repro.metrics.reporting import format_table

SAMPLE_NPROBES = (1, 2, 8)


def sweep_sampling(nprobes=SAMPLE_NPROBES, *, m=2):
    queries = accuracy_queries().embeddings
    _, truth = monolithic_accuracy_retriever().ground_truth(queries, 5)
    datastore = clustered_accuracy_datastore()
    rows = []
    for nprobe in nprobes:
        searcher = HierarchicalSearcher(
            datastore, router=SampledRouter(sample_nprobe=nprobe)
        )
        result = searcher.search(queries, clusters_to_search=m)
        rows.append({"sample_nprobe": nprobe, "ndcg": ndcg(result.ids, truth)})
    return rows


def test_ablation_sampling(run_once):
    rows = run_once(sweep_sampling)
    print("\n" + format_table(
        ["sample nProbe", "NDCG @ 2 clusters"],
        [(r["sample_nprobe"], r["ndcg"]) for r in rows],
        title="Ablation: sampling depth (one document per cluster)",
    ))

    at = {r["sample_nprobe"]: r["ndcg"] for r in rows}
    # Sampling depth buys routing quality: the paper's nProbe 8 is at least
    # as good as a shallower probe (up to fp noise on near-tied clusters).
    assert at[8] >= at[2] - 0.005
    assert at[8] >= at[1] - 0.005
