"""Fault sweep: the graceful-degradation curve of the retrieval fleet.

The paper's one-index-per-node deployment (§4/§6) carries an implicit
availability claim: because shards are *semantic* clusters, losing a node
loses one topic's coverage — queries about the surviving topics are
untouched. A naive random split makes the opposite trade: every shard holds
a slice of every topic, so losing one node removes ~1/n of *every* query's
candidates.

This experiment kills 0..n nodes (crash-stop fault injection through the
real search path, exercising the retry/breaker machinery of
:class:`~repro.core.policy.RetrievalPolicy`) and measures, per killed
count and strategy:

- **NDCG@10** against exhaustive ground truth (mean over the query set);
- **affected-query fraction** — queries whose NDCG dropped vs. the healthy
  run (the topical-blast-radius metric);
- **p50/p99 per-query latency** of the degraded fleet (dead shards fail
  fast once the circuit breaker opens, so tails should stay bounded).

The output is the JSON artifact behind the availability story, the
fault-tolerance analogue of Fig. 11's accuracy sweep.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..core.hierarchical import (
    ExhaustiveSplitSearcher,
    HermesSearcher,
    HierarchicalSearcher,
)
from ..core.policy import FLEET_POLICY
from ..metrics.ndcg import ndcg_single
from ..metrics.reporting import FigureResult
from ..serving.faults import kill_shards
from .common import (
    accuracy_queries,
    clustered_accuracy_datastore,
    monolithic_accuracy_retriever,
    split_accuracy_datastore,
)

#: Killed-node counts swept by default (the fleet has 10 nodes).
KILL_SWEEP = (0, 1, 2, 3, 5)
#: Retrieval depth for the degradation metric (NDCG@10).
K_FAULTS = 10


@dataclass(frozen=True)
class StrategyDegradation:
    """One strategy's measurements at one killed-node count."""

    ndcg: float
    affected_frac: float
    p50_ms: float
    p99_ms: float


@dataclass(frozen=True)
class FaultSweepPoint:
    """Both strategies at one killed-node count."""

    killed: int
    killed_shards: tuple
    hermes: StrategyDegradation
    split: StrategyDegradation


def _measure(
    searcher: HierarchicalSearcher,
    queries: np.ndarray,
    truth: np.ndarray,
    *,
    k: int,
    healthy_scores: np.ndarray | None,
) -> tuple[StrategyDegradation, np.ndarray]:
    """Per-query searches against a (possibly chaotic) fleet.

    Queries run one at a time so p50/p99 are per-query wall latencies and
    the circuit breaker sees a realistic batch sequence.
    """
    scores = np.empty(len(queries))
    latencies = np.empty(len(queries))
    for i, query in enumerate(queries):
        t0 = time.perf_counter()
        result = searcher.search(query[np.newaxis], k=k)
        latencies[i] = time.perf_counter() - t0
        scores[i] = ndcg_single(result.ids[0], truth[i])
    if healthy_scores is None:
        affected = 0.0
    else:
        affected = float(np.mean(scores < healthy_scores - 1e-9))
    return (
        StrategyDegradation(
            ndcg=float(scores.mean()),
            affected_frac=affected,
            p50_ms=float(np.percentile(latencies, 50) * 1e3),
            p99_ms=float(np.percentile(latencies, 99) * 1e3),
        ),
        scores,
    )


def run(
    killed_counts: tuple = KILL_SWEEP,
    *,
    k: int = K_FAULTS,
    n_queries: int | None = None,
    seed: int = 0,
) -> list[FaultSweepPoint]:
    """Sweep killed-node counts over Hermes and the naive split.

    Killed shard ids are drawn without replacement from ``seed`` (the same
    ids kill both strategies, so the curves are comparable). Each point
    builds fresh searchers — breaker state never leaks between points.
    """
    queries = accuracy_queries().embeddings
    if n_queries is not None:
        queries = queries[:n_queries]
    mono = monolithic_accuracy_retriever()
    _, truth = mono.ground_truth(queries, k)

    clustered = clustered_accuracy_datastore()
    split = split_accuracy_datastore()
    n_shards = clustered.n_clusters
    rng = np.random.default_rng(seed)

    healthy: dict[str, np.ndarray] = {}
    points = []
    for killed in killed_counts:
        if killed >= n_shards:
            raise ValueError(
                f"cannot kill {killed} of {n_shards} shards and still serve"
            )
        dead = tuple(
            int(s) for s in rng.choice(n_shards, size=killed, replace=False)
        )
        hermes_ds = kill_shards(clustered, dead, seed=seed) if dead else clustered
        split_ds = kill_shards(split, dead, seed=seed) if dead else split
        hermes = HermesSearcher(hermes_ds, policy=FLEET_POLICY)
        naive = ExhaustiveSplitSearcher(split_ds, policy=FLEET_POLICY)

        hermes_out, hermes_scores = _measure(
            hermes, queries, truth, k=k, healthy_scores=healthy.get("hermes")
        )
        split_out, split_scores = _measure(
            naive, queries, truth, k=k, healthy_scores=healthy.get("split")
        )
        if killed == 0:
            healthy["hermes"] = hermes_scores
            healthy["split"] = split_scores
        points.append(
            FaultSweepPoint(
                killed=int(killed),
                killed_shards=dead,
                hermes=hermes_out,
                split=split_out,
            )
        )
    return points


def to_figure(points: list[FaultSweepPoint]) -> FigureResult:
    fig = FigureResult(
        figure_id="fig_faults",
        description="graceful degradation vs killed retrieval nodes",
    )
    xs = [float(p.killed) for p in points]
    fig.add("Hermes NDCG@10", xs, [p.hermes.ndcg for p in points])
    fig.add("Split NDCG@10", xs, [p.split.ndcg for p in points])
    fig.add("Hermes affected frac", xs, [p.hermes.affected_frac for p in points])
    fig.add("Split affected frac", xs, [p.split.affected_frac for p in points])
    fig.add("Hermes p99 (ms)", xs, [p.hermes.p99_ms for p in points])
    fig.add("Split p99 (ms)", xs, [p.split.p99_ms for p in points])
    degr = [p for p in points if p.killed > 0]
    if degr:
        fig.notes.append(
            "semantic clustering localises damage: at "
            f"{degr[0].killed} killed node(s), "
            f"{degr[0].hermes.affected_frac:.0%} of queries degrade under "
            f"Hermes vs {degr[0].split.affected_frac:.0%} under the naive split"
        )
    return fig


def write_artifact(points: list[FaultSweepPoint], path: str, *, k: int = K_FAULTS) -> None:
    """Write the degradation curve as a JSON artifact."""
    payload = {
        "figure": "fig_faults",
        "description": "killed retrieval nodes x {NDCG@10, affected fraction, "
        "p50/p99 latency} for Hermes vs naive split",
        "k": k,
        "policy": asdict(FLEET_POLICY),
        "points": [asdict(p) for p in points],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
