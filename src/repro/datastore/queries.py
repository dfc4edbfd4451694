"""Query workload generators modelled on the paper's evaluation sets.

The paper evaluates retrieval quality and cluster-access behaviour with two
public QA datasets:

- **TriviaQA** (accuracy + deep-search traces): factoid questions, each
  strongly about one topic — queries concentrate near topic modes.
- **Natural Questions** (Fig. 13 access-frequency analysis): real-user
  queries with a skewed topic popularity, producing >2x variation in
  cluster access frequency.

Both are replaced by parameterised synthetic generators over the same
:class:`~repro.datastore.embeddings.TopicModel` as the corpus, so queries and
documents share latent geometry exactly as encoded QA sets share it with
Common Crawl.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import TopicModel, zipf_weights


@dataclass(frozen=True)
class QuerySet:
    """A generated query workload."""

    name: str
    embeddings: np.ndarray
    topics: np.ndarray

    def __len__(self) -> int:
        return len(self.embeddings)

    def batches(self, batch_size: int) -> list[np.ndarray]:
        """Split embeddings into contiguous batches (last may be short)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return [
            self.embeddings[i : i + batch_size]
            for i in range(0, len(self.embeddings), batch_size)
        ]


def trivia_queries(
    model: TopicModel,
    n_queries: int = 512,
    *,
    query_spread: float = 0.25,
    seed: int = 100,
) -> QuerySet:
    """TriviaQA-like workload: topically focused queries, uniform popularity."""
    local = TopicModel(
        centers=model.centers,
        weights=model.weights,
        spread=model.spread,
        rng_seed=seed,
    )
    uniform = np.full(model.n_topics, 1.0 / model.n_topics)
    emb, topics = local.sample_queries(
        n_queries, query_spread=query_spread, topic_weights=uniform
    )
    return QuerySet(name="triviaqa-like", embeddings=emb, topics=topics)


def natural_questions_queries(
    model: TopicModel,
    n_queries: int = 512,
    *,
    query_spread: float = 0.3,
    popularity_exponent: float = 0.6,
    seed: int = 200,
) -> QuerySet:
    """NQ-like workload: Zipf-skewed topic popularity (hot/cold clusters).

    The default exponent makes the hottest topic >2x more frequent than the
    coldest, reproducing the access-frequency imbalance of Fig. 13 that
    motivates Hermes's DVFS load balancing.
    """
    local = TopicModel(
        centers=model.centers,
        weights=model.weights,
        spread=model.spread,
        rng_seed=seed,
    )
    # Shuffle which topics are popular so popularity is independent of size.
    popularity = zipf_weights(model.n_topics, exponent=popularity_exponent)
    perm = np.random.default_rng(seed + 1).permutation(model.n_topics)
    popularity = popularity[perm]
    emb, topics = local.sample_queries(
        n_queries, query_spread=query_spread, topic_weights=popularity
    )
    return QuerySet(name="nq-like", embeddings=emb, topics=topics)

