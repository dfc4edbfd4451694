"""Synthetic token corpus and document chunking.

The paper's offline pipeline (its Fig. 2) partitions raw documents into
fixed-length token *chunks* before encoding; chunk token counts are also the
unit of the "datastore size in tokens" axis used throughout the evaluation
(10B, 100B, 1T tokens). This module provides:

- a deterministic token-level document generator whose vocabulary is split
  into per-topic token pools (so the text itself carries topic structure the
  encoder can recover);
- the chunking transform from documents to fixed-size chunks; and
- the token-count accounting that converts between "number of chunks" and
  "datastore tokens" for the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Paper-scale default: chunks of 64 tokens (the paper leaves this a knob;
#: MassiveDS-style stores use 64–256-token passages).
DEFAULT_CHUNK_TOKENS = 64


@dataclass(frozen=True)
class Document:
    """A raw synthetic document: token ids plus its latent topic."""

    doc_id: int
    tokens: np.ndarray
    topic: int

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Chunk:
    """A fixed-length slice of a document — the retrieval unit."""

    chunk_id: int
    doc_id: int
    topic: int
    tokens: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self) -> str:
        """Render the chunk as whitespace-joined pseudo-words.

        Token ``t`` renders as ``tok<t>``; deterministic, so text round-trips
        through the encoder reproducibly.
        """
        return " ".join(f"tok{t}" for t in self.tokens)


class TokenVocabulary:
    """Vocabulary whose token ids are partitioned into topic pools.

    Tokens ``[0, common_size)`` are topic-neutral; the rest is split evenly
    into ``n_topics`` pools of topic-characteristic tokens. A document about
    topic *t* mixes its pool with common tokens, which is what lets a
    bag-of-tokens encoder recover topical cluster structure end to end.
    """

    def __init__(self, n_topics: int, *, pool_size: int = 500, common_size: int = 1000) -> None:
        if n_topics <= 0:
            raise ValueError(f"n_topics must be positive, got {n_topics}")
        if pool_size <= 0 or common_size < 0:
            raise ValueError("pool_size must be positive and common_size non-negative")
        self.n_topics = n_topics
        self.pool_size = pool_size
        self.common_size = common_size

    @property
    def size(self) -> int:
        return self.common_size + self.n_topics * self.pool_size

    def topic_pool(self, topic: int) -> np.ndarray:
        """Token ids characteristic of *topic*."""
        if not 0 <= topic < self.n_topics:
            raise ValueError(f"topic {topic} out of range [0, {self.n_topics})")
        start = self.common_size + topic * self.pool_size
        return np.arange(start, start + self.pool_size)

    def topic_of_token(self, token: int) -> int:
        """Latent topic of a token id, or ``-1`` for common tokens."""
        if not 0 <= token < self.size:
            raise ValueError(f"token {token} out of range [0, {self.size})")
        if token < self.common_size:
            return -1
        return (token - self.common_size) // self.pool_size


class CorpusGenerator:
    """Deterministic generator of topic-structured token documents."""

    def __init__(
        self,
        vocabulary: TokenVocabulary,
        *,
        topic_weights: np.ndarray | None = None,
        doc_tokens: int = 256,
        topical_fraction: float = 0.7,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= topical_fraction <= 1.0:
            raise ValueError("topical_fraction must be in [0, 1]")
        self.vocabulary = vocabulary
        if topic_weights is None:
            topic_weights = np.full(vocabulary.n_topics, 1.0 / vocabulary.n_topics)
        if vocabulary.common_size == 0 and topical_fraction < 1.0:
            raise ValueError("a vocabulary without common tokens needs topical_fraction 1")
        self.topic_weights = np.asarray(topic_weights, dtype=np.float64)
        if self.topic_weights.shape != (vocabulary.n_topics,):
            raise ValueError(f"topic_weights must have one weight per topic ({vocabulary.n_topics})")
        if (self.topic_weights < 0).any() or not np.isclose(self.topic_weights.sum(), 1.0):
            raise ValueError("topic_weights must be non-negative and sum to 1")
        # the CDF ``Generator.choice(n_topics, p=topic_weights)`` searches
        self._topic_cdf = self.topic_weights.cumsum()
        self._topic_cdf /= self._topic_cdf[-1]
        self.doc_tokens = doc_tokens
        self.topical_fraction = topical_fraction
        self._rng = np.random.default_rng(seed)

    def generate(self, n_docs: int) -> list[Document]:
        """Sample *n_docs* documents.

        Each document draws what ``Generator.choice`` would — its topic as
        one uniform searched in the topic CDF, its topical tokens as uniform
        indices into the topic's pool — then its common tokens, then a
        shuffle; only ``choice``'s per-call overhead is gone.
        """
        docs = []
        vocab = self.vocabulary
        n_topical = int(round(self.doc_tokens * self.topical_fraction))
        n_common = self.doc_tokens - n_topical
        for doc_id in range(n_docs):
            topic = int(self._topic_cdf.searchsorted(self._rng.random(), side="right"))
            pool_start = vocab.common_size + topic * vocab.pool_size
            topical = pool_start + self._rng.integers(0, vocab.pool_size, size=n_topical)
            common = self._rng.integers(0, max(vocab.common_size, 1), size=n_common)
            tokens = np.concatenate([topical, common])
            self._rng.shuffle(tokens)
            docs.append(Document(doc_id=doc_id, tokens=tokens, topic=topic))
        return docs


def chunk_documents(
    documents: list[Document], *, chunk_tokens: int = DEFAULT_CHUNK_TOKENS
) -> list[Chunk]:
    """Split documents into fixed-length chunks (final partial chunk kept).

    Chunk ids are assigned contiguously in document order, matching how the
    paper's index construction maps retrieved ids back to text chunks.
    """
    if chunk_tokens <= 0:
        raise ValueError(f"chunk_tokens must be positive, got {chunk_tokens}")
    chunks: list[Chunk] = []
    next_id = 0
    for doc in documents:
        for start in range(0, len(doc.tokens), chunk_tokens):
            piece = doc.tokens[start : start + chunk_tokens]
            chunks.append(
                Chunk(chunk_id=next_id, doc_id=doc.doc_id, topic=doc.topic, tokens=piece)
            )
            next_id += 1
    return chunks


def datastore_tokens(chunks: list[Chunk]) -> int:
    """Total token count of a chunked datastore (the paper's size axis)."""
    return int(sum(len(c) for c in chunks))

