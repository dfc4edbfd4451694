"""Brute-force (exact) k-NN index.

``FlatIndex`` is the exact-search baseline used throughout the paper as the
ground truth for recall and NDCG evaluation ("documents from an exhaustive
brute-force search as our ground truth", §5).
"""

from __future__ import annotations

import numpy as np

from .base import VectorIndex
from .distances import pairwise_distance, top_k


class FlatIndex(VectorIndex):
    """Exact nearest-neighbour search over uncompressed float32 vectors."""

    def __init__(self, dim: int, metric: str = "l2") -> None:
        super().__init__(dim, metric)
        self._chunks: list[np.ndarray] = []
        self._vectors: np.ndarray | None = None
        self.is_trained = True  # no training phase

    @property
    def vectors(self) -> np.ndarray:
        """The stored vectors as one contiguous ``(ntotal, dim)`` array."""
        if self._vectors is None or sum(len(c) for c in self._chunks) != len(self._vectors):
            if self._chunks:
                self._vectors = np.concatenate(self._chunks, axis=0)
            else:
                self._vectors = np.empty((0, self.dim), dtype=np.float32)
        return self._vectors

    def _add(self, vectors: np.ndarray) -> None:
        self._chunks.append(vectors.copy())
        self._vectors = None

    def _search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        dists = pairwise_distance(queries, self.vectors, self.metric)
        return top_k(dists, k)

    def reconstruct(self, ids: np.ndarray) -> np.ndarray:
        """Return the stored vectors for *ids* (exact, no decoding loss)."""
        return self.vectors[np.asarray(ids, dtype=np.int64)]

    def memory_bytes(self) -> int:
        return int(self.ntotal) * self.dim * 4
