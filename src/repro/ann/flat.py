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
        #: the stored vectors as one contiguous ``(ntotal, dim)`` array
        self.vectors = np.empty((0, dim), dtype=np.float32)
        self.is_trained = True  # no training phase

    def _add(self, vectors: np.ndarray) -> None:
        self.vectors = np.concatenate([self.vectors, vectors])

    def _search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        dists = pairwise_distance(queries, self.vectors, self.metric)
        return top_k(dists, k)

    def reconstruct(self, ids: np.ndarray) -> np.ndarray:
        """Return the stored vectors for *ids* (exact, no decoding loss)."""
        return self.vectors[np.asarray(ids, dtype=np.int64)]

    def memory_bytes(self) -> int:
        return int(self.ntotal) * self.dim * 4
