"""Common interface for all vector indices in :mod:`repro.ann`.

The interface intentionally mirrors the small slice of the FAISS API the
Hermes paper relies on: ``train``, ``add``, and ``search`` returning
``(distances, ids)`` top-k matrices.
"""

from __future__ import annotations

import abc

import numpy as np

from .distances import as_matrix, validate_metric


class VectorIndex(abc.ABC):
    """Abstract k-NN index over fixed-dimension dense vectors."""

    def __init__(self, dim: int, metric: str = "l2") -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self.metric = validate_metric(metric)
        self.is_trained = False
        self.ntotal = 0

    # -- lifecycle -------------------------------------------------------
    def train(self, vectors: np.ndarray) -> None:
        """Learn any data-dependent structure (clusters, codebooks).

        Indices without a training phase (e.g. Flat) are trained trivially.
        """
        vecs = as_matrix(vectors)
        self._check_dim(vecs)
        self._train(vecs)
        self.is_trained = True

    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Add vectors; returns the assigned contiguous int64 ids."""
        if not self.is_trained:
            raise RuntimeError(f"{type(self).__name__} must be trained before add()")
        vecs = as_matrix(vectors)
        self._check_dim(vecs)
        start = self.ntotal
        self._add(vecs)
        self.ntotal += len(vecs)
        return np.arange(start, self.ntotal, dtype=np.int64)

    def search(
        self, queries: np.ndarray, k: int, **kwargs
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, ids)`` of the *k* nearest stored vectors.

        Distances follow the metric-agnostic convention of
        :func:`repro.ann.distances.pairwise_distance` (smaller is closer);
        missing results are padded with ``inf`` / ``-1``.  Extra keyword
        arguments are forwarded to the concrete index's ``_search`` (e.g.
        ``nprobe`` for :class:`repro.ann.ivf.IVFIndex`).
        """
        if not self.is_trained:
            raise RuntimeError(f"{type(self).__name__} must be trained before search()")
        if self.ntotal == 0:
            q = as_matrix(queries)
            return (
                np.full((len(q), k), np.inf, dtype=np.float32),
                np.full((len(q), k), -1, dtype=np.int64),
            )
        q = as_matrix(queries)
        self._check_dim(q)
        return self._search(q, int(k), **kwargs)

    # -- introspection ----------------------------------------------------
    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Approximate resident size of the index payload in bytes."""

    # -- hooks -------------------------------------------------------------
    def _train(self, vectors: np.ndarray) -> None:  # pragma: no cover - default
        del vectors

    @abc.abstractmethod
    def _add(self, vectors: np.ndarray) -> None: ...

    @abc.abstractmethod
    def _search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]: ...

    def _check_dim(self, vectors: np.ndarray) -> None:
        """Refuse a matrix (from :func:`as_matrix`) of the wrong width."""
        if vectors.shape[-1] != self.dim:
            raise ValueError(f"vector dim {vectors.shape[-1]} != index dim {self.dim}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(dim={self.dim}, metric={self.metric!r}, "
            f"ntotal={self.ntotal}, trained={self.is_trained})"
        )
