"""Append-only delta index: the mutable half of a live IVF shard.

Hermes's datastore is built offline and served frozen, but the north-star
deployment needs the corpus to change while queries are in flight. The
delta index is the classic LSM answer: recent inserts land in a small
append-only *memtable* that is brute-force scanned alongside the sealed IVF
index, deletes become tombstones that both scans mask out, and a background
compaction folds everything back into a fresh sealed index (see
``IndexShard.compact``).

Equivalence contract (enforced by ``tests/ann/test_mutation_equivalence.py``):

- Vectors are encoded with the *sealed index's* quantizer at insert time, and
  their IVF cell is planned from the raw vector with the same
  ``assign_to_centroids`` call ``IVFIndex.add`` uses — so compaction installs
  exactly the rows an offline rebuild would have produced.
- Distances are computed with the same ADC kernel (shifted table, bias added
  after selection, L2 clamp) as the sealed scan, and the merge concatenates
  ``[sealed | delta]`` columns before a stable ``top_k``, so exact fp ties
  resolve sealed-first. A tombstoned row is masked to ``inf`` inside each
  side's scan, before selection, so both sides hand the merge their ``k``
  best *live* rows. Result ids are therefore identical to an offline
  rebuild *except* within groups of code-identical duplicates: BLAS kernels
  round identical columns differently depending on matrix position (remainder
  lanes), so ordering inside such a group is implementation-defined.
"""

from __future__ import annotations

import numpy as np

from .distances import top_k
from .kmeans import assign_to_centroids


def _invalid(field: str, problem: str) -> ValueError:
    return ValueError(f"invalid delta state: {field} {problem}")


class DeltaIndex:
    """Flat brute-force memtable over one shard's recent inserts.

    Row ``r`` of the delta is the shard's local id ``sealed_ntotal + r``;
    rows are append-only and never reordered, so the stable ``top_k``
    tie-break reproduces insertion order. The delta itself is not
    thread-safe: the owning :class:`~repro.core.clustering.IndexShard`
    serializes mutations under its lock and searches a frozen
    :meth:`snapshot` taken under that lock, so a scan never races a
    concurrent ``add()``.
    """

    def __init__(self, sealed) -> None:
        self.dim = sealed.dim
        self.metric = sealed.metric
        self.quantizer = sealed.quantizer
        self.centroids = sealed.centroids
        self._frag_codes: list[np.ndarray] = []
        self._frag_cells: list[np.ndarray] = []
        # Concatenated views, rebuilt lazily after an append.
        self._codes: np.ndarray | None = None
        self._cells: np.ndarray | None = None
        self._sqnorms: np.ndarray | None = None
        self.ntotal = 0

    @classmethod
    def restore(cls, sealed, codes: np.ndarray, cells: np.ndarray) -> "DeltaIndex":
        """Rebuild a delta from persisted ``(codes, cells)`` state.

        Row order is preserved exactly — it *is* the local-id order — so a
        reloaded shard merges and tie-breaks identically to the one saved.
        The state comes from disk, so it is checked against *sealed* first:
        a violation raises ``ValueError`` naming the sidecar field — codes
        that are not the rows ``quantizer.encode`` returns (its dtype,
        ``quantizer.code_size()`` bytes wide), a codes / cells length
        mismatch, or a cell outside ``[0, nlist)``.
        """
        delta = cls(sealed)
        codes = np.asarray(codes)
        cells = np.asarray(cells)
        if cells.ndim != 1 or len(cells) != len(codes):
            raise _invalid("delta_cells", f"has shape {cells.shape} for {len(codes)} codes")
        if not len(codes):
            return delta
        encoded = delta.quantizer.encode(np.zeros((1, delta.dim), dtype=np.float32))
        if codes.ndim != 2 or codes.dtype != encoded.dtype or codes.shape[1:] != encoded.shape[1:]:
            raise _invalid(
                "delta_codes",
                f"are {codes.dtype} of shape {codes.shape}; the quantizer encodes "
                f"{encoded.dtype} rows of {delta.quantizer.code_size()} bytes",
            )
        nlist = len(delta.centroids)
        if cells.min() < 0 or cells.max() >= nlist:
            raise _invalid("delta_cells", f"fall outside [0, {nlist})")
        delta._frag_codes.append(np.ascontiguousarray(codes))
        delta._frag_cells.append(cells.astype(np.int64))
        delta.ntotal = len(codes)
        return delta

    def snapshot(self) -> "DeltaIndex":
        """A frozen copy of the current rows, safe to scan lock-free.

        Materializes the concatenated code/cell views (and ADC norms when
        the metric needs them) while the caller holds the owning shard's
        lock, then hands them to a fresh delta with no fragment lists — so
        searching the copy outside the lock can never observe a concurrent
        ``add()`` to the original. The views are cached on the original
        until its next append, so back-to-back snapshots are O(1).
        """
        dup = DeltaIndex.__new__(DeltaIndex)
        dup.dim = self.dim
        dup.metric = self.metric
        dup.quantizer = self.quantizer
        dup.centroids = self.centroids
        dup._frag_codes = []
        dup._frag_cells = []
        dup._codes = self.codes
        dup._cells = self.cells
        dup._sqnorms = (
            self._adc_sqnorms()
            if self.quantizer.needs_code_sqnorms(self.metric)
            else None
        )
        dup.ntotal = self.ntotal
        return dup

    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Encode and append ``vectors``; returns their planned IVF cells.

        The cell of each row is fixed *now*, from the raw vector — identical
        to what ``IVFIndex.add`` would assign — so compaction needs no raw
        vectors and lands every row where the offline build would have.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        cells = assign_to_centroids(vectors, self.centroids, "l2")
        self._frag_codes.append(self.quantizer.encode(vectors))
        self._frag_cells.append(cells.astype(np.int64))
        self._codes = None
        self._cells = None
        self._sqnorms = None
        self.ntotal += len(vectors)
        return cells

    @property
    def codes(self) -> np.ndarray:
        """All delta codes, row ``r`` = delta position ``r``."""
        if self._codes is None:
            if self._frag_codes:
                self._codes = np.ascontiguousarray(
                    np.concatenate(self._frag_codes, axis=0)
                )
            else:
                self._codes = np.empty((0, 0), dtype=np.uint8)
        return self._codes

    @property
    def cells(self) -> np.ndarray:
        """Planned IVF cell per delta row (fixed at insert time)."""
        if self._cells is None:
            if self._frag_cells:
                self._cells = np.concatenate(self._frag_cells)
            else:
                self._cells = np.empty(0, dtype=np.int64)
        return self._cells

    def reconstruct(self) -> np.ndarray:
        """Decoded delta vectors in insertion order."""
        if not self.ntotal:
            return np.empty((0, self.dim), dtype=np.float32)
        return self.quantizer.decode(self.codes)

    def _adc_sqnorms(self) -> np.ndarray:
        if self._sqnorms is None:
            self._sqnorms = self.quantizer.code_sqnorms(self.codes)
        return self._sqnorms

    def search(
        self, queries: np.ndarray, k: int, *, dead: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Brute-force top-k over the delta rows.

        Returns ``(distances, positions)`` where positions are delta row
        indices (``-1`` padding); distances are in the same *true* space as
        ``IVFIndex.search`` output — the shifted ADC kernel plus the per-query
        bias and L2 clamp, applied in the same order as the sealed scan.
        Rows listed in ``dead`` (delta positions) are masked to ``inf``
        before selection, like the sealed scan's, so they are never returned.
        """
        q = np.asarray(queries, dtype=np.float32)
        nq = len(q)
        if not self.ntotal:
            return (
                np.full((nq, k), np.inf, dtype=np.float32),
                np.full((nq, k), -1, dtype=np.int64),
            )
        table = self.quantizer.adc_table(q, self.metric)
        norms = (
            self._adc_sqnorms()
            if self.quantizer.needs_code_sqnorms(self.metric)
            else None
        )
        dists = self.quantizer.adc_distances(
            table, self.codes, code_sqnorms=norms, shifted=True
        )
        if dead is not None and len(dead):
            dists[:, dead] = np.inf
        if k == 1:
            # The sample search: a reduction, like the sealed scan's. The
            # first-occurrence argmin is the stable top_k's column 0.
            pos = dists.argmin(axis=1)
            out_d = dists[np.arange(nq), pos][:, np.newaxis]
            out_i = pos[:, np.newaxis]
        else:
            out_d, out_i = top_k(dists, k)
        out_i[~np.isfinite(out_d)] = -1  # masked rows picked for want of live ones
        bias = table.get("bias")
        if bias is not None:
            out_d += bias[:, np.newaxis]
        if self.metric == "l2":
            np.maximum(out_d, 0.0, out=out_d)
        return out_d, out_i

    def memory_bytes(self) -> int:
        return int(self.ntotal) * (self.quantizer.code_size() + 8)
