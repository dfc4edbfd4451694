"""Append-only delta storage: the mutable half of a live IVF shard.

Hermes's datastore is built offline and served frozen, but the north-star
deployment needs the corpus to change while queries are in flight. The
delta is the classic LSM answer: recent inserts land in a small append-only
*memtable*, deletes become tombstones, and a background compaction folds
everything back into a fresh sealed index (see ``IndexShard.compact``).

The delta is storage only. A live shard's read is *one* scan
(:meth:`repro.ann.ivf.IVFIndex.search` with a
:class:`~repro.ann.ivf.LiveView`): the delta rows are extra columns after
the sealed rows, fully scanned (never probed), under one dead-row mask and
one selection. Everything that scan reads of the delta — codes, the GEMM
codecs' dimension-major operand, the L2 codecs' squared norms — is written
by :meth:`DeltaIndex.add` and published by :meth:`DeltaIndex.snapshot` as
``[:m]`` views, so a read derives nothing.

Equivalence contract (enforced by ``tests/ann/test_mutation_equivalence.py``,
whose one-pass parity property holds the scan to the two scans plus merge it
replaced, ``tests/oracles.live_shard_two_scan_oracle``):

- Vectors are encoded with the *sealed index's* quantizer at insert time, and
  their IVF cell is planned from the raw vector with the arithmetic of the
  ``assign_to_centroids`` call ``IVFIndex.add`` uses — so compaction installs
  exactly the rows an offline rebuild would have produced.
- Delta distances are the sealed scan's ADC kernel (shifted table, bias added
  after selection, L2 clamp), on a GEMM of the same shape as a separate scan
  of the delta would run, so every distance is bit-identical to scanning the
  two sides apart and merging. Selection runs once over ``[sealed | delta]``
  shifted distances, sealed columns first, so the ``k`` smallest final
  distances are the same multiset as a per-side top-``k`` plus merge; only the
  order inside a run of exactly equal final distances is the scan's own. A
  tombstoned row is masked to ``inf`` before selection, so the ``k`` results
  are the ``k`` best *live* rows.
- Result ids are therefore identical to an offline rebuild *except* within
  groups of code-identical duplicates: BLAS kernels round identical columns
  differently depending on matrix position (remainder lanes), so ordering
  inside such a group is implementation-defined.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _invalid(field: str, problem: str) -> ValueError:
    return ValueError(f"invalid delta state: {field} {problem}")


class DeltaRows(NamedTuple):
    """A published cut of the delta: ``[:m]`` views of its arrays.

    Row ``r`` is the shard's local id ``sealed_ntotal + r``. ``operand`` is the
    GEMM codecs' ``(dim, m)`` dimension-major levels
    (:meth:`~repro.ann.quantization.Quantizer.scan_operand`) and ``sqnorms``
    the ``|decode(code)|²`` an L2 scan adds; each is ``None`` when the codec
    and metric do not use it. Nothing writes rows ``[:m]`` once published
    (appends go past them, growth copies them), so the views never change.
    """

    codes: np.ndarray
    cells: np.ndarray
    operand: np.ndarray | None = None
    sqnorms: np.ndarray | None = None

    @property
    def ntotal(self) -> int:
        return len(self.cells)


class DeltaIndex:
    """Growable memtable over one shard's recent inserts.

    Row ``r`` of the delta is the shard's local id ``sealed_ntotal + r``;
    rows are append-only and never reordered, so the stable selection
    tie-break reproduces insertion order. Storage is a set of arrays with
    spare capacity — codes, planned cells, and the scan state a live read
    consumes — that :meth:`add` fills past the current row count and
    reallocates (doubling) when full. A :meth:`snapshot` is therefore ``[:m]``
    views that no later append can change. The delta itself is not
    thread-safe: the owning :class:`~repro.core.clustering.IndexShard`
    serializes mutations under its lock and publishes the snapshot its
    searches read.
    """

    def __init__(self, sealed) -> None:
        self.dim = sealed.dim
        self.metric = sealed.metric
        self.quantizer = sealed.quantizer
        self.nlist = sealed.nlist
        self._assign_cells = sealed.assign_cells
        self._has_operand = self.quantizer.has_scan_operand
        self._has_sqnorms = self.quantizer.needs_code_sqnorms(self.metric)
        # Growable storage, allocated by the first append (the codes' dtype
        # and width are the quantizer's); rows [ntotal, capacity) are spare.
        self._codes: np.ndarray | None = None
        self._cells = np.empty(0, dtype=np.int64)
        self._operand: np.ndarray | None = None
        self._sqnorms: np.ndarray | None = None
        self.ntotal = 0

    @classmethod
    def restore(cls, sealed, codes: np.ndarray, cells: np.ndarray) -> "DeltaIndex":
        """Rebuild a delta from persisted ``(codes, cells)`` state.

        Row order is preserved exactly — it *is* the local-id order — so a
        reloaded shard scans and tie-breaks identically to the one saved.
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
        if cells.min() < 0 or cells.max() >= delta.nlist:
            raise _invalid("delta_cells", f"fall outside [0, {delta.nlist})")
        delta._append(codes, cells)
        return delta

    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Encode and append ``vectors``; returns their planned IVF cells.

        The cell of each row is fixed *now*, from the raw vector — identical
        to what ``IVFIndex.add`` would assign
        (:meth:`~repro.ann.ivf.IVFIndex.assign_cells`) — so compaction needs
        no raw vectors and lands every row where the offline build would have.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        cells = self._assign_cells(vectors)
        self._append(self.quantizer.encode(vectors), cells)
        return cells

    def _append(self, codes: np.ndarray, cells: np.ndarray) -> None:
        """Write rows past ``ntotal`` (growing first if they do not fit),
        with the scan state a live read consumes."""
        m, n = self.ntotal, len(codes)
        if self._codes is None or m + n > len(self._cells):
            self._grow(codes, m + n)
        end = m + n
        self._codes[m:end] = codes
        self._cells[m:end] = cells
        if self._operand is not None:
            self._operand[:, m:end] = self.quantizer.scan_operand(codes)
        if self._sqnorms is not None:
            self._sqnorms[m:end] = self.quantizer.code_sqnorms(codes)
        self.ntotal = end

    def _grow(self, codes: np.ndarray, need: int) -> None:
        """Reallocate every array with at least twice the capacity; rows
        ``[:ntotal]`` are copied, so published snapshots keep the old ones."""
        m = self.ntotal
        cap = max(need, 2 * len(self._cells), 64)

        def grown(old, shape, dtype, axis=0):
            new = np.empty(shape, dtype=dtype)
            if old is not None and m:
                if axis == 0:
                    new[:m] = old[:m]
                else:
                    new[:, :m] = old[:, :m]
            return new

        self._codes = grown(self._codes, (cap,) + codes.shape[1:], codes.dtype)
        self._cells = grown(self._cells, cap, np.int64)
        if self._has_operand:
            levels = self.quantizer.scan_operand(codes[:0])
            self._operand = grown(self._operand, (self.dim, cap), levels.dtype, axis=1)
        if self._has_sqnorms:
            self._sqnorms = grown(self._sqnorms, cap, np.float32)

    def snapshot(self) -> DeltaRows:
        """The current rows as ``[:m]`` views, in O(1).

        Appends write only past ``m`` and growth reallocates, so the views
        never change: a search may scan them lock-free while the delta grows.
        """
        m = self.ntotal
        operand, sqnorms = self._operand, self._sqnorms
        return DeltaRows(
            self.codes,
            self._cells[:m],
            None if operand is None else operand[:, :m],
            None if sqnorms is None else sqnorms[:m],
        )

    @property
    def codes(self) -> np.ndarray:
        """All delta codes, row ``r`` = delta position ``r``."""
        if self._codes is None:
            return np.empty((0, 0), dtype=np.uint8)
        return self._codes[: self.ntotal]

    @property
    def cells(self) -> np.ndarray:
        """Planned IVF cell per delta row (fixed at insert time)."""
        return self._cells[: self.ntotal]

    def reconstruct(self) -> np.ndarray:
        """Decoded delta vectors in insertion order."""
        if not self.ntotal:
            return np.empty((0, self.dim), dtype=np.float32)
        return self.quantizer.decode(self.codes)

    def memory_bytes(self) -> int:
        return int(self.ntotal) * (self.quantizer.code_size() + 8)
