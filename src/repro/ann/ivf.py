"""Inverted File (IVF) index with optional quantization.

IVF is the index family Hermes is built on (§2.1): K-means partitions the
vectors into ``nlist`` cells; a query is compared against the cell centroids
and only the ``nProbe`` nearest cells are scanned. ``nProbe`` is the paper's
central latency/accuracy knob — Hermes's hierarchical search runs the same
index once with a *small* nProbe (sampling) and again with a *large* nProbe
(deep search) on the winning clusters.

The default ``nlist`` follows the paper's rule of thumb ``nlist ≈ sqrt(N)``.

Performance architecture (see DESIGN.md):

- **Sealed storage**: ``add()`` appends fragments; the first search after an
  add folds everything into one immutable :class:`SealedLists` record —
  contiguous CSR-style ``codes`` / ``ids`` indexed by ``offsets`` plus lazily
  derived scan state — so steady-state searches never concatenate fragments.
  This module is the only one that knows the record's fields; everything
  else goes through :meth:`IVFIndex.export_state` /
  :meth:`IVFIndex.from_state` / :meth:`IVFIndex.rows_by_local_id`.
- **Cell-major batched scan**: the search loop is inverted — each probed cell
  is scanned once for *all* queries probing it (one distance kernel per
  cell), instead of assembling a candidate pool per query. Probed cells are
  scanned in full, like FAISS ``IndexIVF``; one rule picks between the two
  strategies (sparse per-cell kernels, or one dense kernel over every code)
  from the probed work.
- **ADC**: distances are evaluated directly on the stored codes
  (:meth:`repro.ann.quantization.Quantizer.adc_distances`, asymmetric
  distance computation) without reconstructing vectors.
- The pre-optimisation per-query path is retained as
  :meth:`IVFIndex.search_reference`, the oracle of the equivalence suites
  (``tests/ann/test_search_equivalence.py``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .base import VectorIndex
from .distances import pairwise_distance, top_k
from .kmeans import assign_to_centroids, train_kmeans
from .quantization import IdentityQuantizer, Quantizer, restore_quantizer
from .workspace import Workspace

#: Version of the exported index state (:meth:`IVFIndex.export_state`, and so
#: of the ``.npz`` files and datastore directories built on it). Format 5 is
#: the sealed CSR triple, the derived scan state a search consumes,
#: and — at the directory level — the live-mutation sidecars of
#: :mod:`repro.core.store_io`. It is the only format read or written.
#: Older format-5 gather-codec (PQ/OPQ) states carry one more per-code array
#: and rows reordered within cells; that is still a valid CSR layout, so they
#: load as is and the extra array is ignored.
FORMAT_VERSION = 5


def check_format(found) -> None:
    """Raise unless *found* is the one state format this code reads."""
    if found != FORMAT_VERSION:
        raise ValueError(
            f"index format {found!r} is not the supported format "
            f"{FORMAT_VERSION}; rebuild it with `hermes-repro build`"
        )


def default_nlist(n_vectors: int) -> int:
    """Paper heuristic: ``nlist ≈ sqrt(N)``, at least 1."""
    return max(1, int(round(math.sqrt(max(n_vectors, 1)))))


@dataclass(frozen=True)
class SealedLists:
    """The sealed half of an IVF index: CSR storage plus derived scan state.

    Cell ``c`` owns rows ``[offsets[c], offsets[c + 1])`` of ``codes`` /
    ``ids``; ``cells`` is the row → cell map the dense scan masks with.
    ``sqnorms`` (``|decode(code)|²``, for ADC metrics that need it) is
    ``None`` until a scan that consumes it asks. So is ``positions``, the
    local id → storage row map (the inverse of ``ids``) a scan masking
    deleted rows looks them up in: an index nothing was ever deleted from
    never builds it.

    A record and its arrays are never modified once published (the arrays
    are marked read-only): every builder makes a new record and
    :class:`IVFIndex` swaps it in with one assignment, so a scan that read
    the attribute once finishes on a consistent snapshot whatever is rebuilt
    meanwhile.
    """

    codes: np.ndarray
    ids: np.ndarray
    offsets: np.ndarray
    cells: np.ndarray
    sqnorms: np.ndarray | None = None
    positions: np.ndarray | None = None

    def __post_init__(self) -> None:
        for array in vars(self).values():
            if array is not None:
                array.flags.writeable = False

    @classmethod
    def from_rows(
        cls, codes: np.ndarray, cells: np.ndarray, ids: np.ndarray, nlist: int
    ) -> "SealedLists":
        """Group rows into CSR cell order with a *stable* sort, so rows
        sharing a cell keep their input order — the stable tie-break of every
        scan depends on it."""
        order = np.argsort(cells, kind="stable")
        offsets = np.zeros(nlist + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=nlist), out=offsets[1:])
        return cls(
            codes=np.ascontiguousarray(np.asarray(codes)[order]),
            ids=ids[order],
            offsets=offsets,
            cells=cells[order].astype(np.int32),
        )


def _invalid(field: str, problem: str) -> ValueError:
    return ValueError(f"invalid IVF index state: {field} {problem}")


class IVFIndex(VectorIndex):
    """Cluster-probed approximate k-NN search.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    metric:
        ``"l2"`` or ``"ip"``; cell assignment always uses L2 on centroids,
        matching FAISS's ``IndexIVF`` coarse quantizer behaviour.
    nlist:
        Number of inverted lists (cells). ``None`` defers to
        ``sqrt(len(train_set))`` at train time.
    nprobe:
        Default number of cells scanned per query; overridable per search.
    quantizer:
        Codec used to store list payloads (``IdentityQuantizer`` keeps raw
        float32, i.e. ``IVFFlat``).
    train_seed:
        Seed of the coarse-centroid K-means (``ann.kmeans.train_kmeans``,
        which takes the mini-batch path on large training sets).
    """

    def __init__(
        self,
        dim: int,
        metric: str = "l2",
        *,
        nlist: int | None = None,
        nprobe: int = 1,
        quantizer: Quantizer | None = None,
        train_seed: int = 0,
    ) -> None:
        super().__init__(dim, metric)
        if nlist is not None and nlist <= 0:
            raise ValueError(f"nlist must be positive, got {nlist}")
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        self.nlist = nlist
        self.nprobe = nprobe
        self.quantizer = quantizer if quantizer is not None else IdentityQuantizer(dim)
        self.train_seed = train_seed
        self.centroids: np.ndarray | None = None
        # ``(codes, cells)`` fragments appended by add() since the last
        # compaction; their ids continue the sealed ids in append order.
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        # The published sealed record; replaced whole, never edited.
        self._sealed: SealedLists | None = None
        # Serialises the lazy builders (compaction, norms, positions) so two
        # first searches on a cold index build once; warm scans never take it.
        self._build_lock = threading.Lock()
        # Per-thread scratch arenas (created lazily: threading.local does not
        # survive copy/pickle, so it must not exist on a fresh index).
        self._ws_local: "threading.local | None" = None
        #: number of compaction passes run — a diagnostics counter used by
        #: the regression tests to prove steady-state searches don't rebuild.
        self.compactions = 0

    # -- training ----------------------------------------------------------
    def _train(self, vectors: np.ndarray) -> None:
        if self.nlist is None:
            self.nlist = default_nlist(len(vectors))
        if len(vectors) < self.nlist:
            raise ValueError(
                f"training set of {len(vectors)} vectors is smaller than nlist={self.nlist}"
            )
        result = train_kmeans(vectors, self.nlist, seed=self.train_seed, max_iter=20)
        self.centroids = result.centroids
        if not self.quantizer.is_trained:
            self.quantizer.train(vectors)
        self._pending = []
        self._sealed = None

    # -- population ---------------------------------------------------------
    def _add(self, vectors: np.ndarray) -> None:
        cells = assign_to_centroids(vectors, self.centroids, "l2")
        self._pending.append((self.quantizer.encode(vectors), cells))

    # -- storage ------------------------------------------------------------
    @property
    def is_compacted(self) -> bool:
        """True when all payloads live in the sealed record."""
        return not self._pending and self._sealed is not None

    def _warm(self, *, sqnorms: bool = False, positions: bool = False) -> SealedLists:
        """The sealed record, compacted and carrying the derived state asked for.

        A warm call returns the published record without locking. Anything
        missing is built under the per-index lock behind a second check, and
        published as a *new* record: compaction folds the pending fragments
        in behind the sealed rows (so the sealed-then-append order within a
        cell survives); norms and positions follow the storage order.
        """
        # Read order matters: a builder publishes the record and *then*
        # clears the fragments, so "no fragments" implies the record read
        # after it already contains them.
        stale = bool(self._pending)
        s = self._sealed
        if not (
            stale
            or s is None
            or (sqnorms and s.sqnorms is None)
            or (positions and s.positions is None)
        ):
            return s
        with self._build_lock:
            s = self._sealed
            pending = self._pending
            if pending or s is None:
                with get_tracer().span("ivf_compact", nlist=self.nlist, ntotal=self.ntotal):
                    s = self._compacted(s, pending)
            if sqnorms and s.sqnorms is None:
                s = replace(s, sqnorms=self.quantizer.code_sqnorms(s.codes))
            if positions and s.positions is None:
                n = len(s.ids)
                rows = np.empty(n, dtype=np.int32 if n < 2**31 else np.int64)
                rows[s.ids] = np.arange(n)
                s = replace(s, positions=rows)
            self._sealed = s
            if pending:
                self._pending = []
        return s

    def _compacted(self, sealed: SealedLists | None, pending) -> SealedLists:
        rows = list(pending)
        n_sealed = 0 if sealed is None else len(sealed.ids)
        if n_sealed:
            rows.insert(0, (sealed.codes, sealed.cells))
        self.compactions += 1
        if not rows:
            rows = [(np.empty((0, 0), dtype=np.uint8), np.empty(0, dtype=np.int64))]
        if len(rows) == 1:  # the offline build: one add(), nothing to join
            codes, cells = rows[0]
        else:
            codes = np.concatenate([r[0] for r in rows])
            cells = np.concatenate([r[1] for r in rows])
        ids = np.arange(len(cells), dtype=np.int64)
        if n_sealed:
            ids[:n_sealed] = sealed.ids
        return SealedLists.from_rows(codes, cells, ids, self.nlist)

    def compact(self) -> None:
        """Merge pending fragments into the contiguous sealed record.

        Runs lazily on the first search after an ``add()``; idempotent and
        cheap (a no-op) when nothing changed since the last compaction.
        """
        self._warm()

    def warm_scan_state(self) -> None:
        """Precompute every lazy structure a search consumes (compaction,
        and ADC norms where the codec needs them), so the next search runs
        entirely warm."""
        self._warm(sqnorms=self.quantizer.needs_code_sqnorms(self.metric))

    def fresh_sealed_like(self) -> "IVFIndex":
        """An empty index sharing this one's trained coarse/fine quantizers.

        Compaction (and the rebuild-from-scratch oracle in the mutation
        equivalence tests) must produce *bit-identical* codes and cell
        assignments, which requires reusing the exact trained centroids and
        codec — retraining on the surviving vectors would shift both.
        """
        if not self.is_trained:
            raise RuntimeError("IVFIndex must be trained before fresh_sealed_like()")
        clone = IVFIndex(
            self.dim,
            self.metric,
            nlist=self.nlist,
            nprobe=self.nprobe,
            quantizer=self.quantizer,
            train_seed=self.train_seed,
        )
        clone.centroids = self.centroids
        clone.is_trained = True
        return clone

    def install_rows(self, codes: np.ndarray, cells: np.ndarray) -> None:
        """Adopt pre-encoded rows as the index's entire contents.

        Row ``r`` of ``codes`` becomes local id ``r``; rows sharing a cell
        keep their input order — the same within-cell insertion order
        ``add()`` produces. Used by shard compaction to fold sealed survivors
        + delta rows into a fresh index without re-encoding anything;
        :meth:`rows_by_local_id` is its inverse.
        """
        if not self.is_trained:
            raise RuntimeError("IVFIndex must be trained before install_rows()")
        cells = np.asarray(cells, dtype=np.int64)
        n = len(cells)
        if len(codes) != n:
            raise ValueError(f"{len(codes)} code rows for {n} cell assignments")
        if n and (cells.min() < 0 or cells.max() >= self.nlist):
            raise ValueError("cell assignment out of range")
        with self._build_lock:
            self._sealed = self._compacted(None, [(codes, cells)])
            self._pending = []
            self.ntotal = n

    def rows_by_local_id(self) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, cells)`` with row ``r`` holding local id ``r`` — what
        :meth:`install_rows` would need to rebuild this index."""
        s = self._warm()
        codes = np.empty_like(s.codes)
        codes[s.ids] = s.codes
        cells = np.empty(len(s.ids), dtype=np.int64)
        cells[s.ids] = s.cells
        return codes, cells

    def export_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The trained index as ``(header, named arrays)``, scan state warm.

        The one serialised form of an index: ``.npz`` persistence writes it,
        the process pool ships it through shared memory, and
        :meth:`from_state` rebuilds an index that searches bit-identically.
        The arrays are the published record's own (not copies).
        """
        if not self.is_trained:
            raise ValueError("cannot export an untrained IVF index")
        self.warm_scan_state()
        s = self._sealed
        quantizer_spec, arrays = self.quantizer.export_state()
        header = {
            "format": FORMAT_VERSION,
            "type": "ivf",
            "dim": self.dim,
            "metric": self.metric,
            "nlist": self.nlist,
            "nprobe": self.nprobe,
            "ntotal": len(s.ids),
            "quantizer": quantizer_spec,
        }
        arrays = dict(
            arrays,
            centroids=self.centroids,
            codes=s.codes,
            ids=s.ids,
            cell_offsets=s.offsets,
        )
        if s.sqnorms is not None:
            arrays["code_sqnorms"] = s.sqnorms
        return header, arrays

    @classmethod
    def from_state(cls, header: dict, arrays) -> "IVFIndex":
        """Rebuild an index from :meth:`export_state` output, validating it.

        *arrays* is any mapping of names to arrays (an open ``.npz``, or
        read-only shared-memory views — nothing here writes to them). The
        state comes from outside the process, so every cross-field invariant
        the scans rely on is checked; a violation raises ``ValueError``
        naming the field. Arrays not read here are ignored (see
        :data:`FORMAT_VERSION`).
        """
        check_format(header.get("format"))
        index = cls(
            header["dim"],
            header["metric"],
            nlist=header["nlist"],
            nprobe=header["nprobe"],
            quantizer=restore_quantizer(header["quantizer"], arrays),
        )
        ntotal = int(header["ntotal"])
        centroids = arrays["centroids"]
        codes = arrays["codes"]
        ids = np.asarray(arrays["ids"], dtype=np.int64)
        offsets = np.asarray(arrays["cell_offsets"], dtype=np.int64)
        if centroids.shape != (index.nlist, index.dim):
            raise _invalid("centroids", f"has shape {centroids.shape}, not (nlist, dim)")
        if offsets.shape != (index.nlist + 1,):
            raise _invalid("cell_offsets", f"has {offsets.size} entries, not nlist + 1")
        if offsets[0] != 0 or (np.diff(offsets) < 0).any():
            raise _invalid("cell_offsets", "is not non-decreasing from 0")
        if offsets[-1] != ntotal:
            raise _invalid("cell_offsets", f"ends at {offsets[-1]}, not ntotal={ntotal}")
        if len(codes) != ntotal or (ntotal and codes.ndim != 2):
            raise _invalid("codes", f"has shape {codes.shape} for ntotal={ntotal}")
        if ntotal and codes.shape[1] * codes.itemsize != index.quantizer.code_size():
            raise _invalid(
                "codes",
                f"rows are {codes.shape[1] * codes.itemsize} bytes, the quantizer's "
                f"are {index.quantizer.code_size()}",
            )
        if ids.shape != (ntotal,):
            raise _invalid("ids", f"has shape {ids.shape} for ntotal={ntotal}")
        if ntotal and (ids.min() < 0 or ids.max() >= ntotal):
            raise _invalid("ids", f"fall outside [0, {ntotal})")
        sealed = SealedLists(
            codes=codes,
            ids=ids,
            offsets=offsets,
            cells=np.repeat(np.arange(index.nlist, dtype=np.int32), np.diff(offsets)),
        )
        if "code_sqnorms" in arrays:
            sqnorms = arrays["code_sqnorms"]
            if sqnorms.shape != (ntotal,):
                raise _invalid("code_sqnorms", f"has shape {sqnorms.shape} for ntotal={ntotal}")
            sealed = replace(sealed, sqnorms=sqnorms)
        index.centroids = centroids
        index.is_trained = True
        index.ntotal = ntotal
        index._sealed = sealed
        return index

    def cell_codes(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous ``(codes, ids)`` views of one inverted list."""
        s = self._warm()
        lo, hi = int(s.offsets[cell]), int(s.offsets[cell + 1])
        return s.codes[lo:hi], s.ids[lo:hi]

    def cell_vectors(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """Decoded ``(vectors, ids)`` of one inverted list."""
        codes, ids = self.cell_codes(cell)
        if not len(ids):
            return np.empty((0, self.dim), dtype=np.float32), ids
        return self.quantizer.decode(codes), ids

    def _decode_chunked(self, codes: np.ndarray) -> np.ndarray:
        out = np.empty((len(codes), self.dim), dtype=np.float32)
        step = 16384
        for lo in range(0, len(codes), step):
            out[lo : lo + step] = self.quantizer.decode(codes[lo : lo + step])
        return out

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """Decode every stored vector; returns ``(vectors, local_ids)``."""
        s = self._warm()
        return self._decode_chunked(s.codes), s.ids.copy()

    def list_sizes(self) -> np.ndarray:
        """Number of stored vectors per inverted list."""
        sizes = np.zeros(self.nlist, dtype=np.int64)
        if self._sealed is not None:
            sizes += np.diff(self._sealed.offsets)
        for _, cells in self._pending:
            sizes += np.bincount(cells, minlength=self.nlist)
        return sizes

    @property
    def _workspace(self) -> Workspace:
        """This thread's scratch arena (one per searching thread)."""
        local = self._ws_local
        if local is None:
            local = self._ws_local = threading.local()
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = Workspace()
        return ws

    # -- search --------------------------------------------------------------
    def _resolve_probe(self, nprobe: int | None) -> int:
        probe = self.nprobe if nprobe is None else int(nprobe)
        if probe <= 0:
            raise ValueError(f"nprobe must be positive, got {probe}")
        return min(probe, self.nlist)

    def _search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        dead: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cell-major batched scan over the compacted inverted lists.

        Two strategies share the same contract and the same tie-breaking
        (probe order, then within-cell storage order, via the stable
        :func:`~repro.ann.distances.top_k`), and scan every probed cell in
        full; one rule on the probed work picks between them for every codec:

        - **Sparse** (low probe coverage): probed cells are grouped across
          the query batch and each cell is scanned exactly once — one
          *shifted* ADC evaluation for every query probing it. Per-cell
          distance blocks land whole in a padded slot-major buffer, so the
          scan loop does no per-cell selection — except at ``k == 1``, where
          each cell is reduced to its winner on the spot and the padded
          buffer never exists (:meth:`_scan_sparse_best`).
        - **Dense** (the batch's probes cover a large fraction of the stored
          codes, e.g. deep search at high nProbe): one kernel over *all*
          codes, then unprobed cells are masked to ``inf``. Same arithmetic,
          no Python-level per-cell loop at all.

        All scratch (ADC tables, distance tiles, merge buffers) comes from
        the per-thread workspace arena, so steady-state searches make no
        large allocations. Per-query ADC bias terms (which cannot change a
        query's own ordering) are added once after selection in every path.

        Deleted rows (``dead``, local ids) are a scan-time mask: every
        strategy sets their distances to ``inf`` right after its kernel and
        before it selects, in the cells that hold one, so a dead row is never
        a candidate and the ``k`` results are the ``k`` best live rows.
        """
        probe = self._resolve_probe(nprobe)
        q = queries
        nq = len(q)
        wants_norms = self.quantizer.needs_code_sqnorms(self.metric)
        masked = dead is not None and len(dead) > 0
        # The one read of the sealed record: everything below scans `s`.
        s = self._warm(sqnorms=wants_norms, positions=masked)
        n_codes = len(s.ids)
        if not n_codes:
            return (
                np.full((nq, k), np.inf, dtype=np.float32),
                np.full((nq, k), -1, dtype=np.int64),
            )
        dead_rows = None
        if masked:
            dead = np.asarray(dead, dtype=np.int64)
            if dead.view(np.uint64).max() >= n_codes:  # negatives read as huge
                raise ValueError(f"dead ids fall outside [0, {n_codes})")
            # Ascending storage rows, so a cell's dead rows are one slice.
            dead_rows = np.sort(s.positions[dead])
        ws = self._workspace

        table = self.quantizer.adc_table(q, self.metric, ws=ws)
        # Probed work as a fraction of a full scan decides the strategy: the
        # dense kernel costs ~nq * n_codes regardless of probe, the sparse
        # loop costs the probed work plus fixed per-cell overhead. How the
        # two per-element costs compare is a property of the codec.
        advantage = self.quantizer.adc_dense_advantage
        if probe == self.nlist and advantage >= 1.0:
            # A full probe (every deep search once nprobe >= nlist) scans
            # every cell for every query, and the dense kernel wins there: it
            # has no use for the cells' ranking, so none is computed.
            probe_cells = None
            pair_work = nq * n_codes
            strategy = "dense"
        else:
            cell_d = pairwise_distance(q, self.centroids, "l2")
            _, probe_cells = top_k(cell_d, probe)
            pair_work = int((s.offsets[1:] - s.offsets[:-1])[probe_cells].sum())
            dense = advantage * pair_work >= nq * n_codes
            strategy = "dense" if dense else "sparse"
        get_registry().counter(
            "ivf_scans_total", "IVF batched scans by strategy"
        ).inc(strategy=strategy)
        # Nearest-neighbour sparse scans reduce per cell instead of
        # collecting candidates (see _scan_sparse_best).
        reduced = strategy == "sparse" and k == 1
        with get_tracer().span(
            "ivf_scan",
            strategy=strategy,
            nq=nq,
            nprobe=probe,
            pair_work=pair_work,
            reduced=reduced,
        ):
            if strategy == "dense":
                out_d, out_i, valid = self._scan_dense(
                    s, q, k, probe, probe_cells, table, ws, dead_rows
                )
            elif reduced:
                out_d, out_i, valid = self._scan_sparse_best(
                    s, q, probe, probe_cells, table, ws, dead_rows
                )
            else:
                out_d, out_i, valid = self._scan_sparse(
                    s, q, k, probe, probe_cells, table, ws, dead_rows
                )
        bias = table.get("bias")
        if bias is not None:
            out_d += bias[:, np.newaxis]
        if self.metric == "l2":
            np.maximum(out_d, 0.0, out=out_d)
        out_d[~valid] = np.inf
        ws.flush_stats()
        return out_d, out_i

    def _scan_dense(self, s, q, k, probe, probe_cells, table, ws, dead_rows):
        """Full-corpus kernel + probe mask; shifted distances, ids, validity."""
        nq = len(q)
        dists = self.quantizer.adc_distances(
            table, s.codes, code_sqnorms=s.sqnorms, shifted=True, ws=ws
        )
        if dead_rows is not None:
            dists[:, dead_rows] = np.inf
        if probe < self.nlist:
            # A full probe masks nothing, so it skips the probe matrix and
            # the per-code gather (and was handed no probe order at all).
            probed = np.zeros((nq, self.nlist), dtype=bool)
            probed[np.arange(nq)[:, np.newaxis], probe_cells] = True
            dists[~probed[:, s.cells]] = np.inf
        out_d, pos = top_k(dists, k)
        valid = np.isfinite(out_d)
        out_i = np.where(valid, s.ids[np.clip(pos, 0, len(s.ids) - 1)], -1)
        return out_d, out_i, valid

    @staticmethod
    def _probe_groups(probe_cells):
        """Invert the (query, slot) probe matrix into cell-major groups.

        Returns ``(order, cells, bounds)``: ``order`` lists the flat
        ``query * probe + slot`` pairs sorted by probed cell (stably, so a
        group keeps query order) and group ``g`` — the pairs probing
        ``cells[g]`` — is ``order[bounds[g]:bounds[g + 1]]``.
        """
        flat = probe_cells.ravel()
        order = np.argsort(flat, kind="stable")
        sorted_cells = flat[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_cells[1:] != sorted_cells[:-1]))
        )
        return order, sorted_cells[starts], np.append(starts, len(order))

    @staticmethod
    def _dead_columns(s, dead_rows, lo, hi):
        """Per probed cell ``lo[g]:hi[g]``, the tile columns of its deleted rows.

        ``dead_rows`` ascends, so a cell's share is one slice of it, found
        for every cell at once by two binary searches; the columns come back
        as plain ints because a sparse tile is a few rows tall and a scalar
        column store beats a fancy one there. With no mask every cell gets
        the same empty tuple and the scan loops run an empty ``for``.
        """
        if dead_rows is None:
            return repeat(())
        cols = (dead_rows - s.offsets[s.cells[dead_rows]]).tolist()
        first = np.searchsorted(dead_rows, lo).tolist()
        end = np.searchsorted(dead_rows, hi).tolist()
        return [cols[a:b] for a, b in zip(first, end)]

    def _scan_sparse(self, s, q, k, probe, probe_cells, table, ws, dead_rows):
        """Per-probed-cell kernels scattered into a padded slot-major buffer.

        Slot r of query qi owns buffer columns ``[r*width, r*width + size)``
        (width = largest probed cell), so winning buffer positions map back
        to stored ids via the CSR offsets with pure arithmetic.
        """
        nq = len(q)
        offsets = s.offsets
        sizes = offsets[1:] - offsets[:-1]
        width = int(sizes[probe_cells].max())
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        out_i = np.full((nq, k), -1, dtype=np.int64)
        if width == 0:
            return out_d, out_i, np.zeros((nq, k), dtype=bool)
        buf = ws.take("sparse_buf", (nq, probe * width), fill=np.inf)
        order, cells, bounds = self._probe_groups(probe_cells)
        wcols = np.arange(width)
        cell_lo, cell_hi = offsets[cells], offsets[cells + 1]
        dead_cols = self._dead_columns(s, dead_rows, cell_lo, cell_hi)

        for b, (lo, hi, dead) in enumerate(
            zip(cell_lo.tolist(), cell_hi.tolist(), dead_cols)
        ):
            if hi == lo:
                continue
            members = order[bounds[b] : bounds[b + 1]]
            q_idx = members // probe
            slot = members % probe
            dists = self.quantizer.adc_distances(
                table,
                s.codes[lo:hi],
                rows=q_idx,
                code_sqnorms=None if s.sqnorms is None else s.sqnorms[lo:hi],
                shifted=True,
                ws=ws,
            )
            for j in dead:
                dists[:, j] = np.inf
            cols = slot[:, np.newaxis] * width + wcols[np.newaxis, : hi - lo]
            buf[q_idx[:, np.newaxis], cols] = dists

        out_d, pos = top_k(buf, k)
        rows = np.arange(nq)[:, np.newaxis]
        # Map winning buffer positions back to stored ids: position -> probe
        # slot -> cell -> CSR offset + within-cell rank.
        slot_of = pos // width
        within = pos - slot_of * width
        cells_of = probe_cells[rows, np.clip(slot_of, 0, probe - 1)]
        id_pos = offsets[cells_of] + within
        valid = np.isfinite(out_d)
        np.copyto(
            out_i, s.ids[np.clip(id_pos, 0, len(s.ids) - 1)], where=valid
        )
        return out_d, out_i, valid

    def _scan_sparse_best(self, s, q, probe, probe_cells, table, ws, dead_rows):
        """The sparse scan at ``k == 1`` as a reduction: argmin, not top-k.

        A nearest-neighbour query — Hermes's sample search — needs one number
        per (query, probed cell): that cell's best distance. Each cell's tile
        (:meth:`Quantizer.adc_tile_kernel`) is reduced to its winning column
        as soon as it is computed; the winners land in an ``(nq, probe)``
        slot matrix and one ``argmin`` over the slots finishes. Tiles sit
        back to back in an arena of exactly the probed work, so the winners'
        values are one gather after the loop — there is no padded
        ``(nq, probe * width)`` buffer to fill, select from and map back.
        First-occurrence ``argmin`` at both levels is the stable ``top_k``'s
        order (probe slot, then within-cell storage position), and every
        tile is the same BLAS call :meth:`_scan_sparse` makes, so
        ``(distances, ids)`` are bit-identical to column 0 of any ``k``.
        """
        nq = len(q)
        offsets = s.offsets
        order, cells, bounds = self._probe_groups(probe_cells)
        pair_q = order // probe
        fill = self.quantizer.adc_tile_kernel(table, pair_q, ws=ws)
        # Group g: pairs bounds[g]:bounds[g+1] against codes lo[g]:hi[g];
        # its (pairs x codes) tile starts at arena offset tile_at[g].
        lo, hi = offsets[cells], offsets[cells + 1]
        n_pairs, n_codes = np.diff(bounds), hi - lo
        tile_at = np.concatenate(([0], np.cumsum(n_pairs * n_codes)))
        arena = ws.take("best_tiles", (int(tile_at[-1]),))
        # Per (query, slot) pair in cell-major order: the winner's rank
        # within its probed cell.
        best = np.zeros(len(order), dtype=np.int64)
        for a, b, c0, c1, t0, t1, dead in zip(
            bounds[:-1].tolist(),
            bounds[1:].tolist(),
            lo.tolist(),
            hi.tolist(),
            tile_at[:-1].tolist(),
            tile_at[1:].tolist(),
            self._dead_columns(s, dead_rows, lo, hi),
        ):
            if c1 > c0:
                tile = arena[t0:t1].reshape(b - a, c1 - c0)
                cell_norms = None if s.sqnorms is None else s.sqnorms[c0:c1]
                fill(s.codes[c0:c1], a, b, cell_norms, tile)
                for j in dead:
                    tile[:, j] = np.inf
                best[a:b] = tile.argmin(axis=1)
        # Winners' distances — arena[tile start + row * width + column],
        # empty cells keep inf — and storage positions, back to slot-major.
        width = np.repeat(n_codes, n_pairs)
        row = np.arange(len(order)) - np.repeat(bounds[:-1], n_pairs)
        at = np.repeat(tile_at[:-1], n_pairs) + row * width + best
        live = np.flatnonzero(width)
        best_d = np.full(len(order), np.inf, dtype=np.float32)
        best_d[live] = arena[at[live]]
        slot_d = np.empty((nq, probe), dtype=np.float32)
        slot_pos = np.empty((nq, probe), dtype=np.int64)
        slot_d.ravel()[order] = best_d
        slot_pos.ravel()[order] = best + np.repeat(lo, n_pairs)
        rows = np.arange(nq)
        slot = slot_d.argmin(axis=1)
        out_d = slot_d[rows, slot][:, np.newaxis]
        valid = np.isfinite(out_d)
        # A query probing only empty cells keeps a position past the end.
        pos = np.minimum(slot_pos[rows, slot], len(s.ids) - 1)
        out_i = np.where(valid, s.ids[pos][:, np.newaxis], -1)
        return out_d, out_i, valid

    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        dead: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k search, optionally overriding the index's default nProbe.

        ``dead`` lists ids (as :meth:`add` assigned them) to leave out: the
        result is the top-k of the other rows, exactly what an index built
        without them would return, padded with ``inf`` / ``-1`` when fewer
        than ``k`` of the probed rows are left.
        """
        return super().search(queries, k, nprobe=nprobe, dead=dead)

    def search_reference(
        self, queries: np.ndarray, k: int, *, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pre-optimisation slow path, retained for equivalence checking.

        Scans query-major: per query, decode every probed cell (cached per
        call), concatenate the candidates, and run one decode-then-GEMM
        top-k. The equivalence suite asserts :meth:`search` matches it exactly.
        """
        if not self.is_trained:
            raise RuntimeError("IVFIndex must be trained before search_reference()")
        from .distances import as_matrix

        q = as_matrix(queries)
        self._check_dim(q)
        k = int(k)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        nq = len(q)
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        out_i = np.full((nq, k), -1, dtype=np.int64)
        if self.ntotal == 0:
            return out_d, out_i
        probe = self._resolve_probe(nprobe)
        cell_d = pairwise_distance(q, self.centroids, "l2")
        _, probe_cells = top_k(cell_d, probe)

        decoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for qi in range(nq):
            cand_vecs: list[np.ndarray] = []
            cand_ids: list[np.ndarray] = []
            for cell in probe_cells[qi]:
                cell = int(cell)
                if cell < 0:
                    continue
                if cell not in decoded:
                    decoded[cell] = self.cell_vectors(cell)
                vecs, ids = decoded[cell]
                if len(ids):
                    cand_vecs.append(vecs)
                    cand_ids.append(ids)
            if not cand_vecs:
                continue
            vecs = np.concatenate(cand_vecs, axis=0)
            ids = np.concatenate(cand_ids)
            dists = pairwise_distance(q[qi : qi + 1], vecs, self.metric)
            d_row, order = top_k(dists, k)
            out_d[qi] = d_row[0]
            valid = order[0] >= 0
            out_i[qi, valid] = ids[order[0][valid]]
        return out_d, out_i

    def memory_bytes(self) -> int:
        payload = int(self.ntotal) * self.quantizer.code_size()
        ids = int(self.ntotal) * 8
        cents = 0 if self.centroids is None else self.centroids.size * 4
        return payload + ids + cents
