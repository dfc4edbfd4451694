"""Inverted File (IVF) index with optional quantization.

IVF is the index family Hermes is built on (§2.1): K-means partitions the
vectors into ``nlist`` cells; a query is compared against the cell centroids
and only the ``nProbe`` nearest cells are scanned. ``nProbe`` is the paper's
central latency/accuracy knob — Hermes's hierarchical search runs the same
index once with a *small* nProbe (sampling) and again with a *large* nProbe
(deep search) on the winning clusters.

The default ``nlist`` follows the paper's rule of thumb ``nlist ≈ sqrt(N)``.

Storage is one immutable sealed record (:class:`SealedLists`: CSR ``codes`` /
``ids`` by cell plus the scan state derived when it is made). Every write
(``add``, :meth:`IVFIndex.install_rows`, :meth:`IVFIndex.from_state`)
publishes a complete record, so a search builds nothing. This module is the
only one that knows its fields; everything else goes through
:meth:`IVFIndex.export_state` / :meth:`IVFIndex.from_state` /
:meth:`IVFIndex.rows_by_local_id`, and names deleted rows by local id
(:meth:`IVFIndex.dead_columns`). A search is plan → kernel → tail: the plan
(:meth:`IVFIndex.plan`) picks the gather kernel over each query's probed
rows, one dense kernel over every code (:func:`dense_wins` decides between
the two) or the rows of a kept dense matrix (:class:`KeptScan`); a live
shard's :class:`LiveView` adds its delta rows as columns of the same scan;
one tail maps the picks to ids. Distances are computed on the codes (ADC,
:meth:`repro.ann.quantization.Quantizer.adc_distances`). DESIGN.md
"Performance architecture" has the why.
"""

from __future__ import annotations

import math
import threading
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from ..obs.metrics import MetricHandle, MetricsRegistry
from ..obs.trace import get_tracer
from .base import VectorIndex
from .delta import DeltaRows
from .distances import as_matrix, squared_l2_into, top_k
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


#: Every scan counts once here, by strategy.
_SCANS = MetricHandle(
    MetricsRegistry.counter, "ivf_scans_total", "IVF batched scans by strategy"
)

def default_nlist(n_vectors: int) -> int:
    """Paper heuristic: ``nlist ≈ sqrt(N)``, at least 1."""
    return max(1, int(round(math.sqrt(max(n_vectors, 1)))))


@dataclass(frozen=True)
class SealedLists:
    """The sealed half of an IVF index: CSR storage plus derived scan state.

    Cell ``c`` owns rows ``[offsets[c], offsets[c + 1])`` of ``codes`` /
    ``ids``; ``cells`` is the row → cell map. The constructor derives, from
    the codec and metric, everything a scan or a delete reads, so a record is
    complete when it is made and a search derives nothing from it:

    - ``sizes``: rows per cell (``np.diff(offsets)``), which the plan weighs
      probed work by, the gather kernel reads CSR windows by and the dense
      scan stretches its probe mask over;
    - ``sqnorms``: ``|decode(code)|²`` per row for ADC metrics that need it
      (:meth:`Quantizer.needs_code_sqnorms`), else ``None``; norms passed in
      (an exported state's) are adopted instead of recomputed;
    - ``operand``: a GEMM codec's levels stored dimension-major as float32
      (``(dim, n)``: :meth:`Quantizer.scan_operand`), the array the dense
      kernel hands BLAS as is, else ``None``. SQ8 / SQ4 keep it beside
      their codes (4 bytes per dimension per row against the codes' 1 or
      ½), so the dense scan converts no levels; the gather kernel reads the
      row-major ``codes``. :meth:`IVFIndex.memory_bytes` still counts the
      stored payload only. It is derived from ``codes``, so it is never
      exported;
    - ``positions``: the local id → storage row map (the inverse of
      ``ids``) :meth:`IVFIndex.dead_columns` looks deleted rows up in, ``-1``
      for a local id ``ids`` misses.

    A record and its arrays are never modified once made (the arrays are
    marked read-only): every writer makes a new record and :class:`IVFIndex`
    swaps it in with one assignment, so a scan that read the attribute once
    finishes on a consistent snapshot whatever is published meanwhile.
    """

    codes: np.ndarray
    ids: np.ndarray
    offsets: np.ndarray
    cells: np.ndarray
    quantizer: InitVar[Quantizer]
    metric: InitVar[str]
    sqnorms: np.ndarray | None = None
    sizes: np.ndarray = field(init=False)
    operand: np.ndarray | None = field(init=False)
    positions: np.ndarray = field(init=False)

    def __post_init__(self, quantizer: Quantizer, metric: str) -> None:
        sqnorms = operand = None
        sizes = np.diff(self.offsets)
        if quantizer.needs_code_sqnorms(metric):
            sqnorms = self.sqnorms
            if sqnorms is None:
                sqnorms = quantizer.code_sqnorms(self.codes)
        if quantizer.has_scan_operand:
            operand = quantizer.scan_operand(self.codes)
        n = len(self.ids)
        positions = np.full(n, -1, dtype=np.int32 if n < 2**31 else np.int64)
        positions[self.ids] = np.arange(n)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "sqnorms", sqnorms)
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "positions", positions)
        for array in vars(self).values():
            if array is not None:
                array.flags.writeable = False

    @classmethod
    def from_rows(
        cls,
        codes: np.ndarray,
        cells: np.ndarray,
        ids: np.ndarray,
        nlist: int,
        quantizer: Quantizer,
        metric: str,
    ) -> "SealedLists":
        """Group rows into CSR cell order with a *stable* sort, so rows
        sharing a cell keep their input order — the stable tie-break of every
        scan depends on it."""
        order = np.argsort(cells, kind="stable")
        offsets = np.zeros(nlist + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=nlist), out=offsets[1:])
        return cls(
            np.ascontiguousarray(np.asarray(codes)[order]),
            ids[order],
            offsets,
            cells[order].astype(np.int32),
            quantizer,
            metric,
        )


class LiveView(NamedTuple):
    """What a live shard adds to a scan of its sealed index.

    ``dead`` holds the sorted scan columns to mask
    (:meth:`IVFIndex.dead_columns`): sealed storage rows, then
    ``ntotal + j`` for dead delta row ``j``. ``delta`` is the memtable's
    published rows, scanned as the columns after every sealed one. A live
    shard derives both when it is written — ``dead`` on a delete or a
    compaction, ``delta`` on an insert — and every search reads them as
    they are. The columns index one sealed record, so a view is valid only
    for the index it was derived from, until that index's storage changes.
    """

    dead: np.ndarray
    delta: DeltaRows | None = None


class KeptScan:
    """A shard's dense sample scan, handed to the same batch's deep call.

    The router passes an empty ``KeptScan`` to each shard's sample
    ``search``; a dense scan fills it with its raw matrix (shifted distances
    to every column, sealed rows then delta rows, dead columns ``inf``, no
    probe mask), the per-query bias, its probe and the cut it read: the
    sealed record and the live view. The searcher hands :meth:`for_rows` of
    it to the deep call on that shard, which only selects from it while it
    :meth:`reads` the same cut at a probe at least the sample's — then its
    answer is the one a dense deep search of the whole batch gives — and
    otherwise scans as if it had none. A sparse sample keeps nothing.

    The matrix lives in the sampling thread's scratch arena of the index
    under a lease (:meth:`Workspace.lease`). It stays intact until that
    thread's next keeping scan of the index — in a search, the next batch's
    sample, after every deep call of this batch has returned — and a
    hand-over whose lease has lapsed is not read.

    An empty hand-over is one object with no state of its own (the fields
    below are class defaults until :meth:`keep` sets them), so the router's
    one per sampled shard costs an allocation and nothing more.
    """

    #: ``(nq, n + m)`` shifted distances, or ``None`` while empty
    dists: "np.ndarray | None" = None
    bias: "np.ndarray | None" = None
    probe = 0
    sealed: "SealedLists | None" = None
    live: "LiveView | None" = None
    #: ``(workspace, lease number)`` of ``dists``
    lease: "tuple | None" = None
    #: the sample's batch rows the holder's queries are; ``None``: all
    rows: "np.ndarray | None" = None

    def keep(self, dists, bias, probe, sealed, live, lease) -> None:
        self.dists, self.bias, self.probe = dists, bias, probe
        self.sealed, self.live, self.lease = sealed, live, lease

    def for_rows(self, rows: np.ndarray) -> "KeptScan":
        """The same scan, for a call whose queries are batch rows *rows*."""
        out = KeptScan()
        out.keep(self.dists, self.bias, self.probe, self.sealed, self.live, self.lease)
        out.rows = rows
        return out

    def reads(self, sealed, live, probe: int) -> bool:
        """True when a call on this cut at *probe* may select from the scan."""
        ws, number = self.lease
        return (
            self.sealed is sealed
            and self.live is live
            and probe >= self.probe
            and ws.holds(_KEPT, number)
        )


#: The workspace key a kept dense scan is leased under.
_KEPT = "kept_dists"


class ScanPlan(NamedTuple):
    """How one search scans, as :meth:`IVFIndex.plan` decides it.

    ``strategy`` is ``"dense"``, ``"sparse"`` (the gather kernel) or
    ``"kept"``. ``probes`` is the ``(nq, nlist)`` probed-cell mask every
    strategy reads (``None`` at a full probe, which is never sparse).
    ``pair_work`` counts the (query, stored row) pairs the probe covers; a
    kept scan runs no kernel and counts 0. ``kept`` picks the dense matrix:
    the filled hand-over a kept scan selects rows of, the empty one a dense
    scan leases its buffer for and fills, or ``None`` for workspace scratch
    (always, for a sparse scan: it keeps nothing).
    """

    strategy: str
    probes: np.ndarray | None
    pair_work: int
    kept: KeptScan | None = None


#: The dense scans' probe penalty: 0 on a probed cell, ``inf`` elsewhere.
_OPEN, _SHUT = np.float32(0.0), np.float32(np.inf)

#: The dead columns of a view with nothing deleted.
_NO_COLUMNS = np.empty(0, dtype=np.int64)
_NO_COLUMNS.flags.writeable = False


def _padding(nq: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The empty result: ``inf`` distances, ``-1`` ids."""
    return (
        np.full((nq, k), np.inf, dtype=np.float32),
        np.full((nq, k), -1, dtype=np.int64),
    )


def _local_ids(ids: np.ndarray, cols: np.ndarray, delta_rows: int) -> np.ndarray:
    """Scan columns to local ids: column ``c < n`` is storage row ``c``
    (local id ``ids[c]``), delta column ``n + j`` is local id ``n + j``.
    Pad columns (``-1``) read an arbitrary id; the caller drops them."""
    n = len(ids)
    if not delta_rows:
        return ids[cols]
    if not n:
        return cols
    out = ids[np.minimum(cols, n - 1)]
    np.copyto(out, cols, where=cols >= n)
    return out


def _invalid(field: str, problem: str) -> ValueError:
    return ValueError(f"invalid IVF index state: {field} {problem}")


def _probed_cells(cell_d: np.ndarray, probe: int) -> np.ndarray:
    """``(nq, nlist)`` mask of each query's *probe* nearest cells.

    The very set ``top_k(cell_d, probe)`` selects, without ranking it: the
    cells at or below each row's probe-th smallest distance, when the next
    one is strictly farther. A tie across the cut (or a NaN) takes the
    stable ``top_k``'s cells instead.
    """
    nq, nlist = cell_d.shape
    if probe == nlist:
        return np.ones((nq, nlist), dtype=bool)
    part = cell_d.copy()
    part.partition((probe - 1, probe), axis=1)
    kth = part[:, probe - 1 : probe]
    if (part[:, probe : probe + 1] > kth).all():
        return cell_d <= kth
    probed = np.zeros((nq, nlist), dtype=bool)
    probed[np.arange(nq)[:, np.newaxis], top_k(cell_d, probe)[1]] = True
    return probed


def dense_wins(pair_work: int, nq: int, n_codes: int, costs: tuple[float, float]) -> bool:
    """The dense / sparse rule short of a full probe: True when one dense
    kernel over all *n_codes* rows costs no more than gathering the
    *pair_work* probed ones.

    Costs are in units of one gathered (query, row) pair, so the gather
    kernel costs *pair_work*. *costs* is the codec's ``(row, pair)``
    (:attr:`Quantizer.dense_costs`): the dense kernel reads its operand once
    per batch, ``row`` per stored row, and evaluates every (query, row)
    pair, ``pair`` each. So a growing batch moves the crossover to smaller
    probes. A tie goes dense. (A full probe is dense without asking:
    :meth:`IVFIndex._plan` does not rank the cells to count its work.)
    """
    row, pair = costs
    return pair_work >= n_codes * (row + nq * pair)


def _nearer_delta(best_d, best_col, tile, n):
    """The ``k == 1`` merge of a live scan: each row's first-best delta
    column (``n + j``) replaces the sealed winner only when strictly closer,
    so exact ties go to the sealed row."""
    j = tile.argmin(axis=1)
    d = tile[np.arange(len(tile)), j]
    closer = d < best_d
    return np.where(closer, d, best_d), np.where(closer, n + j, best_col)


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
        self.centroids = None
        # The published sealed record (``None`` until trained); replaced
        # whole by add() / install_rows(), never edited.
        self._sealed: SealedLists | None = None
        # Per-thread scratch arenas (created lazily: threading.local does not
        # survive copy/pickle, so it must not exist on a fresh index).
        self._ws_local: "threading.local | None" = None

    @property
    def centroids(self) -> np.ndarray | None:
        """The ``(nlist, dim)`` coarse centroids cells are ranked by."""
        return self._centroids

    @centroids.setter
    def centroids(self, centroids: np.ndarray | None) -> None:
        # The coarse ranking's derived state, set with the centroids: their
        # float32 matrix doubled and their squared norms, so a search ranks
        # cells with one GEMM (the arithmetic of ``squared_l2``; doubling is
        # exact through every product and sum). Never exported.
        self._centroids = centroids
        self._coarse = None
        if centroids is not None:
            c = as_matrix(centroids, name="centroids")
            self._coarse = (c * np.float32(2.0), np.einsum("ij,ij->i", c, c))

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
        self._sealed = self._empty_record()

    # -- population ---------------------------------------------------------
    def assign_cells(self, vectors: np.ndarray) -> np.ndarray:
        """Each float32 row's nearest cell: ``assign_to_centroids(vectors,
        centroids, "l2")`` bit for bit, ranked against the centroid norms
        derived with the centroids (a live shard's insert path)."""
        return self._cell_distances(vectors, self._workspace).argmin(axis=1)

    def _add(self, vectors: np.ndarray) -> None:
        """Seal the stored rows, then the new ones, into one new record:
        within a cell the new rows follow the old, and their local ids
        continue the old ones in input order."""
        s = self._sealed
        n = len(s.ids)
        codes = self.quantizer.encode(vectors)
        cells = assign_to_centroids(vectors, self.centroids, "l2")
        ids = np.arange(n, n + len(cells), dtype=np.int64)
        if n:
            codes = np.concatenate([s.codes, codes])
            cells = np.concatenate([s.cells, cells])
            ids = np.concatenate([s.ids, ids])
        self._sealed = self._seal_rows(codes, cells, ids)

    # -- storage ------------------------------------------------------------
    def _seal_rows(self, codes, cells, ids) -> SealedLists:
        return SealedLists.from_rows(
            codes, cells, ids, self.nlist, self.quantizer, self.metric
        )

    def _empty_record(self) -> SealedLists:
        """The record of a trained index holding no rows."""
        codes = self.quantizer.encode(np.empty((0, self.dim), dtype=np.float32))
        no_rows = np.empty(0, dtype=np.int64)
        return self._seal_rows(codes, no_rows, no_rows)

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
        clone._sealed = clone._empty_record()
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
        self._sealed = self._seal_rows(codes, cells, np.arange(n, dtype=np.int64))
        self.ntotal = n

    def rows_by_local_id(self) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, cells)`` with row ``r`` holding local id ``r`` — what
        :meth:`install_rows` would need to rebuild this index."""
        s = self._sealed
        return s.codes[s.positions], s.cells[s.positions].astype(np.int64)

    def export_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The trained index as ``(header, named arrays)``.

        The one serialised form of an index: ``.npz`` persistence writes it
        and :meth:`from_state` rebuilds an index that searches
        bit-identically.
        The arrays are the published record's own (not copies). Of its
        derived state only the ADC norms are exported (a decode pass to
        recompute); the reader derives the scan operand and ``positions``.
        """
        if not self.is_trained:
            raise ValueError("cannot export an untrained IVF index")
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
        read-only views — nothing here writes to them). The
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
        sqnorms = None
        if "code_sqnorms" in arrays and index.quantizer.needs_code_sqnorms(index.metric):
            sqnorms = arrays["code_sqnorms"]
            if sqnorms.shape != (ntotal,):
                raise _invalid("code_sqnorms", f"has shape {sqnorms.shape} for ntotal={ntotal}")
        sealed = SealedLists(
            codes,
            ids,
            offsets,
            np.repeat(np.arange(index.nlist, dtype=np.int32), np.diff(offsets)),
            index.quantizer,
            index.metric,
            sqnorms,
        )
        # An id stored twice leaves another unstored: no storage row.
        if ntotal and sealed.positions.min() < 0:
            raise _invalid("ids", f"are not a permutation of [0, {ntotal})")
        index.centroids = centroids
        index.is_trained = True
        index.ntotal = ntotal
        index._sealed = sealed
        return index

    def cell_codes(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous ``(codes, ids)`` views of one inverted list."""
        s = self._sealed
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
        s = self._sealed
        return self._decode_chunked(s.codes), s.ids.copy()

    def list_sizes(self) -> np.ndarray:
        """Number of stored vectors per inverted list."""
        if self._sealed is None:
            return np.zeros(self.nlist, dtype=np.int64)
        return self._sealed.sizes.copy()

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

    def dead_columns(self, local_ids, delta_rows: int = 0) -> np.ndarray:
        """Sorted scan columns of deleted local ids, for a :class:`LiveView`.

        A sealed row's column is its storage row; delta row ``j`` (local id
        ``ntotal + j``) is column ``ntotal + j``, its own local id. Ids outside
        ``[0, ntotal + delta_rows)`` raise ``ValueError``. The columns index
        the current sealed record, so they stay valid until its storage is
        replaced: a live shard derives them when it deletes or compacts,
        never per search.
        """
        dead = np.sort(np.asarray(local_ids, dtype=np.int64))
        if not len(dead):
            return _NO_COLUMNS
        s = self._sealed
        n = len(s.ids)
        if dead[0] < 0 or dead[-1] >= n + delta_rows:
            raise ValueError(f"dead ids fall outside [0, {n + delta_rows})")
        cut = int(np.searchsorted(dead, n))
        if cut:
            rows = s.positions[dead[:cut]]
            dead = np.concatenate([np.sort(rows), dead[cut:]])
        dead.flags.writeable = False
        return dead

    def plan(
        self,
        queries: np.ndarray,
        *,
        nprobe: int | None = None,
        live: "LiveView | None" = None,
        kept: "KeptScan | None" = None,
    ) -> ScanPlan:
        """The :class:`ScanPlan` :meth:`search` would run on the current
        sealed record for these arguments."""
        probe = self._resolve_probe(nprobe)
        q = as_matrix(queries)
        return self._plan(self._sealed, q, probe, live, kept, self._workspace)

    def _plan(self, s, q, probe, live, kept, ws) -> ScanPlan:
        """Pick the scan of *q* over record *s* at *probe*: kept, dense or
        sparse, deciding from the sealed rows alone.

        A filled *kept* that :meth:`KeptScan.reads` this cut is selected
        from; a filled one of another cut is dropped, so nothing is kept.
        Otherwise :func:`dense_wins` decides from the probed work. A full
        probe is dense without ranking a cell; any other ranks the cells
        to the set of probed ones, which both kernels read.
        """
        nq, n, full = len(q), len(s.ids), probe == self.nlist
        if kept is not None and kept.dists is not None:
            if kept.reads(s, live, probe):
                probed = None if full else _probed_cells(self._cell_distances(q, ws), probe)
                return ScanPlan("kept", probed, 0, kept)
            kept = None
        if full:
            return ScanPlan("dense", None, nq * n, kept)
        probed = _probed_cells(self._cell_distances(q, ws), probe)
        pair_work = int(probed.sum(axis=0) @ s.sizes)
        if dense_wins(pair_work, nq, n, self.quantizer.dense_costs):
            return ScanPlan("dense", probed, pair_work, kept)
        return ScanPlan("sparse", probed, pair_work)

    def _search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        live: "LiveView | None" = None,
        kept: "KeptScan | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Plan, kernel, tail over one read of the sealed record.

        :meth:`_plan` picks the scan. The sparse or dense kernel, or the
        kept matrix's rows, yields each query's ``k`` best shifted distances
        and their scan columns: storage row ``c`` of the record, delta row
        ``j`` of *live* as column ``n + j``, dead columns never picked while
        a live one is left. The tail maps columns to local ids, drops
        non-finite picks, adds the per-query bias and clamps L2 at zero. An
        index with no row to scan returns the padding without reading it.
        """
        q, nq = queries, len(queries)
        delta = None if live is None else live.delta
        m = 0 if delta is None else delta.ntotal
        if not self.ntotal and not m:
            return _padding(nq, k)
        probe = self._resolve_probe(nprobe)
        # The one read of the sealed record: everything below scans `s`.
        s = self._sealed
        n = len(s.ids)
        ws = self._workspace
        plan = self._plan(s, q, probe, live, kept, ws)
        if plan.strategy == "kept":
            bias = plan.kept.bias
            if bias is not None and plan.kept.rows is not None:
                bias = bias[plan.kept.rows]
        else:
            table = self.quantizer.adc_table(q, self.metric, ws=ws)
            bias = table.get("bias")
            # Dead columns split at n: storage rows, then delta row positions.
            dead_sealed = dead_delta = None
            if live is not None and len(live.dead):
                dead = live.dead
                cut = len(dead) if dead[-1] < n else int(np.searchsorted(dead, n))
                dead_sealed = dead[:cut] if cut else None
                dead_delta = dead[cut:] - n if cut < len(dead) else None
        _SCANS().inc(strategy=plan.strategy)
        with get_tracer().span(
            "ivf_scan",
            strategy=plan.strategy,
            nq=nq,
            nprobe=probe,
            pair_work=plan.pair_work,
            reduced=k == 1,
            delta_rows=m,
        ):
            if plan.strategy == "sparse":
                out_d, cols = self._scan_gather(
                    s, k, plan.probes, table, ws, dead_sealed, delta, dead_delta
                )
            else:
                if plan.strategy == "kept":
                    dists = plan.kept.dists
                    if plan.kept.rows is not None:
                        dists = np.take(
                            dists, plan.kept.rows, axis=0, mode="clip",
                            out=ws.take("adc_dists", (nq, n + m)),
                        )
                else:
                    # Headroom for a delta, so a shard's first live read does
                    # not double a buffer sized by its frozen reads.
                    shape, reserve = (nq, n + m), nq * (n + max(m, n // 8))
                    if plan.kept is None:
                        dists = ws.take("adc_dists", shape, reserve=reserve)
                    else:
                        dists, lease = ws.lease(_KEPT, shape, reserve=reserve)
                        plan.kept.keep(dists, bias, probe, s, live, (ws, lease))
                    if n:
                        self.quantizer.adc_distances(
                            table, s.codes, code_sqnorms=s.sqnorms, shifted=True,
                            ws=ws, operand=s.operand, out=dists[:, :n],
                        )
                        if dead_sealed is not None:
                            dists[:, dead_sealed] = np.inf
                    if m:
                        self._scan_delta(table, delta, dead_delta, dists[:, n:], ws)
                out_d, cols = self._select_dense(s, dists, k, plan.probes, m)
        # A non-finite pick is a masked (dead, unprobed or pad) row chosen for
        # want of live ones, or a pad column of ``top_k``: no result.
        finite = np.isfinite(out_d)
        out_i = _local_ids(s.ids, cols, m)
        if bias is not None:
            out_d += bias[:, np.newaxis]
        if self.metric == "l2":
            np.maximum(out_d, 0.0, out=out_d)
        if not finite.all():
            invalid = ~finite
            out_d[invalid] = np.inf
            out_i[invalid] = -1
        ws.flush_stats()
        return out_d, out_i

    def _cell_distances(self, q, ws):
        """Query-to-centroid squared L2, the coarse ranking's input.

        The arithmetic of ``squared_l2(q, centroids)`` against the centroid
        norms derived with the centroids, into workspace buffers.
        """
        doubled, norms = self._coarse
        shape = (len(q), self.nlist)
        return squared_l2_into(
            q, doubled, np.einsum("ij,ij->i", q, q)[:, np.newaxis], norms,
            ws.take("coarse_dists", shape), ws.take("coarse_gram", shape),
        )

    def _scan_delta(self, table, delta, dead, out, ws) -> None:
        """A live view's delta rows as scan columns: shifted distances of
        every table query to them into *out*, the sealed scan's kernel on a
        GEMM of the delta's own shape, then the rows at positions *dead*
        (``None``: none) ``inf``."""
        self.quantizer.adc_distances(
            table, delta.codes, code_sqnorms=delta.sqnorms, shifted=True, ws=ws,
            operand=delta.operand, out=out,
        )
        if dead is not None:
            out[:, dead] = np.inf

    @staticmethod
    def _select_dense(s, dists, k, probed, m):
        """The dense scans' selection: probe mask, then ``top_k`` or, at
        ``k == 1``, a first-occurrence ``argmin`` (its column 0).

        *dists* is a dense scan's ``(nq, n + m)`` shifted distances (the
        kernel's, or rows of a kept one); it is read, never written, so a
        kept matrix stays raw. *probed* is the ``(nq, nlist)`` probed-cell
        mask, or ``None`` for a full probe. Returns shifted distances and
        scan columns.
        """
        nq, n = len(dists), len(s.ids)
        if probed is not None and n:
            # Unprobed cells to inf: a per-(query, cell) penalty, 0 or inf,
            # stretched over each cell's run of sealed columns and summed
            # into that stretch, out of place.
            masked = np.where(probed, _OPEN, _SHUT).repeat(s.sizes, axis=1)
            masked += dists[:, :n]
            if k == 1 and m:
                pos = masked.argmin(axis=1)
                best, pos = _nearer_delta(masked[np.arange(nq), pos], pos, dists[:, n:], n)
                return best[:, np.newaxis], pos[:, np.newaxis]
            dists = np.concatenate((masked, dists[:, n:]), axis=1) if m else masked
        if k > 1:
            # top_k pads with column -1 past n + m: any row, dropped as inf.
            return top_k(dists, k)
        pos = dists.argmin(axis=1)
        return dists[np.arange(nq), pos][:, np.newaxis], pos[:, np.newaxis]

    def _scan_gather(self, s, k, probed, table, ws, dead, delta, dead_delta):
        """The gather kernel: each query reads only its probed rows.

        Row ``q`` of the ``(nq, width)`` gather index lists the storage rows
        of query ``q``'s probed cells in ascending storage order
        (``np.nonzero`` of the probe mask yields each query's cells
        ascending), ``width`` being the most rows any query probes. Their
        row-major codes are gathered once and evaluated by the codec
        (:meth:`Quantizer.adc_gathered`); pad columns and the *dead*
        storage rows are ``inf``. The ``m`` delta rows of *delta* are the
        columns after ``width``. A first-occurrence ``argmin`` (k == 1) or
        the stable ``top_k`` then picks, so an exact tie goes to the lower
        storage row and then to the sealed rows; the picks map back to scan
        columns through the gather index. Returns shifted distances and scan
        columns.

        A sealed row's distance depends only on its code and its query
        (:meth:`Quantizer.adc_gathered`), so rows stored as equal codes tie
        exactly and come in storage order. Delta rows go through the delta's
        own product (:meth:`_scan_delta`, as in the dense kernel), so a
        delta row holding a sealed row's code may round one ulp apart from
        it, and their order is that rounding's.

        At batch 1 the gather index is the one query's probed rows, with no
        pad to build: a batch-1 sample calls this once per shard, and the
        padded form costs about 25 µs more a call.
        """
        nq, n = len(probed), len(s.ids)
        m = 0 if delta is None else delta.ntotal
        if nq == 1:
            idx, pad = probed[0].repeat(s.sizes).nonzero()[0][np.newaxis], None
        else:
            # Query q's probed rows are its run of the flat nonzero list.
            hits = probed.repeat(s.sizes, axis=1).ravel().nonzero()[0]
            q_of, rows = np.divmod(hits, n)
            per_q = probed @ s.sizes
            width = int(per_q.max())
            idx = np.zeros((nq, width), dtype=np.intp)
            idx[q_of, np.arange(len(rows)) - (np.cumsum(per_q) - per_q)[q_of]] = rows
            pad = np.arange(width) >= per_q[:, np.newaxis]
        width = idx.shape[1]
        if not width and not m:
            return _padding(nq, k)
        if width:
            norms = None if s.sqnorms is None else s.sqnorms[idx]
            dists = self.quantizer.adc_gathered(
                table, s.codes.take(idx, axis=0), code_sqnorms=norms
            )
            if dead is not None:
                gone = np.zeros(n, dtype=bool)
                gone[dead] = True
                gone = gone[idx]
                pad = gone if pad is None else pad | gone
            if pad is not None:
                np.copyto(dists, np.inf, where=pad)
        if m:
            tail = np.empty((nq, m), dtype=np.float32)
            self._scan_delta(table, delta, dead_delta, tail, ws)
            dists = np.concatenate((dists, tail), axis=1) if width else tail
        at = np.arange(nq)[:, np.newaxis]
        if k == 1:
            pos = dists.argmin(axis=1)[:, np.newaxis]
            out_d = dists[at, pos]
        else:
            # top_k pads with column -1 past width + m: dropped as inf.
            out_d, pos = top_k(dists, k)
        if not m:
            return out_d, idx[at, pos]
        cols = pos + (n - width)
        if width:
            np.copyto(cols, idx[at, np.minimum(pos, width - 1)], where=pos < width)
        return out_d, cols

    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        live: "LiveView | None" = None,
        kept: "KeptScan | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k search, optionally overriding the index's default nProbe.

        ``live`` is a live shard's :class:`LiveView`: its dead columns
        (:meth:`dead_columns`) are never returned, and its delta row ``j``
        is returned as local id ``ntotal + j``. ``kept`` is a
        :class:`KeptScan` hand-over: an empty one keeps a dense scan's
        distances, a filled one is selected from instead of scanning when it
        is of this cut (:meth:`plan`). ``k`` must be positive.
        """
        if not self.is_trained:
            raise RuntimeError("IVFIndex must be trained before search()")
        k = int(k)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        q = as_matrix(queries)
        self._check_dim(q)
        return self._search(q, k, nprobe=nprobe, live=live, kept=kept)

    def memory_bytes(self) -> int:
        payload = int(self.ntotal) * self.quantizer.code_size()
        ids = int(self.ntotal) * 8
        cents = 0 if self.centroids is None else self.centroids.size * 4
        return payload + ids + cents
