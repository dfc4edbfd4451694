"""Datastore disaggregation: splitting the corpus into per-node indices.

This implements §4.1 of the paper ("Distributed Retrieval Indices"):

1. K-means the corpus embeddings into ``n_clusters`` semantic clusters —
   seeding matters, so several seeds are tried on a 1-2% subset and the seed
   with the lowest cluster-size imbalance (largest/smallest ratio) wins;
2. build a separate IVF index per cluster, each placed on its own node;
3. keep the global-id mapping so per-cluster search results merge back into
   corpus document ids.

The same machinery also builds the *naive equal split* (random sharding, the
"Split" line of Fig. 11 and the distributed-baseline of Fig. 18) so the two
strategies differ only in how documents are assigned to shards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import ContextManager, Protocol

import numpy as np

from ..ann.delta import DeltaIndex
from ..ann.distances import as_matrix, check_finite_rows
from ..ann.ivf import IVFIndex, KeptScan, LiveView
from ..ann.kmeans import KMeansResult, assign_to_centroids, kmeans_seed_sweep
from ..ann.parallel import run_tasks
from ..ann.quantization import make_quantizer
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .config import HermesConfig


class Shard(Protocol):
    """What the rest of the system asks of a shard, in two groups.

    :class:`IndexShard` is the implementation. Wrappers
    (:class:`~repro.serving.faults.FaultyShard`,
    :class:`~repro.serving.replication.ReplicaGroup`, benchmark and test
    proxies) stand in for one in ``ClusteredDatastore.shards`` by putting
    their behaviour around ``search`` and forwarding every other member to
    the real shard — reads *and* calls, so a write never lands on the wrapper.
    """

    # -- serving: what the routers, the searcher and the datastore's
    # mutation verbs use ----------------------------------------------------
    shard_id: int
    #: mean of the live rows; moves with every insert
    centroid: np.ndarray
    #: bumped by every compaction (sealed storage replaced)
    generation: int

    @property
    def has_mutations(self) -> bool:
        """True while a delta memtable or tombstones await compaction."""

    def __len__(self) -> int:
        """Live documents."""

    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: "int | None" = None,
        kept: "KeptScan | None" = None,
        timeout_s: "float | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Top-``k`` ``(distances, global_ids)`` per query.

        ``kept`` hands a scan from a shard's sample call to the same batch's
        deep call on it (:class:`~repro.ann.ivf.KeptScan`): the router passes
        an empty one to each sample, the searcher the filled one, narrowed to
        the routed rows, to the deep call. A wrapper forwards it untouched,
        so both calls still pass through it. ``timeout_s`` is the searcher's
        deadline for the call: a shard that can block (a fault-injected
        delay, a replica set) returns, or raises
        :class:`~repro.core.errors.ShardTimeoutError`, within it."""

    def insert(self, vectors: np.ndarray, global_ids: np.ndarray) -> None: ...

    def delete(self, global_ids: np.ndarray) -> int: ...

    def compact(self) -> bool: ...

    def quiesce(self) -> ContextManager:
        """Block mutations (not searches) while held."""

    # -- storage: read, never written, by the datastore's accounting
    # (``delta_rows``, ``memory_bytes``, ``reconstruct_vectors``,
    # ``live_vectors``) and persistence (``core.store_io``) ------------------
    index: IVFIndex
    #: local id -> global id: sealed rows first, then delta rows
    global_ids: np.ndarray
    delta: "DeltaIndex | None"
    #: local ids deleted since the last compaction
    tombstones: set

    @property
    def tombstoned_ids(self) -> np.ndarray:
        """Global ids of ``tombstones``."""

    def memory_bytes(self) -> int: ...


@dataclass
class IndexShard:
    """One cluster's search index plus its global-id mapping.

    A shard is *live*: inserts after the offline build land in an
    append-only :class:`~repro.ann.delta.DeltaIndex` memtable, scanned as
    extra columns of the sealed IVF index's scan, deletes become tombstones
    that scan masks out, and :meth:`compact` folds everything back into a
    fresh sealed index under ``generation``. Local ids are allocated
    monotonically (sealed rows first, then delta rows) and renumber only at
    compaction, when ``global_ids`` is rebuilt to match — so the
    local→global translation is always positional.

    What a search reads of that state — the index, the local → global id
    map, and the delta's published rows and the dead scan columns as one
    :class:`~repro.ann.ivf.LiveView` — is derived by :meth:`insert`,
    :meth:`delete` and :meth:`compact` and published as one tuple, never
    derived per search.
    """

    shard_id: int
    index: IVFIndex
    global_ids: np.ndarray
    centroid: np.ndarray
    #: bumped by every compaction — the signal that sealed storage has been
    #: replaced.
    generation: int = 0
    delta: DeltaIndex | None = None
    #: local ids (spanning sealed + delta rows) deleted since the last
    #: compaction; masked out of every search, dropped at compaction.
    tombstones: set = field(default_factory=set)

    def __post_init__(self) -> None:
        self._set_ids(np.asarray(self.global_ids, dtype=np.int64))
        delta_rows = self.delta.ntotal if self.delta is not None else 0
        if len(self.global_ids) != self.index.ntotal + delta_rows:
            raise ValueError(
                f"shard {self.shard_id}: {len(self.global_ids)} ids for "
                f"{self.index.ntotal + delta_rows} indexed vectors"
            )
        # ``_lock`` guards attribute snapshots/swaps and is held only for
        # O(state-size) copies, never across a scan or rebuild; searches
        # never take it (they read the published ``_cut``). ``_mutate_lock``
        # serializes the mutators (insert/delete/compact) against each
        # other so nothing can land inside compaction's rebuild window and
        # be dropped by the swap; searches never touch it, so serving keeps
        # running through a compaction. Order: ``_mutate_lock`` outermost.
        self._lock = threading.Lock()
        self._mutate_lock = threading.Lock()
        self._delta_rows = (
            self.delta.snapshot() if self.delta is not None and self.delta.ntotal else None
        )
        self._index_tombstones()

    def _set_ids(self, *parts: np.ndarray) -> None:
        """Store the local -> global id map, the concatenated *parts* with a
        trailing ``-1`` so the padding local id ``-1`` reads ``-1`` in one
        gather (caller holds ``_lock`` once the shard is built). ``global_ids``
        is its view without the ``-1``; both are read-only once set."""
        gid_map = np.concatenate([*parts, _PAD_ID])
        gid_map.flags.writeable = False
        self._gid_map = gid_map
        self.global_ids = gid_map[:-1]

    def _index_tombstones(self) -> None:
        """Derive the scan state of ``tombstones`` (caller holds ``_lock``).

        Runs on every delete and compaction, never on a search: the sorted
        local ids, their global ids, and the dead scan columns every search
        masks — asked of the sealed index once
        (:meth:`~repro.ann.ivf.IVFIndex.dead_columns`).
        """
        local = np.fromiter(self.tombstones, dtype=np.int64, count=len(self.tombstones))
        local.sort()
        self._tomb_local = local
        self._tomb_global = self.global_ids[local]
        delta_n = self._delta_rows.ntotal if self._delta_rows is not None else 0
        self._dead = self.index.dead_columns(local, delta_n)
        self._publish()

    def _publish(self) -> None:
        """Publish the cut searches read (caller holds ``_lock``): the
        index, the id map (``_gid_map``) and the
        :class:`~repro.ann.ivf.LiveView`, ``None`` while nothing is mutated,
        as one tuple that a search reads with one attribute read."""
        live = len(self._dead) or self._delta_rows is not None
        view = LiveView(self._dead, self._delta_rows) if live else None
        self._cut = (self.index, self._gid_map, view)

    def quiesce(self):
        """Context manager blocking mutations (insert/delete/compact).

        Searches proceed normally while it is held. Persistence wraps each
        shard's writes in this so the saved index/ids/delta/tombstones are
        one consistent cut rather than a torn mid-mutation read.
        """
        return self._mutate_lock

    def __len__(self) -> int:
        """Live documents: sealed + delta rows minus tombstones."""
        delta_rows = self.delta.ntotal if self.delta is not None else 0
        return self.index.ntotal + delta_rows - len(self.tombstones)

    @property
    def has_mutations(self) -> bool:
        """True when search must consult the delta or tombstone state."""
        return bool(self.tombstones) or (
            self.delta is not None and self.delta.ntotal > 0
        )

    @property
    def tombstoned_ids(self) -> np.ndarray:
        """Global ids of ``tombstones`` (ascending local-id order)."""
        return self._tomb_global

    # -- mutation ------------------------------------------------------------
    def insert(self, vectors: np.ndarray, global_ids: np.ndarray) -> None:
        """Append new rows to the delta memtable (local ids stay monotone).

        The shard centroid moves as a running mean over the live rows. The
        update lives here rather than in the datastore because shard wrappers
        (:class:`~repro.serving.faults.FaultyShard`, replica groups) delegate
        calls and reads but not attribute writes.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if len(vectors) != len(global_ids):
            raise ValueError(f"{len(vectors)} vectors for {len(global_ids)} ids")
        if not len(vectors):
            return
        # A NaN row would be stored and pull the centroid (so every later
        # insert's routing) to NaN: refuse it before anything changes.
        check_finite_rows(vectors, "vector")
        with self._mutate_lock, self._lock:
            old_size = len(self)
            if self.delta is None:
                self.delta = DeltaIndex(self.index)
            self.delta.add(vectors)
            self._delta_rows = self.delta.snapshot()
            self._set_ids(self.global_ids, global_ids)
            self._publish()
            total = old_size + len(vectors)
            # vectors.mean(axis=0), bit for bit, without its wrapper's cost
            mean = np.add.reduce(vectors, axis=0)
            mean /= len(vectors)
            self.centroid = (
                (self.centroid * old_size + mean * len(vectors)) / total
            ).astype(np.float32)

    def delete(self, global_ids: np.ndarray) -> int:
        """Tombstone rows by global id; returns the number deleted.

        Raises ``KeyError`` when an id is unknown to this shard or already
        deleted — silent double-deletes would corrupt the live count.
        """
        targets = np.unique(np.asarray(global_ids, dtype=np.int64))
        with self._mutate_lock, self._lock:
            local = _local_ids_of(self.global_ids, targets)
            if len(local) != len(targets):
                known = set(self.global_ids[local].tolist())
                missing = [int(g) for g in targets if int(g) not in known]
                raise KeyError(
                    f"shard {self.shard_id}: unknown global ids {missing[:5]}"
                )
            stale = [int(p) for p in local if int(p) in self.tombstones]
            if stale:
                raise KeyError(
                    f"shard {self.shard_id}: ids already deleted "
                    f"{[int(self.global_ids[p]) for p in stale[:5]]}"
                )
            self.tombstones.update(int(p) for p in local)
            self._index_tombstones()
        return len(targets)

    def compact(self) -> bool:
        """Fold delta rows and drop tombstones into a fresh sealed index.

        Survivor rows keep their *original codes* (no re-encode) and their
        insert-time cell assignments, ordered sealed-survivors-then-delta —
        exactly the rows an offline rebuild over the live set would install.
        ``IVFIndex.install_rows`` seals them with every derived array a scan
        reads before the atomic swap, so no search ever observes a cold or
        half-built sealed index. The shard's mutation lock is held for the
        whole rebuild, so a concurrent insert/delete blocks until the swap
        instead of landing in the rebuild window and being dropped by it;
        searches keep serving the old sealed state throughout. Returns True
        when anything changed.
        """
        with self._mutate_lock:
            return self._compact_locked()

    def _compact_locked(self) -> bool:
        with self._lock:
            if not self.has_mutations:
                return False
            sealed = self.index
            delta = self.delta
            tomb = self._tomb_local
            gids = self.global_ids
        sealed_n = sealed.ntotal
        delta_n = delta.ntotal if delta is not None else 0
        with get_tracer().span(
            "compact",
            shard=int(self.shard_id),
            sealed_rows=sealed_n,
            delta_rows=delta_n,
            tombstones=len(tomb),
        ):
            codes_by_local, cells_by_local = sealed.rows_by_local_id()
            survivors = np.setdiff1d(
                np.arange(sealed_n + delta_n, dtype=np.int64), tomb,
                assume_unique=True,
            )
            parts_codes = []
            parts_cells = []
            sealed_live = survivors[survivors < sealed_n]
            delta_live = survivors[survivors >= sealed_n] - sealed_n
            if len(sealed_live):
                parts_codes.append(codes_by_local[sealed_live])
                parts_cells.append(cells_by_local[sealed_live])
            if len(delta_live):
                parts_codes.append(delta.codes[delta_live])
                parts_cells.append(delta.cells[delta_live])
            fresh = sealed.fresh_sealed_like()
            if parts_codes:
                fresh.install_rows(
                    np.ascontiguousarray(np.concatenate(parts_codes, axis=0)),
                    np.concatenate(parts_cells),
                )
            new_gids = gids[survivors]
            with self._lock:
                self.index = fresh
                self._set_ids(new_gids)
                self.delta = None
                self._delta_rows = None
                self.tombstones = set()
                self._index_tombstones()
                self.generation += 1
        get_registry().counter(
            "datastore_compactions_total", "shard compaction passes"
        ).inc(shard=str(int(self.shard_id)))
        return True

    # -- search --------------------------------------------------------------
    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        kept: "KeptScan | None" = None,
        timeout_s: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k within this shard, with ids translated to global ids.

        One scan: the sealed index searches its rows and the delta rows as
        extra columns, masks the tombstoned ones and selects once
        (:meth:`IVFIndex.search` with the shard's
        :class:`~repro.ann.ivf.LiveView`), so nothing is over-fetched, merged
        or filtered afterwards. Delta columns come after the sealed ones, so
        exact distance ties resolve sealed-first — the insertion order a
        flat rebuild over the live set would produce.

        Concurrency: the index, ids and live view are published together as
        one tuple and read with one attribute read, and the whole search runs
        against that point-in-time cut. The view's arrays are never written
        after they are published, so concurrent inserts, deletes and
        compaction swaps can never mix generations mid-search or grow the
        delta under the scan.

        ``kept`` (see :meth:`Shard.search`) is that cut's too: a sample keeps
        its dense scan together with the index record and view it read, and
        a deep call selects from it only when it reads the very same ones —
        a write between the two calls makes the deep call scan.
        ``timeout_s`` is ignored: the search is bounded in-process compute.
        """
        index, gid_map, live = self._cut
        dists, local = index.search(queries, k, nprobe=nprobe, live=live, kept=kept)
        return dists, gid_map[local]

    def memory_bytes(self) -> int:
        total = self.index.memory_bytes()
        if self.delta is not None:
            total += self.delta.memory_bytes()
        return total


def _local_ids_of(gids: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Ascending local ids whose global id is in *targets* (sorted, unique).

    Global ids are allocated in increasing order and compaction keeps their
    order, so a shard's ``global_ids`` is ascending unless its builder made
    it otherwise: a binary search then, an ``isin`` over every row if not.
    """
    if len(gids) > 1 and not (gids[1:] > gids[:-1]).all():
        return np.flatnonzero(np.isin(gids, targets))
    pos = np.searchsorted(gids, targets)
    found = pos < len(gids)
    found[found] = gids[pos[found]] == targets[found]
    return pos[found]


#: The global id a padding local id ``-1`` maps to (``IndexShard._set_ids``)
_PAD_ID = np.array([-1], dtype=np.int64)


#: Training-row cap of a shard's PQ / OPQ codebooks: they train on a
#: deterministic sample of this many rows. Scalar codecs see every row.
_CODEBOOK_TRAIN_ROWS = 16_384


def _build_shard(
    shard_id: int,
    embeddings: np.ndarray,
    member_ids: np.ndarray,
    config: HermesConfig,
) -> IndexShard:
    members = embeddings[member_ids]
    dim = embeddings.shape[1]
    nlist = config.nlist
    if nlist is not None:
        # A requested cell count is capped at half the shard's rows (at least
        # one cell); ``None`` leaves the sqrt(N) default to train time.
        nlist = min(nlist, max(1, len(member_ids) // 2))
    index = IVFIndex(
        dim,
        config.metric,
        nlist=nlist,
        nprobe=config.deep_nprobe,
        quantizer=make_quantizer(
            config.quantization, dim, train_sample=_CODEBOOK_TRAIN_ROWS
        ),
        train_seed=shard_id,
    )
    index.train(members)
    index.add(members)
    return IndexShard(
        shard_id=shard_id,
        index=index,
        global_ids=member_ids,
        centroid=members.mean(axis=0).astype(np.float32),
    )


@dataclass
class ClusteredDatastore:
    """The distributed datastore: one IVF shard per K-means cluster."""

    shards: "list[Shard]"
    config: HermesConfig
    clustering: KMeansResult | None = None
    #: per-document shard assignment, length = total ids ever allocated
    #: (tombstoned documents keep their row — global ids are never reused)
    assignments: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: datastore-wide mutation counter: bumped by every insert and delete
    #: batch — the events that can change search results. The serving layer
    #: folds this into cache validity (see ``ServingFrontend``), so any
    #: result-changing mutation invalidates stale entries. Compaction is
    #: result-preserving by the mutation-equivalence contract and does NOT
    #: bump it (cached answers stay valid); the per-shard
    #: ``IndexShard.generation`` is what moves on compaction — the signal
    #: that sealed storage was replaced.
    mutations: int = 0

    def __post_init__(self) -> None:
        if len(self.shards) != self.config.n_clusters:
            raise ValueError(
                f"expected {self.config.n_clusters} shards, got {len(self.shards)}"
            )

    @property
    def n_clusters(self) -> int:
        return len(self.shards)

    @property
    def ntotal(self) -> int:
        return sum(len(s) for s in self.shards)

    @property
    def dim(self) -> int:
        """Vector dimensionality every shard stores."""
        return self.shards[0].index.dim

    def sizes(self) -> np.ndarray:
        """Documents per shard."""
        return np.array([len(s) for s in self.shards], dtype=np.int64)

    @property
    def imbalance(self) -> float:
        """Largest/smallest shard-size ratio (§4.1's imbalance proxy)."""
        sizes = self.sizes()
        smallest = int(sizes.min())
        if smallest == 0:
            return float("inf")
        return float(sizes.max()) / float(smallest)

    def centroids(self) -> np.ndarray:
        """Per-shard mean embeddings (used by centroid-only routing)."""
        return np.stack([s.centroid for s in self.shards])

    def memory_bytes(self) -> int:
        return sum(s.memory_bytes() for s in self.shards)

    def add_documents(self, embeddings: np.ndarray) -> np.ndarray:
        """Ingest new documents online (the RAG freshness story, §1).

        The whole point of RAG is a *mutable* datastore that absorbs new
        information without retraining; Hermes must therefore accept inserts
        after the offline split. Each new document goes to the shard with the
        nearest centroid (the same rule queries route by), lands in that
        shard's delta memtable (:class:`~repro.ann.delta.DeltaIndex`, folded
        into the sealed IVF index at the next compaction), and nudges the
        shard centroid as a running mean. Returns the assigned global ids.

        Sustained skewed ingest grows the imbalance the seed sweep minimised;
        callers can watch :attr:`imbalance` and re-split offline when it
        drifts (the paper's offline/online split applies — K-means re-runs
        are an offline maintenance action).
        """
        vecs = as_matrix(embeddings)
        if vecs.shape[1] != self.dim:
            raise ValueError(f"dim {vecs.shape[1]} != datastore dim {self.dim}")
        if not len(vecs):  # nothing changes, so no cached answer goes stale
            return np.empty(0, dtype=np.int64)
        check_finite_rows(vecs, "document")
        targets = assign_to_centroids(vecs, self.centroids(), "l2")
        # Ids are allocated from the full id space, not the live count —
        # after deletes the two differ and reusing a tombstoned id would
        # resurrect it.
        start = len(self.assignments)
        new_ids = np.arange(start, start + len(vecs), dtype=np.int64)
        # One stable sort groups the rows by shard, each group in input
        # order, so every shard gets one contiguous slice.
        order = np.argsort(targets, kind="stable")
        bounds = np.searchsorted(targets[order], np.arange(self.n_clusters + 1))
        rows, ids = vecs[order], new_ids[order]
        for shard_id in np.flatnonzero(np.diff(bounds)):
            lo, hi = bounds[shard_id], bounds[shard_id + 1]
            self.shards[shard_id].insert(rows[lo:hi], ids[lo:hi])
        self.assignments = np.concatenate(
            [self.assignments, targets.astype(np.int64)]
        )
        self._record_mutation("datastore_inserts_total", len(vecs))
        return new_ids

    def delete_documents(self, global_ids) -> int:
        """Tombstone documents by global id; returns the number deleted.

        Deleted rows vanish from every subsequent search (sealed and delta
        alike) immediately; their storage is reclaimed by :meth:`compact`.
        Unknown or already-deleted ids raise ``KeyError``.
        """
        targets = np.unique(np.asarray(global_ids, dtype=np.int64))
        if not len(targets):
            return 0
        if targets.min() < 0 or targets.max() >= len(self.assignments):
            raise KeyError(f"global id out of range: {int(targets.min())}..."
                           f"{int(targets.max())} vs {len(self.assignments)} allocated")
        owners = self.assignments[targets]
        for shard_id in np.unique(owners):
            self.shards[shard_id].delete(targets[owners == shard_id])
        self._record_mutation("datastore_deletes_total", len(targets))
        return len(targets)

    def compact(self) -> int:
        """Compact every shard; returns how many changed.

        Each changed shard's sealed index is rebuilt and swapped
        atomically under its ``generation`` counter; searches running
        concurrently keep using the old sealed state until the swap.
        Compaction is result-preserving (the mutation-equivalence
        contract), so it does *not* bump the datastore-wide ``mutations``
        counter — retrieval-cache entries stay valid across a compaction;
        only the per-shard generations move.
        """
        changed = sum(1 for shard in self.shards if shard.compact())
        if changed:
            self._update_delta_gauge()
        return changed

    @property
    def generation(self) -> int:
        """Monotone datastore-wide version: changes whenever results could."""
        return self.mutations

    def delta_rows(self) -> int:
        """Rows currently in delta memtables across all shards."""
        return sum(s.delta.ntotal for s in self.shards if s.delta is not None)

    def _record_mutation(self, counter: str, n: int) -> None:
        self.mutations += 1
        get_registry().counter(counter, "live datastore mutations").inc(n)
        self._update_delta_gauge()

    def _update_delta_gauge(self) -> None:
        get_registry().gauge(
            "datastore_delta_size", "rows awaiting compaction in delta memtables"
        ).set(self.delta_rows())

    def reconstruct_vectors(self) -> np.ndarray:
        """Decode every stored vector back into global-id order.

        Returns an ``(n_allocated_ids, dim)`` matrix of the *quantized*
        vectors (lossy for non-flat codecs) — the data an exhaustive
        ground-truth search over the deployed datastore actually sees. Rows
        of tombstoned documents are zero-filled; mutated stores should
        prefer :meth:`live_vectors`, which returns only live rows plus
        their global ids.
        """
        dim = self.dim
        n = len(self.assignments) if len(self.assignments) else self.ntotal
        out = np.zeros((n, dim), dtype=np.float32)
        for shard in self.shards:
            vecs, local = shard.index.reconstruct()
            out[shard.global_ids[local]] = vecs
            if shard.delta is not None and shard.delta.ntotal:
                out[shard.global_ids[shard.index.ntotal :]] = shard.delta.reconstruct()
            if shard.tombstones:
                out[shard.tombstoned_ids] = 0.0
        return out

    def live_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Decoded live vectors plus their global ids, in global-id order.

        The ground truth a rebuild-from-scratch over the current live set
        would search — what the mutation-equivalence harness compares
        against.
        """
        vecs = self.reconstruct_vectors()
        dead = np.concatenate(
            [s.tombstoned_ids for s in self.shards]
            + [np.empty(0, dtype=np.int64)]
        )
        live = np.setdiff1d(
            np.concatenate([s.global_ids for s in self.shards]), dead,
            assume_unique=False,
        )
        return vecs[live], live

    def shard_token_sizes(self, total_tokens: float) -> list[float]:
        """Map a nominal datastore token size onto shards by document share.

        Used to drive the multi-node performance model with the measured
        shard imbalance of a real clustering.
        """
        sizes = self.sizes().astype(np.float64)
        return list(total_tokens * sizes / sizes.sum())


def cluster_datastore(
    embeddings: np.ndarray, config: HermesConfig | None = None
) -> ClusteredDatastore:
    """Hermes's semantic disaggregation: K-means split + per-cluster IVF.

    Runs the paper's seed sweep on a small subset to pick the K-means seed
    with the least cluster-size imbalance, then builds one IVF index per
    resulting cluster. Shard builds are independent seeded subproblems, so
    they fan out on a thread pool (``config.build_workers``) with bit-exact
    results at any worker count.
    """
    config = config or HermesConfig()
    emb = as_matrix(embeddings)
    tracer = get_tracer()
    with tracer.span(
        "build_datastore", strategy="semantic", docs=len(emb), clusters=config.n_clusters
    ) as build_span:
        with tracer.span(
            "kmeans_seed_sweep",
            seeds=len(tuple(config.kmeans_seeds)),
            subset_fraction=config.kmeans_subset_fraction,
        ):
            result = kmeans_seed_sweep(
                emb,
                config.n_clusters,
                seeds=config.kmeans_seeds,
                subset_fraction=config.kmeans_subset_fraction,
                workers=config.build_workers,
            )
        members_per_cluster = []
        for cid in range(config.n_clusters):
            member_ids = np.flatnonzero(result.assignments == cid).astype(np.int64)
            if not len(member_ids):
                raise RuntimeError(
                    f"cluster {cid} is empty after K-means; use fewer clusters"
                )
            members_per_cluster.append(member_ids)
        shards = _build_shards_traced(emb, members_per_cluster, config, build_span)
    return ClusteredDatastore(
        shards=shards, config=config, clustering=result, assignments=result.assignments
    )


def _build_shards_traced(
    emb: np.ndarray,
    members_per_cluster: list,
    config: HermesConfig,
    parent,
) -> list:
    """Fan the per-shard builds out on a pool, one span per shard.

    Shard builds run on pool threads, so their spans take an explicit parent
    (thread-local nesting does not cross the pool boundary) and a distinct
    ``worker`` label — parallel builds legitimately overlap in time.
    """
    tracer = get_tracer()
    with tracer.span(
        "build_shards", parent=parent, shards=len(members_per_cluster)
    ) as fan_span:

        def build_one(cid: int, ids: np.ndarray):
            with tracer.span(
                "build_shard",
                parent=fan_span,
                worker=f"builder{cid}",
                shard=cid,
                docs=len(ids),
            ):
                return _build_shard(cid, emb, ids, config)

        return run_tasks(
            [
                lambda cid=cid, ids=ids: build_one(cid, ids)
                for cid, ids in enumerate(members_per_cluster)
            ],
            workers=config.build_workers,
        )


def split_datastore_evenly(
    embeddings: np.ndarray, config: HermesConfig | None = None, *, seed: int = 0
) -> ClusteredDatastore:
    """Naive random equal split (the paper's "Split" baseline, Fig. 11).

    Documents are shuffled and dealt into ``n_clusters`` equal shards, so no
    shard has topical coherence — every query must search all shards to match
    monolithic accuracy.
    """
    config = config or HermesConfig()
    emb = as_matrix(embeddings)
    n = len(emb)
    if n < config.n_clusters:
        raise ValueError(f"need at least {config.n_clusters} documents, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    members_per_cluster = []
    for cid, member_ids in enumerate(np.array_split(order, config.n_clusters)):
        member_ids = np.sort(member_ids).astype(np.int64)
        assignments[member_ids] = cid
        members_per_cluster.append(member_ids)
    with get_tracer().span(
        "build_datastore", strategy="split", docs=n, clusters=config.n_clusters
    ) as build_span:
        shards = _build_shards_traced(emb, members_per_cluster, config, build_span)
    return ClusteredDatastore(
        shards=shards, config=config, clustering=None, assignments=assignments
    )

