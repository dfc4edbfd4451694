"""Slow reference implementations the fast paths are held to.

None of this is product code: each function is the straightforward version
of something ``src/repro`` does fast, kept so a test can compare the two.

- :func:`ivf_search_reference` — query-major IVF search: per query, decode
  every probed cell, concatenate, one decode-then-GEMM top-k. Oracle of
  ``tests/ann/test_search_equivalence.py`` and the hierarchical searcher's
  reference path.
- :func:`sparse_scan_oracle` — the sparse IVF scan as a per-(query, probed
  row) loop of ``adc_distances`` calls with the deleted-row mask, against
  which the gather kernel is held (``tests/ann/test_sparse_scan.py``).
- :func:`live_shard_two_scan_oracle` — a live shard's read as two scans plus
  a merge: the sealed IVF scan with its tombstones masked, a brute-force scan
  of the delta rows with theirs, and a ``[sealed | delta]`` merge. The
  one-pass live scan (``tests/ann/test_mutation_equivalence.py``) is held to
  it bit for bit.
- :func:`whole_batch_deep_oracle` — the hierarchical searcher's deep phase
  with no scan kept: every routed shard deep-searches the *whole* batch
  through the scanning path and the rows routed to it are taken, then the
  searcher's merge. A deep call that selects from its shard's kept sample
  scan (``tests/core/test_kept_scan.py``) is held to it bit for bit; one
  with nothing to select from, to a search of its routed rows.
- :func:`kmeans_reference` — Lloyd's with the full distance matrix and
  ``np.add.at`` scatter adds: the quality-parity baseline of ``train_kmeans``.
- :func:`reference_encode_tokens` — the bag-of-tokens encoder as one
  ``acc += token_vector(t)`` step per token; the token-table encoder's
  ordered gathers (``tests/datastore/test_ingest_equivalence.py``) are held
  to it bit for bit.
- :func:`reference_generate` — the corpus generator as per-document
  ``Generator.choice`` calls; ``CorpusGenerator.generate`` must produce the
  same documents.

Two helpers drive the fast path the way the oracles need:
:func:`forced_strategy` pins the IVF scan to one kernel and
:func:`dead_view` masks deleted rows of a frozen index.
"""

from __future__ import annotations

import contextlib
import functools
from unittest import mock

import numpy as np

from repro.ann.distances import as_matrix, normalize, pairwise_distance, top_k
from repro.ann.ivf import LiveView
from repro.ann.kmeans import KMeansResult, _kmeanspp_init, _validate_problem
from repro.datastore.corpus import Document

#: The scan strategy a test asks for: "rule" leaves the dense / sparse choice
#: to the codec's ``dense_costs``; "sparse" and "dense" force one kernel at
#: every probe depth short of a full probe, which is always dense.
_INF = float("inf")
FORCED = {"rule": None, "sparse": (_INF, _INF), "dense": (0.0, 0.0)}


@contextlib.contextmanager
def forced_strategy(index, strategy):
    """Run the block with *strategy* (a key of :data:`FORCED`) forced on
    *index*'s codec."""
    costs = FORCED[strategy]
    with contextlib.ExitStack() as stack:
        if costs is not None:
            stack.enter_context(mock.patch.object(index.quantizer, "dense_costs", costs))
        yield


def dead_view(index, dead):
    """The :class:`LiveView` that masks local ids *dead* of a frozen
    *index* (``None`` for ``None``)."""
    return None if dead is None else LiveView(index.dead_columns(dead))


def _probe_order(index, queries, nprobe):
    """The IVF scan's coarse ranking: each query's probed cells, nearest first."""
    probe = min(index.nprobe if nprobe is None else int(nprobe), index.nlist)
    _, cells = top_k(pairwise_distance(queries, index.centroids, "l2"), probe)
    return cells


def ivf_search_reference(index, queries, k, *, nprobe=None):
    """Query-major search over decoded vectors (no ADC, no batching).

    Per query: decode every probed cell (cached per call), concatenate the
    candidates in probe order and run one decode-then-GEMM stable top-k.
    """
    if not index.is_trained:
        raise RuntimeError("IVFIndex must be trained before search_reference()")
    q = as_matrix(queries)
    k = int(k)
    nq = len(q)
    out_d = np.full((nq, k), np.inf, dtype=np.float32)
    out_i = np.full((nq, k), -1, dtype=np.int64)
    if index.ntotal == 0:
        return out_d, out_i
    decoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for qi, cells in enumerate(_probe_order(index, q, nprobe)):
        cand_vecs, cand_ids = [], []
        for cell in cells.tolist():
            if cell not in decoded:
                decoded[cell] = index.cell_vectors(cell)
            vecs, ids = decoded[cell]
            if len(ids):
                cand_vecs.append(vecs)
                cand_ids.append(ids)
        if not cand_vecs:
            continue
        vecs = np.concatenate(cand_vecs, axis=0)
        ids = np.concatenate(cand_ids)
        d_row, order = top_k(pairwise_distance(q[qi : qi + 1], vecs, index.metric), k)
        out_d[qi] = d_row[0]
        valid = order[0] >= 0
        out_i[qi, valid] = ids[order[0][valid]]
    return out_d, out_i


def sparse_scan_oracle(index, queries, k, *, nprobe, dead=None):
    """The sparse scan, one ``adc_distances`` call per (query, probed row).

    Same coarse ranking, same shifted ADC arithmetic, each row evaluated on
    its own so that rows holding equal codes get equal distances, deleted
    rows (local ids) set to ``inf`` before selection, candidates laid out in
    storage order (probed cells ascending, as the dense scan's columns run)
    and selected by the stable ``top_k`` — then the per-query bias and the
    L2 clamp, as the scan applies them. Returns ``(distances, ids)``.
    """
    quantizer = index.quantizer
    q = as_matrix(queries)
    nq = len(q)
    out_d = np.full((nq, k), np.inf, dtype=np.float32)
    out_i = np.full((nq, k), -1, dtype=np.int64)
    if index.ntotal == 0:
        return out_d, out_i
    dead = set() if dead is None else set(np.asarray(dead).tolist())
    table = quantizer.adc_table(q, index.metric)
    wants_norms = quantizer.needs_code_sqnorms(index.metric)
    for qi, cells in enumerate(_probe_order(index, q, nprobe)):
        cand_d, cand_i = [], []
        for cell in sorted(cells.tolist()):
            codes, ids = index.cell_codes(cell)
            if not len(ids):
                continue
            norms = quantizer.code_sqnorms(codes) if wants_norms else None
            d = np.array([
                quantizer.adc_distances(
                    table,
                    codes[j : j + 1],
                    rows=np.array([qi]),
                    code_sqnorms=None if norms is None else norms[j : j + 1],
                    shifted=True,
                )[0, 0]
                for j in range(len(ids))
            ], dtype=np.float32)
            d[[j for j, i in enumerate(ids.tolist()) if i in dead]] = np.inf
            cand_d.append(d)
            cand_i.append(ids)
        if not cand_d:
            continue
        d_row, order = top_k(np.concatenate(cand_d)[np.newaxis, :], k)
        ids = np.concatenate(cand_i)
        valid = np.isfinite(d_row[0])
        out_d[qi] = d_row[0]
        out_i[qi, valid] = ids[order[0][valid]]
    bias = table.get("bias")
    if bias is not None:
        out_d += bias[:, np.newaxis]
    if index.metric == "l2":
        np.maximum(out_d, 0.0, out=out_d)
    out_d[out_i < 0] = np.inf
    return out_d, out_i


def _to_global(local, gids):
    out = np.full(local.shape, -1, dtype=np.int64)
    valid = local >= 0
    out[valid] = gids[local[valid]]
    return out


def delta_scan_oracle(quantizer, metric, codes, queries, k, *, dead=()):
    """Brute-force top-``k`` over delta *codes*: one whole-delta
    ``adc_distances`` call, rows at positions *dead* set to ``inf``, then the
    stable ``top_k`` (a first-occurrence ``argmin`` at ``k == 1``), the bias
    and the L2 clamp. Returns ``(distances, positions)``."""
    q = as_matrix(queries)
    nq = len(q)
    table = quantizer.adc_table(q, metric)
    norms = quantizer.code_sqnorms(codes) if quantizer.needs_code_sqnorms(metric) else None
    dists = quantizer.adc_distances(table, codes, code_sqnorms=norms, shifted=True)
    dists[:, np.asarray(dead, dtype=np.int64)] = np.inf
    if k == 1:
        pos = dists.argmin(axis=1)
        out_d = dists[np.arange(nq), pos][:, np.newaxis]
        out_i = pos[:, np.newaxis]
    else:
        out_d, out_i = top_k(dists, k)
    out_i[~np.isfinite(out_d)] = -1
    bias = table.get("bias")
    if bias is not None:
        out_d += bias[:, np.newaxis]
    if metric == "l2":
        np.maximum(out_d, 0.0, out=out_d)
    return out_d, out_i


def live_shard_two_scan_oracle(shard, queries, k, *, nprobe=None):
    """``IndexShard.search`` as two scans and a merge, in global ids.

    The sealed index searched with its tombstoned local ids masked, the
    delta rows scanned by :func:`delta_scan_oracle` with theirs, then the
    merge: at ``k == 1`` the delta winner replaces the sealed one only when
    strictly closer; at ``k > 1`` one stable ``top_k`` over the
    ``[sealed | delta]`` columns, so exact ties resolve sealed-first.
    """
    index = shard.index
    n = index.ntotal
    local = np.array(sorted(shard.tombstones), dtype=np.int64)
    s_d, s_l = index.search(
        queries, k, nprobe=nprobe, live=dead_view(index, local[local < n])
    )
    s_g = _to_global(s_l, shard.global_ids)
    delta = shard.delta
    if delta is None or not delta.ntotal:
        return s_d, s_g
    d_d, pos = delta_scan_oracle(
        index.quantizer, index.metric, delta.codes, queries, k, dead=local[local >= n] - n
    )
    d_g = _to_global(pos, shard.global_ids[n:])
    if k == 1:
        closer = d_d < s_d
        return np.where(closer, d_d, s_d), np.where(closer, d_g, s_g)
    out_d, cols = top_k(np.concatenate([s_d, d_d], axis=1), k)
    return out_d, np.take_along_axis(np.concatenate([s_g, d_g], axis=1), cols, axis=1)


def whole_batch_deep_oracle(datastore, queries, routing, k, nprobe, *, scanned=()):
    """``(distances, ids)`` of the deep phase and merge for *routing*, with
    each routed shard deep-searching the whole batch.

    A dense scan's rows do not depend on which other queries share the call,
    so a deep call that selects from its sample's whole-batch matrix must
    equal these rows. Shards in *scanned* had no kept scan to select from:
    they search only the rows routed to them, the call the searcher makes
    (an SQ codec's per-query bias is a matrix-vector product whose rounding
    depends on how many rows it has). The merge is
    ``HierarchicalSearcher._merge``'s: ``k`` slots per routing slot, then
    the first ``k`` of one ``argsort``.
    """
    queries = as_matrix(queries)
    nq = len(queries)
    cand_d = np.full((nq, routing.fanout * k), np.inf, dtype=np.float32)
    cand_i = np.full((nq, routing.fanout * k), -1, dtype=np.int64)
    for shard in datastore.shards:
        rows, slots = np.nonzero(routing.clusters == shard.shard_id)
        if not len(rows):
            continue
        if shard.shard_id in scanned:
            dists, ids = shard.search(queries[rows], k, nprobe=nprobe)
        else:
            dists, ids = shard.search(queries, k, nprobe=nprobe)
            dists, ids = dists[rows], ids[rows]
        cols = slots[:, np.newaxis] * k + np.arange(k)
        cand_d[rows[:, np.newaxis], cols] = dists
        cand_i[rows[:, np.newaxis], cols] = ids
    order = np.argsort(cand_d, axis=1)[:, :k]
    rows = np.arange(nq)[:, np.newaxis]
    return cand_d[rows, order], cand_i[rows, order]


def kmeans_reference(
    vectors: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    max_iter: int = 25,
    tol: float = 1e-4,
) -> KMeansResult:
    """Pre-optimisation Lloyd's, the quality-parity baseline.

    Materialises the full ``(n, k)`` distance matrix per iteration and
    accumulates the M-step with ``np.add.at`` scatter adds — the
    implementation the fast build path replaced. Same k-means++ seeding as
    ``repro.ann.kmeans``, so the two start from the same centroids.
    """
    vecs = as_matrix(vectors)
    _validate_problem(vecs, k)
    n = len(vecs)
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(vecs, k, rng)

    assignments = np.zeros(n, dtype=np.int64)
    inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        dists = pairwise_distance(vecs, centroids, "l2")
        assignments = dists.argmin(axis=1)
        point_cost = dists[np.arange(n), assignments]
        new_inertia = float(point_cost.sum())

        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, vecs)
        empties = np.flatnonzero(counts == 0)
        if len(empties):
            worst = np.argsort(point_cost)[::-1]
            for slot, point in zip(empties, worst):
                centroids[slot] = vecs[point]
            nonempty = counts > 0
            centroids[nonempty] = sums[nonempty] / counts[nonempty, np.newaxis]
        else:
            centroids = sums / counts[:, np.newaxis]

        converged = (
            np.isfinite(inertia) and inertia - new_inertia <= tol * max(inertia, 1.0)
        )
        if converged and not len(empties):
            inertia = new_inertia
            break
        inertia = new_inertia

    dists = pairwise_distance(vecs, centroids, "l2")
    assignments = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), assignments].sum())
    return KMeansResult(
        centroids=centroids.astype(np.float32),
        assignments=assignments,
        inertia=inertia,
        n_iter=n_iter,
        seed=seed,
    )


@functools.lru_cache(maxsize=1 << 14)
def _reference_token_vector(seed, dim, token):
    rng = np.random.default_rng((seed << 32) ^ (token + 1))
    return normalize(rng.normal(size=dim))[0].astype(np.float32)


def reference_encode_tokens(tokens, *, dim, seed):
    """``SyntheticEncoder(dim, seed=seed).encode_tokens(tokens)`` as a loop:
    start from a float32 zero, add each token's vector in order, divide by
    the length, normalise."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if len(tokens) == 0:
        raise ValueError("cannot encode an empty token sequence")
    acc = np.zeros(dim, dtype=np.float32)
    for token in tokens:
        acc += _reference_token_vector(seed, dim, int(token))
    return normalize(acc / len(tokens))[0]


def reference_generate(
    vocabulary, n_docs, *, topic_weights=None, doc_tokens=256, topical_fraction=0.7, seed=0
):
    """``CorpusGenerator(...).generate(n_docs)`` from a fresh generator, with
    ``Generator.choice`` drawing each document's topic and topical tokens."""
    rng = np.random.default_rng(seed)
    if topic_weights is None:
        topic_weights = np.full(vocabulary.n_topics, 1.0 / vocabulary.n_topics)
    docs = []
    for doc_id in range(n_docs):
        topic = int(rng.choice(vocabulary.n_topics, p=topic_weights))
        n_topical = int(round(doc_tokens * topical_fraction))
        topical = rng.choice(vocabulary.topic_pool(topic), size=n_topical)
        common = rng.integers(0, max(vocabulary.common_size, 1), size=doc_tokens - n_topical)
        tokens = np.concatenate([topical, common])
        rng.shuffle(tokens)
        docs.append(Document(doc_id=doc_id, tokens=tokens.astype(np.int64), topic=topic))
    return docs
