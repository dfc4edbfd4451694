"""Hierarchical Navigable Small World (HNSW) graph index.

HNSW [Malkov & Yashunin 2020] is the graph-based alternative the paper
evaluates against IVF in Figure 4: it delivers >2.4x better latency and
throughput at similar recall but needs ~2.3x more memory because every vector
carries bidirectional graph links — which is exactly why the paper rejects it
for trillion-token datastores and Hermes builds on IVF instead.

This implementation follows the original algorithm: an exponentially
level-assigned multi-layer proximity graph, greedy descent through the upper
layers, and a best-first beam (``ef``) search on layer 0 with the heuristic
neighbour-selection rule.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .base import VectorIndex
from .distances import pairwise_distance


class HNSWIndex(VectorIndex):
    """Graph-based approximate k-NN search.

    Parameters
    ----------
    m:
        Max bidirectional links per node on layers > 0 (layer 0 allows 2*m).
    ef_construction:
        Beam width while inserting.
    ef_search:
        Default beam width while querying; overridable per search call.
    """

    def __init__(
        self,
        dim: int,
        metric: str = "l2",
        *,
        m: int = 16,
        ef_construction: int = 64,
        ef_search: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, metric)
        if m < 2:
            raise ValueError(f"m must be >= 2, got {m}")
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = max(ef_construction, m)
        self.ef_search = ef_search
        self._rng = np.random.default_rng(seed)
        self._level_mult = 1.0 / math.log(m)
        self._vectors: np.ndarray = np.empty((0, dim), dtype=np.float32)
        #: per node, per level: list of neighbour ids
        self._links: list[list[list[int]]] = []
        self._entry: int = -1
        self._max_level: int = -1
        self.is_trained = True  # no training phase

    # -- helpers -------------------------------------------------------------
    def _distance(self, query: np.ndarray, ids: list[int] | np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        return pairwise_distance(query[np.newaxis, :], self._vectors[ids], self.metric)[0]

    def _random_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)

    def _search_layer(
        self, query: np.ndarray, entry_points: list[int], ef: int, level: int
    ) -> list[tuple[float, int]]:
        """Best-first search on one layer; returns up to *ef* (dist, id) pairs."""
        visited = set(entry_points)
        entry_d = self._distance(query, entry_points)
        # candidates: min-heap by distance; results: max-heap (negated) capped at ef
        candidates = [(float(d), p) for d, p in zip(entry_d, entry_points)]
        heapq.heapify(candidates)
        results = [(-d, p) for d, p in candidates]
        heapq.heapify(results)
        while len(results) > ef:
            heapq.heappop(results)
        while candidates:
            d, node = heapq.heappop(candidates)
            if results and d > -results[0][0]:
                break
            neighbours = [n for n in self._links[node][level] if n not in visited]
            if not neighbours:
                continue
            visited.update(neighbours)
            # One batched kernel call per hop: all of this node's unvisited
            # neighbours at once, then a vectorized beam-bound filter so only
            # genuinely competitive neighbours reach the Python heaps.
            dists = self._distance(query, neighbours)
            if len(results) >= ef:
                keep = np.flatnonzero(dists < -results[0][0])
            else:
                keep = np.arange(len(neighbours))
            for idx in keep:
                nd = float(dists[idx])
                if len(results) < ef or nd < -results[0][0]:
                    nn = neighbours[idx]
                    heapq.heappush(candidates, (nd, nn))
                    heapq.heappush(results, (-nd, nn))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted((-nd, nn) for nd, nn in results)

    def _select_neighbours(
        self, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        """Heuristic neighbour selection (Algorithm 4 of the HNSW paper).

        A candidate is kept only if it is closer to the query than to every
        already-selected neighbour, which keeps the graph navigable. The
        candidate-to-candidate distances are computed in **one** batched
        kernel call up front (the greedy scan then reads rows of that
        matrix), replacing the per-candidate distance call of the naive
        formulation — same selections, one GEMM instead of O(candidates).
        """
        if not candidates:
            return []
        cand_ids = [c for _, c in candidates]
        cand_d = [d for d, _ in candidates]
        if len(candidates) > 1:
            vecs = self._vectors[np.asarray(cand_ids, dtype=np.int64)]
            inter = pairwise_distance(vecs, vecs, self.metric)
        else:
            inter = np.zeros((1, 1), dtype=np.float32)
        selected_rows: list[int] = []
        for row, dist in enumerate(cand_d):
            if len(selected_rows) >= m:
                break
            if not selected_rows or np.all(dist <= inter[row, selected_rows]):
                selected_rows.append(row)
        selected = [cand_ids[r] for r in selected_rows]
        # Backfill with nearest skipped candidates if the heuristic was too strict.
        if len(selected) < m:
            chosen = set(selected)
            for cand in cand_ids:
                if len(selected) >= m:
                    break
                if cand not in chosen:
                    selected.append(cand)
                    chosen.add(cand)
        return selected

    # -- mutation --------------------------------------------------------------
    def _add(self, vectors: np.ndarray) -> None:
        for vec in vectors:
            self._insert(vec)

    def _insert(self, vector: np.ndarray) -> None:
        node = len(self._vectors)
        self._vectors = np.concatenate([self._vectors, vector[np.newaxis, :]], axis=0)
        level = self._random_level()
        self._links.append([[] for _ in range(level + 1)])

        if self._entry < 0:
            self._entry = node
            self._max_level = level
            return

        entry = self._entry
        # Greedy descent through layers above the insertion level.
        query = vector
        for lvl in range(self._max_level, level, -1):
            entry = self._greedy_step(query, entry, lvl)

        entries = [entry]
        for lvl in range(min(level, self._max_level), -1, -1):
            found = self._search_layer(query, entries, self.ef_construction, lvl)
            max_links = self.m0 if lvl == 0 else self.m
            neighbours = self._select_neighbours(found, self.m)
            self._links[node][lvl] = list(neighbours)
            for nb in neighbours:
                links = self._links[nb][lvl]
                links.append(node)
                if len(links) > max_links:
                    dists = self._distance(self._vectors[nb], links)
                    ranked = sorted(zip(dists, links))
                    self._links[nb][lvl] = self._select_neighbours(
                        [(float(d), n) for d, n in ranked], max_links
                    )
            entries = [n for _, n in found] or entries
        if level > self._max_level:
            self._max_level = level
            self._entry = node

    def _greedy_step(self, query: np.ndarray, entry: int, level: int) -> int:
        current = entry
        current_d = float(self._distance(query, [current])[0])
        improved = True
        while improved:
            improved = False
            neighbours = self._links[current][level]
            if not neighbours:
                break
            dists = self._distance(query, neighbours)
            best = int(dists.argmin())
            if float(dists[best]) < current_d:
                current = neighbours[best]
                current_d = float(dists[best])
                improved = True
        return current

    # -- search ------------------------------------------------------------------
    def _search(
        self, queries: np.ndarray, k: int, *, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        ef = max(self.ef_search if ef is None else int(ef), k)
        nq = len(queries)
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        out_i = np.full((nq, k), -1, dtype=np.int64)
        for qi in range(nq):
            query = queries[qi]
            entry = self._entry
            for lvl in range(self._max_level, 0, -1):
                entry = self._greedy_step(query, entry, lvl)
            found = self._search_layer(query, [entry], ef, 0)[:k]
            for slot, (dist, node) in enumerate(found):
                out_d[qi, slot] = dist
                out_i[qi, slot] = node
        return out_d, out_i

    def search(
        self, queries: np.ndarray, k: int, *, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k search, optionally overriding the default beam width ``ef``."""
        if self.ntotal == 0:
            return super().search(queries, k)
        from .distances import as_matrix

        q = as_matrix(queries)
        self._check_dim(q)
        return self._search(q, int(k), ef=ef)

    def memory_bytes(self) -> int:
        vec_bytes = int(self.ntotal) * self.dim * 4
        link_bytes = sum(
            sum(len(level_links) for level_links in node_links) * 8
            for node_links in self._links
        )
        return vec_bytes + link_bytes
