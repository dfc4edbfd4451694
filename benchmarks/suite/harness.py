"""Benchmark-owned measurement plumbing: spans, proxies, oracles, budgets.

Nothing here reaches into ``repro`` internals. Layers are timed from outside
by duck-typed proxies around public entry points (the wrapping
``FaultyShard`` / ``ReplicaGroup`` already use) and counted by reading public
result/stat objects, so a later PR that renames or moves the program's own
``repro.obs`` spans cannot move a metric.

Span names, outermost first::

    serving.pipeline.serve          one RAGServingPipeline.serve call
      datastore.encode              one SyntheticEncoder.encode_tokens call
    serving.frontend                one ServingFrontend.search call
      serving.cache{op=lookup|insert}
      core.search                   one HierarchicalSearcher.search call
        core.route                  router.route (absent on reused routing)
          core.shard_search{phase=sample}
        core.shard_search{phase=deep}
    core.insert / core.delete / core.compact

A layer's self time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import threading
import time
from pathlib import Path

import numpy as np

import spec

REPO_ROOT = Path(__file__).resolve().parents[2]


# -- provenance -----------------------------------------------------------------
def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def affinity_size() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def provenance(workload: str, seed: int, sizes: dict) -> dict:
    """Everything needed to tell whether two result files are comparable."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "affinity": affinity_size(),
        "blas_threads": {k: os.environ.get(k) for k in spec.ENVIRONMENT},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "sizes": {k: list(v) if isinstance(v, tuple) else v for k, v in sizes.items()},
    }


def check_thread_budget() -> None:
    """Refuse to run with more busy threads than the box has cores."""
    cores = affinity_size()
    if spec.MAX_BUSY_THREADS > cores:
        raise SystemExit(
            f"suite needs {spec.MAX_BUSY_THREADS} busy threads but this process "
            f"may run on {cores} core(s); widen the affinity mask"
        )


def rss_peak_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- statistics -----------------------------------------------------------------
def pctl(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pctl(values, 50.0)


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def median_band(totals: np.ndarray) -> np.ndarray:
    """Indices of the units whose total lies in a narrow band around the median.

    Medians of parts do not add up to the median of the whole, so a latency
    budget is read off the units *around* the median instead: every row is a
    mean over the same units, hence the rows sum to those units' mean total.
    The band is +-2 percentiles (wider, up to +-5, when that would leave
    fewer than ten units): on the open loop the median sits on a knee and a
    wide band's mean drifts 10 % away from it.
    """
    totals = np.asarray(totals, dtype=np.float64)
    half = float(np.clip(500.0 / max(len(totals), 1), 2.0, 5.0))
    lo, hi = np.percentile(totals, [50.0 - half, 50.0 + half])
    return np.flatnonzero((totals >= lo) & (totals <= hi))


#: Width of the windows the end-to-end timings are aggregated over.
WINDOW_S = 1.0
#: Windows with fewer samples than this (the ragged last one) are dropped.
WINDOW_MIN_SAMPLES = 5


class SpeedProbe:
    """A fixed slice of benchmark-owned CPU work, timed over and over.

    The sandbox VM does not run at one speed: for seconds to minutes at a
    time the same code on the same data runs 1.4-1.8x slower (ten consecutive
    20 s runs of scan_unique read a pooled p50 of 23, 26, 23, 23, 24, 29, 40,
    37, 39, 36 ms). No run length that fits the driver's budget averages
    that out, so the suite measures the machine's speed alongside the
    program: this probe runs about twenty times a second between units of
    work, and every measured CPU-side time is divided by ``probe time /
    NOMINAL_S`` of its own one-second window.

    The probe is a quantised scan in miniature on the benchmark's own data:
    for each of 24 cells, gather 150 uint8 rows, widen them to float32, score
    them against 32 queries, and keep a running top ten. What matters is that
    it slows down *as much as* the program does in a slow spell, and that
    depends on the mix: ten minutes of batch-32 searches interleaved with
    four candidate probes, over spells in which the search ran 0.74-1.82x
    its median, gave per one-second window

        probe                         log-log slope   left after dividing
        16 GEMMs 160x160 + widening        1.34             9.4 %
        pure-python loop                   1.27            10.0 %
        the miniature scan                 1.10             4.2 %

    (slope: how much more the search slows than the probe; 1 is ideal). The
    first row was this suite's first probe; it left a 27 ms p50 in a run
    that should have read 24. :func:`quiet_quarter` deals with the
    remainder. Timer waits and modelled GPU times are *not* machine work and
    are left as they are.

    ``NOMINAL_S`` is the probe's time on a quiet box of this class; it only
    fixes the scale (timings read as if the whole run had been quiet), so
    parent and change must be measured with the same value.
    """

    NOMINAL_S = 2.2e-3
    EVERY_S = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(20250928)
        self._codes = rng.integers(0, 255, size=(20_000, 64)).astype(np.uint8)
        self._queries = rng.normal(size=(32, 64)).astype(np.float32)
        self._cells = [np.sort(rng.choice(20_000, size=150, replace=False)) for _ in range(24)]
        self.at: list = []
        self.took: list = []
        self._last = -math.inf
        self.run()  # first touch pays page faults, not a sample

    def run(self) -> float:
        t0 = time.perf_counter()
        best = None
        for rows in self._cells:
            scores = self._queries @ self._codes[rows].astype(np.float32).T
            part = np.argpartition(scores, 10, axis=1)[:, :10]
            top = np.take_along_axis(scores, part, axis=1)
            best = top if best is None else np.minimum(best, top)
        return time.perf_counter() - t0

    def sample(self, at_s: float, *, force: bool = False) -> float:
        """Probe if one is due; returns the seconds the probe itself took."""
        if not force and at_s - self._last < self.EVERY_S:
            return 0.0
        self._last = at_s
        took = self.run()
        self.at.append(at_s)
        self.took.append(took)
        return took

    def recent(self, last: int = 15) -> float:
        """Machine slow-down of the moment: the median of the latest probes."""
        return float(np.median(self.took[-last:])) / self.NOMINAL_S if self.took else 1.0

    def run_factor(self) -> float:
        """Machine slow-down over the whole run: the median of every probe
        (for one-off work such as a set-up that no window of samples covers)."""
        return float(np.median(self.took)) / self.NOMINAL_S if self.took else 1.0

    def factor(self, at_s) -> np.ndarray:
        """Machine slow-down (1.0 = nominal) at each of the given times:
        the median probe of the time's own window, else of the whole run."""
        at_s = np.atleast_1d(np.asarray(at_s, dtype=np.float64))
        took = np.asarray(self.took)
        if not len(took):
            return np.ones(len(at_s))
        mine = np.floor(np.asarray(self.at) / WINDOW_S).astype(np.int64)
        whole_run = float(np.median(took))
        by_window = {w: float(np.median(took[mine == w])) for w in np.unique(mine)}
        windows = np.floor(at_s / WINDOW_S).astype(np.int64)
        return np.array([by_window.get(w, whole_run) for w in windows]) / self.NOMINAL_S


def quiet_quarter(windows: np.ndarray, *, better: str = "lower") -> float:
    """The mean of the quietest quarter of the per-window values.

    Two things inflate some windows and not others: what is left of the
    box's slow spells after the speed factor (the program slows a little
    more than the probe does), and, on the open loop, bursts of arrivals
    and misses (whole seconds differ 3x by arrival pattern alone, and the
    median request sits on the knee between "rode an idle batcher" and
    "queued behind a miss batch", so a pooled p50 swings 30 % between runs
    of one seed). Both only ever make a window worse, so the quiet end of
    the windows reads the steady state, and the mean of several windows is
    steadier than any single order statistic: over ten dumped runs per
    workload the p95's spread read 7 / 4 / 5 / 4 % this way (serve_zipf,
    scan_unique, mutate_mix, rag_strides) against 15 / 7 / 7 / 5 % for the
    25th percentile window and 18 / 9 / 6 / 5 % for the median window. A
    real regression moves every window and so moves this by the same factor.
    """
    ordered = np.sort(np.asarray(windows, dtype=np.float64))
    if better != "lower":
        ordered = ordered[::-1]
    return float(ordered[: max(1, round(len(ordered) / 4))].mean())


def per_window(at_s, stat) -> np.ndarray:
    """``stat(indices)`` for every one-second window of the measured phase.

    *at_s* are the samples' times since the phase began; *stat* maps the
    indices falling in one window to a number.
    """
    window = np.floor(np.asarray(at_s, dtype=np.float64) / WINDOW_S).astype(np.int64)
    out = []
    for w in np.unique(window):
        idx = np.flatnonzero(window == w)
        if len(idx) >= WINDOW_MIN_SAMPLES:
            out.append(stat(idx))
    if not out:
        out.append(stat(np.arange(len(window))))
    return np.asarray(out, dtype=np.float64)


# -- correctness oracle ------------------------------------------------------------
def brute_force_topk(queries: np.ndarray, vectors: np.ndarray, k: int,
                     live: np.ndarray | None = None, block: int = 256) -> np.ndarray:
    """Exact inner-product top-k ids (row index into *vectors*), best first.

    Scored *block* queries at a time so the oracle's score matrix stays a
    few tens of MB and does not show up in ``rss_peak_mb``.
    """
    queries = np.asarray(queries, dtype=np.float32)
    out = np.empty((len(queries), k), dtype=np.int64)
    dead = None if live is None else ~live
    for lo in range(0, len(queries), block):
        scores = queries[lo:lo + block] @ vectors.T
        if dead is not None:
            scores[:, dead] = -np.inf
        np.negative(scores, out=scores)
        part = np.argpartition(scores, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(scores, part, axis=1), axis=1, kind="stable")
        out[lo:lo + block] = np.take_along_axis(part, order, axis=1)
    return out


def ndcg_at_k(served: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-query NDCG: truth rank r has relevance k - r, log2 discounting."""
    served = np.asarray(served)
    truth = np.asarray(truth)
    k = truth.shape[1]
    match = served[:, :, None] == truth[:, None, :]          # (nq, k_served, k)
    rel = (match * (k - np.arange(k))[None, None, :]).sum(axis=2).astype(np.float64)
    rel[served < 0] = 0.0
    discounts = 1.0 / np.log2(np.arange(2, served.shape[1] + 2))
    ideal = float((np.arange(k, 0, -1) * (1.0 / np.log2(np.arange(2, k + 2)))).sum())
    return (rel * discounts[None, :]).sum(axis=1) / ideal


class Checks:
    """Named pass/fail checks. Hard ones (is an answer wrong?) decide
    ``correct`` and the driver command's exit code. Soft ones are reported
    only: timing-derived figures, noisy on a shared box, and the ``claim``
    rows (does the workload stress what it says it does?), which describe the
    workload and not the program's answers. The suite command, run by a
    person on a quiet box, still fails on a ``claim`` that does not hold."""

    def __init__(self) -> None:
        self.rows: list = []

    def add(self, name: str, ok: bool, detail: str = "", *, hard: bool = True) -> None:
        self.rows.append({"name": name, "ok": bool(ok), "hard": hard, "detail": detail})

    def claim(self, ok: bool, detail: str) -> None:
        self.add("claim", ok, detail, hard=False)

    @property
    def correct(self) -> bool:
        return all(r["ok"] for r in self.rows if r["hard"])


# -- spans -----------------------------------------------------------------------
class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "unit", "attrs")

    def __init__(self, sid, name, start, parent, unit, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start_s": self.start, "end_s": self.end,
            "parent": self.parent, "unit": self.unit, **self.attrs,
        }


#: Spans that may open without a parent. Everything else is recorded only
#: under an open parent, so flipping ``enabled`` mid-batch cannot orphan it.
ROOT_SPANS = frozenset({
    "serving.pipeline.serve", "serving.frontend", "core.insert", "core.delete",
})


class SpanRecorder:
    """In-memory span log the proxies write to.

    A span with no open parent on its thread is a root and is recorded only
    while ``enabled``; any other span is recorded iff its parent was, so a
    tree is never cut in half when the driver toggles ``enabled`` between
    units. ``unit`` is the request/batch/cohort id spans of one unit share.
    Deep shard searches can run on pool threads (deadline-clamped attempts,
    ``max_workers``) whose thread-local stack is empty; those attach to the
    open ``core.search`` span.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.unit = -1
        self.spans: list = []
        self._local = threading.local()
        self._search: Span | None = None
        self.clock = time.perf_counter

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> Span | None:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif name == "core.shard_search" and self._search is not None:
            parent = self._search
        elif self.enabled and name in ROOT_SPANS:
            parent = None
        else:
            return None
        if name == "core.shard_search":
            attrs["phase"] = "sample" if parent.name == "core.route" else "deep"
        span = Span(
            len(self.spans), name, self.clock(),
            None if parent is None else parent.sid, self.unit, attrs,
        )
        self.spans.append(span)
        stack.append(span)
        if name == "core.search":
            self._search = span
        return span

    def end(self, span: Span | None, **attrs) -> None:
        if span is None:
            return
        span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span is self._search:
            self._search = None

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Log a root span timed by the benchmark itself (e.g. its compactor)."""
        span = Span(len(self.spans), name, start, None, -1, attrs)
        span.end = end
        self.spans.append(span)

    # -- analysis ---------------------------------------------------------------
    def children_index(self) -> dict:
        index: dict = {}
        for span in self.spans:
            if span.parent is not None:
                index.setdefault(span.parent, []).append(span)
        return index

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]


def covered(spans: list) -> float:
    """Length of the union of the spans' intervals (children may overlap)."""
    total = 0.0
    end = -math.inf
    for start, stop in sorted((s.start, s.end) for s in spans):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def frontend_components(rec: SpanRecorder) -> list:
    """Per ``serving.frontend`` span: where its time went, summing exactly.

    ``total = cache + route + deep + merge + frontend_self`` holds per span up
    to float rounding: each term is a self time or a disjoint child cover.
    """
    kids = rec.children_index()
    rows = []
    for span in rec.named("serving.frontend"):
        children = kids.get(span.sid, [])
        cache = [c for c in children if c.name == "serving.cache"]
        searches = [c for c in children if c.name == "core.search"]
        route = deep = merge = 0.0
        samples = routed = 0
        for search in searches:
            sub = kids.get(search.sid, [])
            routes = [c for c in sub if c.name == "core.route"]
            deeps = [c for c in sub if c.name == "core.shard_search"]
            route += covered(routes)
            deep += covered(deeps)
            merge += search.dur - covered(sub)
            for r in routes:
                routed += 1
                samples += len(kids.get(r.sid, []))
        rows.append({
            "span": span,
            "total": span.dur,
            "cache": covered(cache),
            "lookup": sum(c.dur for c in cache if c.attrs.get("op") == "lookup"),
            "insert": sum(c.dur for c in cache if c.attrs.get("op") == "insert"),
            "inserted": sum(c.attrs.get("rows", 0) for c in cache if c.attrs.get("op") == "insert"),
            "route": route,
            "deep": deep,
            "merge": merge,
            "frontend_self": span.dur - covered(children),
            "searches": len(searches),
            "routed": routed,
            "samples": samples,
            "queries": span.attrs.get("queries", 0),
            "searched": span.attrs.get("searched", 0),
        })
    return rows


# -- proxies ----------------------------------------------------------------------
class _Proxy:
    """Delegating wrapper: everything but the timed methods is the inner
    object's, reads and writes alike (``add_documents`` assigns
    ``shard.centroid``, which must land on the real shard)."""

    _own = ("inner", "rec")

    def __init__(self, inner, rec: SpanRecorder) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "rec", rec)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __setattr__(self, name, value) -> None:
        if name in self._own:
            object.__setattr__(self, name, value)
        else:
            setattr(self.inner, name, value)

    def __len__(self) -> int:
        return len(self.inner)


class ShardProxy(_Proxy):
    def search(self, queries, k, *, nprobe=None, **kwargs):
        span = self.rec.begin("core.shard_search", shard=int(self.inner.shard_id))
        try:
            return self.inner.search(queries, k, nprobe=nprobe, **kwargs)
        finally:
            self.rec.end(span)


class RouterProxy(_Proxy):
    def route(self, queries, datastore, m, *, exclude=frozenset()):
        span = self.rec.begin("core.route")
        try:
            return self.inner.route(queries, datastore, m, exclude=exclude)
        finally:
            self.rec.end(span)


class SearcherProxy(_Proxy):
    """Times ``search`` and keeps the public facts of every SearchResult."""

    _own = _Proxy._own + ("searches", "degraded", "shard_queries", "queries", "routing_log")

    def __init__(self, inner, rec) -> None:
        super().__init__(inner, rec)
        self.searches = 0
        self.degraded = 0
        self.shard_queries = 0
        self.queries = 0
        #: (queries, routed clusters) of traced searches, for top-1 shard recall
        self.routing_log: list = []

    def search(self, queries, **kwargs):
        span = self.rec.begin("core.search")
        result = None
        try:
            result = self.inner.search(queries, **kwargs)
            return result
        finally:
            self.rec.end(span)
            if result is not None:
                self.searches += 1
                self.degraded += bool(result.degraded)
                self.shard_queries += result.shard_queries_attempted
                self.queries += result.batch_size
                if span is not None and len(self.routing_log) < 256:
                    self.routing_log.append(
                        (np.array(queries, copy=True), result.routing.clusters.copy())
                    )


class CacheProxy(_Proxy):
    def lookup(self, queries, k, params_key, **kwargs):
        span = self.rec.begin("serving.cache", op="lookup", queries=len(queries))
        try:
            return self.inner.lookup(queries, k, params_key, **kwargs)
        finally:
            self.rec.end(span)

    def insert(self, queries, result, params_key, **kwargs):
        span = self.rec.begin("serving.cache", op="insert")
        written = 0
        try:
            written = self.inner.insert(queries, result, params_key, **kwargs)
            return written
        finally:
            self.rec.end(span, rows=written)


class FrontendProxy(_Proxy):
    def search(self, queries, **kwargs):
        span = self.rec.begin("serving.frontend", queries=len(queries))
        result = None
        try:
            result = self.inner.search(queries, **kwargs)
            return result
        finally:
            if result is not None:
                self.rec.end(span, searched=result.searched)
            else:
                self.rec.end(span)


class EncoderProxy(_Proxy):
    def encode_tokens(self, tokens):
        span = self.rec.begin("datastore.encode")
        try:
            return self.inner.encode_tokens(tokens)
        finally:
            self.rec.end(span)


def instrument(frontend, rec: SpanRecorder):
    """Wrap a ServingFrontend's layers in place; returns (frontend proxy,
    searcher proxy). The batcher (if any) must be pointed at the returned
    frontend proxy by the caller."""
    searcher = frontend.searcher
    datastore = searcher.datastore
    datastore.shards = [ShardProxy(s, rec) for s in datastore.shards]
    searcher.router = RouterProxy(searcher.router, rec)
    searcher_proxy = SearcherProxy(searcher, rec)
    frontend.searcher = searcher_proxy
    frontend.cache = CacheProxy(frontend.cache, rec)
    return FrontendProxy(frontend, rec), searcher_proxy


# -- registry counters -------------------------------------------------------------
def counter_total(name: str) -> float:
    """Current total of a ``repro.obs`` registry counter (0 if never touched)."""
    from repro.obs import get_registry

    metric = get_registry().get(name)
    return float(metric.total()) if metric is not None else 0.0
