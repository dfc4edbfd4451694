"""serve_zipf: open-loop Poisson arrivals of Zipf-repeated single queries.

Most requests are answered by the cache and the rest ride small batches, so
queue wait, cache lookup and coalescing dominate and the scan is the minority
path: the mirror image of scan_unique. Every request is timed from when it was
*due*, so a stall is charged to the requests it delays.
"""

from __future__ import annotations

import time

import numpy as np

import harness as h
import spec
from repro.core.errors import AdmissionRejectedError, DeadlineExceededError
from repro.datastore.queries import natural_questions_queries
from repro.serving.admission import AdmissionConfig
from repro.serving.cache import EXACT_HIT, MISS
from repro.serving.frontend import DynamicBatcher
from workload import Workload, clock


class OpenLoopRun:
    """Raw per-request arrays of one open-loop phase."""

    OK, REJECTED, SHED, RAISED = 0, 1, 2, 3

    def __init__(self, which: np.ndarray) -> None:
        n = len(which)
        self.which = which          # index into the unique queries
        self.t0 = 0.0               # when the phase began
        self.due = np.zeros(n)      # absolute times
        self.submit = np.zeros(n)
        self.done = np.zeros(n)
        self.status = np.zeros(n, dtype=np.int8)
        self.kind = np.full(n, -1, dtype=np.int8)
        self.level = np.zeros(n, dtype=np.int8)
        self.ids = np.full((n, spec.K), -1, dtype=np.int64)
        self.wall = 0.0

    @property
    def ok(self) -> np.ndarray:
        return self.status == self.OK

    @property
    def latency(self) -> np.ndarray:
        """Seconds from when each served request was due."""
        return (self.done - self.due)[self.ok]

    def share(self, status: int) -> float:
        return float((self.status == status).mean())

    def trim(self, n: int) -> None:
        """Keep the first *n* requests (the ones that were sent)."""
        for name in ("which", "due", "submit", "done", "status", "kind", "level", "ids"):
            setattr(self, name, getattr(self, name)[:n])


class ServeZipf(Workload):
    name = "serve_zipf"

    def setup(self) -> None:
        sz = self.sz
        self.build_vector_stack(cache_capacity=sz["cache"])
        self.uniques = natural_questions_queries(
            self.corpus.topic_model, sz["uniques"], seed=30_000 + self.seed
        ).embeddings
        weights = np.arange(1, sz["uniques"] + 1, dtype=np.float64) ** -sz["zipf_alpha"]
        self.popularity = weights / weights.sum()
        self.rng = np.random.default_rng(40_000 + self.seed)
        self.batcher = None

    def close(self) -> None:
        if self.batcher is not None:
            self.batcher.close()
            self.batcher = None

    def draw(self, n: int) -> np.ndarray:
        return self.rng.choice(len(self.uniques), size=n, p=self.popularity)

    def warmup(self) -> None:
        # Closed loop, straight through the frontend: fills the cache to its
        # steady state far faster than replaying arrivals at the offered rate.
        which = self.draw(6 * self.sz["cache"])
        for i in range(0, len(which), 32):
            self.frontend.search(self.uniques[which[i:i + 32]])
        self.batcher = self._batcher()

    def _batcher(self, prefix: str = "") -> DynamicBatcher:
        """A batcher over the frontend; *prefix* picks the admission limits
        (``""``: the measured phase's, ``"diag_"``: the diagnostic phases')."""
        sz = self.sz
        return DynamicBatcher(
            self.frontend, max_batch=sz["max_batch"], max_wait_s=sz["max_wait_s"],
            admission=AdmissionConfig(
                max_queue=sz[prefix + "max_queue"],
                default_deadline_s=sz[prefix + "deadline_s"],
                delay_target_s=sz[prefix + "delay_target_s"],
            ),
        )

    def open_loop(self, rate: float, seconds: float, *, toggle: bool) -> OpenLoopRun:
        """Seeded Poisson arrivals for *seconds*, at *rate* per second of
        reference machine speed; each request timed from its due time.

        The gaps come from the seed and are stretched by the machine's
        slow-down of the moment (the median of the latest speed probes). A
        rate fixed on the wall clock would meet a slower server in a slow
        spell: utilisation rises by the spell's factor (1.4-1.8x), queueing
        grows faster than the service time, and no division by a speed factor
        undoes that. Stretching the schedule by the same factor the
        latencies are divided by keeps the operating point: a slow spell is
        then the same run in slow motion.
        """
        n = max(1, int(1.25 * rate * seconds))
        gaps = self.rng.exponential(1.0 / rate, size=n)
        run = OpenLoopRun(self.draw(n))
        futures = [None] * n
        done = run.done
        resolved: list = []  # appended to by the batcher thread (atomic)
        submitted = 0
        rec = self.rec
        speed = self.speed
        submit = self.batcher.submit
        run.t0 = t0 = clock()
        for _ in range(5):
            speed.sample(0.0, force=True)
        slow = speed.recent()
        due_at = clock()
        sent = 0
        for i in range(n):
            due_at += gaps[i] * slow
            if due_at - t0 > seconds:
                break
            run.due[i] = due_at
            # A speed probe fits when the gap is long enough not to make the
            # next arrival late and nothing is in flight: beside a busy
            # batcher worker the probe waits for the interpreter lock and
            # reads 1.4-2x slow, differently in every run.
            room = due_at - 2.5 * speed.NOMINAL_S
            while clock() < room:
                if len(resolved) == submitted:
                    if speed.sample(clock() - t0):
                        slow = speed.recent()
                    break
                time.sleep(0.001)
            wait = due_at - clock()
            if wait > 0:
                time.sleep(wait)
            sent += 1
            if toggle:
                # A batch is traced iff the latest arrival was even: traced and
                # untraced batches interleave finely, so both samples see the
                # same bursts (whole seconds differ 3x by arrival pattern alone).
                rec.enabled = i % 2 == 0
            run.submit[i] = clock()
            try:
                future = submit(self.uniques[run.which[i]])
            except AdmissionRejectedError:
                run.status[i] = run.REJECTED
                continue
            future.add_done_callback(
                lambda _f, i=i: (done.__setitem__(i, clock()), resolved.append(i)))
            futures[i] = future
            submitted += 1
        for i, future in enumerate(futures):
            if future is None:
                continue
            try:
                served = future.result(timeout=60)
            except DeadlineExceededError:
                run.status[i] = run.SHED
            except Exception:  # noqa: BLE001 - a raising search is a counted failure
                run.status[i] = run.RAISED
            else:
                run.ids[i] = served.ids
                run.kind[i] = served.kind
                run.level[i] = served.degradation_level
        rec.enabled = False
        run.trim(sent)
        run.wall = (run.done.max() if run.ok.any() else clock()) - t0
        return run

    def _batcher_counts(self) -> np.ndarray:
        stats = self.batcher.stats
        return np.array([stats.requests, stats.batches, stats.rejected, stats.shed])

    def measure(self) -> None:
        self.cache_before = self.cache_snapshot()
        batcher_before = self._batcher_counts()
        degraded_before = h.counter_total("retrieval_degraded_batches_total")
        self.base = self.open_loop(self.sz["rate_qps"], self.seconds, toggle=self.traced)
        self.degraded = self.degraded_since(degraded_before)
        self.batcher_delta = self._batcher_counts() - batcher_before
        self.check_lookup_conservation()

    def score(self) -> None:
        run = self.base
        n = len(run.status)
        served = int(run.ok.sum())
        rejected = int((run.status == run.REJECTED).sum())
        shed = int((run.status == run.SHED).sum())
        raised = int((run.status == run.RAISED).sum())
        violations = self._replay_violations(run)
        browned = int((run.ok & (run.level > 0)).sum())
        self.attempted = n
        self.failed = rejected + shed + raised + browned + self.degraded + violations
        self.checks.add(
            "failed_share", self.failed <= self.sz["limit_failed_share"] * n,
            f"rejected {rejected}, shed {shed}, raised {raised}, brownout-served {browned}, "
            f"degraded batches {self.degraded}, replay violations {violations} of {n}",
        )
        self.checks.add("replay_bit_identical", violations == 0,
                        f"{violations} answers differed from the search that produced them")
        requests, _, b_rejected, b_shed = (int(v) for v in self.batcher_delta)
        lookups = self.cache_after["lookups"] - self.cache_before["lookups"]
        self.checks.add(
            "request_conservation",
            (requests, b_rejected, b_shed, lookups) == (served, rejected, shed, served)
            and n == served + shed + rejected + raised,
            f"client saw served {served} shed {shed} rejected {rejected} raised {raised}; "
            f"batcher counted {requests} / {b_shed} / {b_rejected}; cache lookups {lookups}",
        )
        due_s = (run.due - run.t0)[run.ok]
        # The coalescing window is a timer, not machine work: every batch is
        # held open max_wait_s after the worker picks its head request.
        self.put_latency(due_s, run.latency, fixed_s=self.sz["max_wait_s"])
        # Served requests per second of arrivals at reference machine speed
        # (a window of a stretched schedule holds fewer arrivals), over whole
        # windows only (the ragged last window would read low).
        self.pooled["throughput_per_s"] = served / run.wall
        whole = due_s < np.floor((run.due[-1] - run.t0) / h.WINDOW_S) * h.WINDOW_S
        if whole.any():
            slow = self.speed.factor(due_s[whole])
            windows = h.per_window(
                due_s[whole], lambda idx: len(idx) * slow[idx].mean() / h.WINDOW_S)
            self.put("throughput_per_s", h.quiet_quarter(windows, better="higher"), served)
        else:
            self.put("throughput_per_s", served / run.wall, served)
        self.score_ndcg(*self._ndcg(run))

    def _ndcg(self, run: OpenLoopRun) -> tuple:
        """One (served ids, truth) row per *distinct* query that was served.

        Weighting by request would let the handful of hottest queries decide
        the score (Zipf: the top ten take a third of the traffic), which makes
        it swing by 0.07 between seeds; every distinct query counts once,
        scored on its last answer.
        """
        truth = h.brute_force_topk(self.uniques, self.vectors, spec.K)
        last = {int(run.which[i]): i for i in np.flatnonzero(run.ok)}
        rows = np.fromiter(last.values(), dtype=np.int64)
        return run.ids[rows], truth[run.which[rows]]

    def _replay_violations(self, run: OpenLoopRun) -> int:
        """Repeated query, frozen datastore: answers must replay bit for bit.

        Every full search (MISS) of the same vector returns identical ids, and
        every EXACT_HIT returns the ids of the latest search of that vector
        (the one that wrote the entry it replays). Semantic/routing-tier
        answers borrow a neighbour's results and are approximate by design.
        """
        order = np.lexsort((np.arange(len(run.done)), run.done))
        first_search: dict = {}
        latest: dict = {}
        bad = 0
        for i in order:
            if not run.ok[i] or run.level[i] > 0:
                continue
            unique = int(run.which[i])
            ids = run.ids[i]
            if run.kind[i] == MISS:
                ref = first_search.setdefault(unique, ids)
                bad += not np.array_equal(ref, ids)
                latest[unique] = ids
            elif run.kind[i] == EXACT_HIT:
                if unique in latest:
                    bad += not np.array_equal(latest[unique], ids)
            else:
                latest.pop(unique, None)  # entry may now hold a borrowed answer
        return bad

    def layers(self) -> None:
        run = self.base
        put = self.put
        comps = h.frontend_components(self.rec)
        self.common_layers(comps)
        starts = np.array([c["span"].start for c in comps])
        ends = np.array([c["span"].end for c in comps])
        # A request's batch is the frontend span that ended last before its
        # future resolved (the batcher resolves right after frontend.search);
        # a request without one rode an untraced batch.
        ok = np.flatnonzero(run.ok)
        j = np.maximum(np.searchsorted(ends, run.done[ok], side="right") - 1, 0)
        traced = (ends[j] <= run.done[ok]) & (run.done[ok] - ends[j] < 0.002) \
            & (starts[j] >= run.submit[ok])
        req, batch = ok[traced], j[traced]
        total = run.done[req] - run.due[req]
        untraced = (run.done - run.due)[ok[~traced]]
        p50 = self.put_tracing_overhead(total, untraced)

        in_batch = ends[batch] - starts[batch]
        queue_wait = (run.done[req] - run.submit[req]) - in_batch
        put("serving.batcher.queue_wait_p50_ms", 1e3 * h.pctl(queue_wait, 50), len(queue_wait))
        put("serving.batcher.queue_wait_p95_ms", 1e3 * h.pctl(queue_wait, 95), len(queue_wait))
        requests, batches = int(self.batcher_delta[0]), int(self.batcher_delta[1])
        put("serving.batcher.mean_batch", h.ratio(requests, batches), batches)
        put("serving.batcher.batches", batches)

        band = h.median_band(total)
        r, b = req[band], batch[band]
        rows = [
            ("loadgen late", float(np.mean(run.submit[r] - run.due[r]))),
            ("queue wait", float(np.mean(starts[b] - run.submit[r]))),
        ] + [
            (title, float(np.mean([comps[s][key] for s in b])))
            for title, key in (("cache", "cache"), ("route", "route"), ("deep scan", "deep"),
                               ("merge", "merge"), ("frontend self", "frontend_self"))
        ] + [("resolve", float(np.mean(run.done[r] - ends[b])))]
        self.add_budget("latency_p50", rows, p50, shares=True)
        self.top1_shard_recall(self.vectors)

        put("serving.frontend.request_p99_ms", 1e3 * h.pctl(run.latency, 99), len(run.latency))
        late = run.submit - run.due
        put("loadgen.late_p99_ms", 1e3 * h.pctl(late, 99), len(late))

        # Diagnostic phases past the base rate feed the admission layer only,
        # through a batcher of their own whose limits do bind.
        self.close()
        self.batcher = self._batcher("diag_")
        diag_s = max(0.5, 0.15 * self.seconds)
        phases = [(self.sz["rate_qps"], run)] + [
            (rate, self.open_loop(rate, diag_s, toggle=False)) for rate in self.sz["diag_rates"]
        ]
        meets = [rate for rate, phase in phases if self._meets_limit(phase)]
        put("serving.frontend.max_rate_qps", max(meets) if meets else 0.0)
        mid, over = phases[1][1], phases[2][1]
        put("serving.frontend.p95_ms_at_mid_rate",
            1e3 * h.pctl(mid.latency, 95) if mid.ok.any() else 0.0, int(mid.ok.sum()))
        n_over = len(over.status)
        put("serving.admission.rejected_share", over.share(over.REJECTED), n_over)
        put("serving.admission.shed_share", over.share(over.SHED), n_over)
        in_time = over.ok & (over.done - over.submit <= self.sz["diag_deadline_s"])
        put("serving.admission.goodput_share_overload", float(in_time.mean()), n_over)
        put("serving.admission.brownout_level_max",
            max(int(phase.level.max()) for _, phase in phases))

        self.probe_index_layers(self.uniques[:32])
        if self.full_size:
            hit = self.metrics["serving.cache.hit_share"]
            self.checks.claim(hit >= 0.7, f"cache hit share {hit:.3f}")
            late99 = self.metrics["loadgen.late_p99_ms"]
            self.checks.add("loadgen_on_time", late99 <= 10.0,
                            f"late p99 {late99:.2f} ms", hard=False)

    def _meets_limit(self, run: OpenLoopRun) -> bool:
        """p95 from due time within the limit; a request that was refused,
        shed or served degraded (brownout level > 0) counts as a miss."""
        n = len(run.status)
        good = run.ok & (run.level == 0)
        if n - int(good.sum()) > self.sz["limit_failed_share"] * n:
            return False
        lat = np.where(good, run.done - run.due, np.inf)
        return float(np.percentile(lat, 95)) <= self.sz["limit_p95_ms"] / 1e3
