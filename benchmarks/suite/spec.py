"""What the suite measures: workloads, sizes, metric names, floors.

``BENCHMARK.json`` at the repo root is the contract the driver reads; it is
generated from this module (``python benchmarks/suite/spec.py`` prints it,
``test_suite.py`` asserts the committed file matches). The JSON schema has
room for names, units, directions and bounds only, so everything else the
suite needs lives here: workload sizes, the workloads each per-layer metric
is defined on, the end-to-end metric it is predicted to move, and the
per-workload NDCG floors of the correctness oracle.
"""

from __future__ import annotations

import json
import sys

#: Seconds one driver run measures (``--seconds``); the suite command uses
#: the same value so its numbers are comparable with the driver's.
RUN_SECONDS = 20

#: Fixed environment: BLAS pools pinned to one thread before numpy loads
#: (sizing: batch-32 search p95/p50 1.04 with one thread, 1.34 with two on
#: the 2-core box) and the build cache off so ``setup_s`` is a real build.
ENVIRONMENT = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "HERMES_BUILD_CACHE": "0",
}

#: Busy threads any workload may use: the driver/load generator plus the
#: DynamicBatcher worker (or the compactor in mutate_mix).
MAX_BUSY_THREADS = 2

#: Retrieval depth everywhere (the paper's Table 2 default is 5; the issue
#: fixes k=10 so NDCG@10 is the quality metric on every workload).
K = 10

WORKLOADS = {
    "scan_unique": (
        "closed loop of never-repeated batch-32 queries: cache and batcher do "
        "nothing, so route + deep scan + merge are the whole latency"
    ),
    "serve_zipf": (
        "open-loop Poisson arrivals of Zipf-repeated single queries through the "
        "batcher: most hit the cache, so queue wait and coalescing dominate"
    ),
    "rag_strides": (
        "live lookahead RAG pipeline at a retrieval-heavy operating point: the "
        "only workload with TTFT and E2E, retrieval visible in TTFT"
    ),
    "mutate_mix": (
        "batch-32 reads interleaved with inserts, deletes and background "
        "compaction: the same scan through delta, tombstones and a stale cache"
    ),
}

#: Full sizes. The issue sized the workloads at 100 000 vectors for a 3.5
#: minute command; the driver's budget is ~35 s per run including set-up, so
#: all four are shrunk by the same 0.4 (rag_strides keeps 60 000 chunks by
#: halving the chunk length instead, so retrieval stays > 40 % of TTFT).
SIZES = {
    "scan_unique": {
        "docs": 40_000, "dim": 64, "batch": 32, "setup_repeats": 5,
    },
    "serve_zipf": {
        "docs": 40_000, "dim": 64, "uniques": 1_600, "cache": 400,
        "zipf_alpha": 1.1, "rate_qps": 150, "diag_rates": (800, 3_200),
        "max_batch": 32, "max_wait_s": 0.002,
        # Measured phase: the admission layer is on the path but its limits
        # cannot bind (a queue longer than the run, a deadline and a CoDel
        # target longer than any stall), so a hiccup of the box never turns
        # into a refused, shed or degraded request.
        "max_queue": 100_000, "deadline_s": 30.0, "delay_target_s": 30.0,
        # Diagnostic phases (traced run, per-layer metrics only): the issue's
        # serving configuration, which does refuse and shed past saturation.
        "diag_max_queue": 256, "diag_deadline_s": 0.25, "diag_delay_target_s": 0.2,
        "limit_p95_ms": 100.0, "limit_failed_share": 0.01,
        "setup_repeats": 5,
    },
    "rag_strides": {
        "docs": 15_000, "doc_tokens": 128, "chunk_tokens": 32, "dim": 64,
        "n_topics": 10, "n_long": 24, "n_short": 8, "long_tokens": 96,
        "short_tokens": 8, "n_strides": 6, "stride_tokens": 16,
        "speculation_threshold": 0.95, "setup_repeats": 1,
    },
    "mutate_mix": {
        "docs": 40_000, "dim": 64, "batch": 32, "query_batches": 160,
        "write_rows": 64, "compact_at": 1_000, "setup_repeats": 5,
    },
}

#: ``--smoke`` overrides (about 1/20 of the full sizes; bounds and the
#: workload-stress claims are off, schema and oracle checks stay on).
SMOKE_SIZES = {
    "scan_unique": {"docs": 2_000, "setup_repeats": 1},
    "serve_zipf": {
        "docs": 2_000, "uniques": 80, "cache": 20, "setup_repeats": 1,
    },
    "rag_strides": {"docs": 750, "n_long": 6, "n_short": 2},
    "mutate_mix": {
        "docs": 2_000, "query_batches": 20, "write_rows": 16, "compact_at": 100,
        "setup_repeats": 1,
    },
}
SMOKE_SECONDS = 1.0


def sizes(workload: str, *, smoke: bool = False) -> dict:
    out = dict(SIZES[workload])
    if smoke:
        out.update(SMOKE_SIZES[workload])
    return out


# -- end-to-end metrics -------------------------------------------------------
# The driver's schema has one end-to-end list that *every* workload reports in
# full, so each name is defined on all four workloads; "means" says what it is
# on each. ``bound`` is the share of the parent's median a metric may worsen.
END_TO_END = [
    {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
        "means": "corpus generation (+ encode_chunks on rag_strides) + "
        "cluster_datastore + stack construction + first warm search, build "
        "cache off; median over the workload's set-up repeats",
    },
    {
        "name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
        "means": "scan_unique, mutate_mix: one batch-32 ServingFrontend.search "
        "call; serve_zipf: one request from the time it was due; rag_strides: "
        "TTFT (measured encode + retrieval[0] + modelled prefill)",
    },
    {
        "name": "latency_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25,
        "means": "same samples as latency_p50_ms, 95th percentile",
    },
    {
        "name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
        "means": "scan_unique, mutate_mix: read queries completed per second of "
        "measured wall (mutate_mix's wall includes its writes); serve_zipf: "
        "requests served per second at the offered rate; rag_strides: tokens "
        "generated per second of cohort makespan on the request timeline "
        "(the inverse of lookahead E2E)",
    },
    {
        "name": "ndcg_at_10", "unit": "score", "better": "higher", "bound": 0.05,
        "means": "served ids vs brute force over the vectors live at the time "
        "of the read (rag_strides: vs each stride's true query)",
    },
    {
        "name": "rss_peak_mb", "unit": "MB", "better": "lower", "bound": 0.20,
        "means": "ru_maxrss of the workload's own interpreter",
    },
]

ALL = tuple(WORKLOADS)
BATCHED = ("serve_zipf", "rag_strides")


def _m(name, unit, better, on, moves, means):
    return {
        "name": name, "unit": unit, "better": better, "on": tuple(on),
        "moves": moves, "means": means,
    }


#: Per-layer metrics, all from the traced run. ``on`` lists the workloads a
#: metric is defined on (it reads 0 elsewhere: that layer did no work there);
#: ``moves`` is the end-to-end metric it is predicted to move.
PER_LAYER = [
    # datastore
    _m("datastore.encoder.encode_us_per_query", "us", "lower", ["rag_strides"],
       "latency_p50_ms on rag_strides (< 2 % of TTFT)",
       "proxy on SyntheticEncoder.encode_tokens, mean per call"),
    _m("datastore.encoder.encode_chunks_s", "s", "lower", ["rag_strides"],
       "setup_s on rag_strides",
       "encode_chunks over the whole chunk list during set-up"),
    # ann: direct calls on the largest shard's sealed IVFIndex, batch 32
    _m("ann.ivf.sample_scan_ms", "ms", "lower", ALL,
       "core.router.route_ms -> latency/throughput on scan_unique, TTFT on rag_strides",
       "IVFIndex.search(nprobe=8, k=1) median"),
    _m("ann.ivf.deep_scan_ms", "ms", "lower", ALL,
       "core.hierarchical.deep_ms -> same",
       "IVFIndex.search(nprobe=128, k=10) median"),
    _m("ann.ivf.cells_pruned", "count", "higher", ALL,
       "ann.ivf.deep_scan_ms", "ivf_cells_pruned_total delta over the two probes (0 on sq8)"),
    _m("ann.workspace.hit_share", "share", "higher", ALL,
       "ann.ivf.*_scan_ms", "workspace hits / (hits + misses) over the two probes"),
    _m("ann.kmeans.split_train_s", "s", "lower", ALL,
       "setup_s", "train_kmeans on the corpus, k = 10"),
    _m("ann.delta.read_overhead_share", "share", "lower", ["mutate_mix"],
       "latency_p50_ms on mutate_mix only",
       "shard search p50 with the live delta / p50 right after compact(), - 1"),
    # core
    _m("core.router.route_ms", "ms", "lower", ALL,
       "latency_p50_ms, throughput_per_s on scan_unique; TTFT on rag_strides",
       "median core.route span per routed search"),
    _m("core.router.route_share", "share", "lower", ALL,
       "same", "route time / traced latency_p50 (median-band budget)"),
    _m("core.router.sample_searches_per_batch", "count", "lower", ALL,
       "core.router.route_ms", "sample shard searches per routed search (10 today)"),
    _m("core.router.top1_shard_recall", "share", "higher",
       ["scan_unique", "serve_zipf", "rag_strides"], "ndcg_at_10",
       "share of queries whose brute-force top-1 document's shard was routed"),
    _m("core.hierarchical.deep_ms", "ms", "lower", ALL,
       "latency_p50_ms, throughput_per_s on scan_unique; TTFT on rag_strides",
       "median time covered by deep core.shard_search spans per search"),
    _m("core.hierarchical.deep_share", "share", "lower", ALL,
       "same", "deep time / traced latency_p50 (median-band budget)"),
    _m("core.hierarchical.merge_self_ms", "ms", "lower", ALL,
       "same", "median core.search self time (candidate scatter + merge)"),
    _m("core.hierarchical.shard_queries_per_query", "count", "lower", ALL,
       "core.hierarchical.deep_ms", "SearchResult.shard_queries_attempted / queries searched"),
    _m("core.hierarchical.degraded_share", "share", "lower", ALL,
       "harness.failed_share", "searches whose SearchResult.degraded is set / searches"),
    _m("core.hierarchical.fanout_speedup_2w", "ratio", "higher", ["scan_unique"],
       "latency_p50_ms on scan_unique", "p50 without max_workers / p50 with max_workers=2"),
    _m("core.clustering.build_s", "s", "lower", ALL, "setup_s", "cluster_datastore wall"),
    _m("core.clustering.imbalance", "ratio", "lower", ALL,
       "latency_p95_ms", "largest / smallest shard"),
    _m("core.clustering.index_bytes_per_vector", "B", "lower", ALL,
       "rss_peak_mb", "datastore.memory_bytes() / vectors"),
    _m("core.clustering.insert_us_per_row", "us", "lower", ["mutate_mix"],
       "core.clustering.write_p50_ms", "core.insert span / rows"),
    _m("core.clustering.delete_us_per_row", "us", "lower", ["mutate_mix"],
       "core.clustering.write_p50_ms", "core.delete span / rows"),
    _m("core.clustering.write_p50_ms", "ms", "lower", ["mutate_mix"],
       "throughput_per_s on mutate_mix",
       "each add_documents or delete_documents call (the issue's write_p50_ms)"),
    _m("core.clustering.write_p95_ms", "ms", "lower", ["mutate_mix"],
       "throughput_per_s on mutate_mix", "same calls, 95th percentile"),
    _m("core.clustering.compact_s", "s", "lower", ["mutate_mix"],
       "latency_p95_ms on mutate_mix", "median ClusteredDatastore.compact() wall"),
    _m("core.clustering.compactions", "count", "higher", ["mutate_mix"],
       "latency_p95_ms on mutate_mix", "compaction cycles in the measured phase"),
    _m("core.clustering.delta_rows_peak", "count", "lower", ["mutate_mix"],
       "latency_p50_ms on mutate_mix", "largest delta_rows() the compactor saw"),
    _m("core.clustering.read_stall_ratio", "ratio", "lower", ["mutate_mix"],
       "latency_p95_ms on mutate_mix", "read p50 overlapping a compaction / outside"),
    # serving: cache, frontend, batcher, admission
    _m("serving.cache.lookup_us_per_query", "us", "lower", ALL,
       "latency_p50_ms on serve_zipf; pure overhead on scan_unique", "cache lookup span / queries"),
    _m("serving.cache.insert_us_per_query", "us", "lower", ALL,
       "same", "cache insert span / rows inserted"),
    _m("serving.cache.hit_share", "share", "higher", ALL,
       "latency_p50_ms on serve_zipf", "(exact + semantic hits) / lookups"),
    _m("serving.cache.routing_hit_share", "share", "higher", ALL,
       "latency_p95_ms on serve_zipf", "routing-tier hits / lookups"),
    _m("serving.cache.evictions", "count", "lower", ALL,
       "serving.cache.hit_share", "LRU evictions in the measured phase"),
    _m("serving.cache.stale_generation_share", "share", "lower", ALL,
       "serving.cache.hit_share on mutate_mix", "stale-generation evictions / lookups"),
    _m("serving.frontend.self_ms", "ms", "lower", ALL,
       "latency_p50_ms", "median serving.frontend self time"),
    _m("serving.frontend.searched_share", "share", "lower", ALL,
       "latency_p50_ms on serve_zipf", "queries reaching the searcher / submitted"),
    _m("serving.batcher.queue_wait_p50_ms", "ms", "lower", BATCHED,
       "latency_p50_ms on serve_zipf",
       "submit->done minus the serving batch's frontend span (rag_strides: "
       "stride retrieval minus frontend spans, per cohort)"),
    _m("serving.batcher.queue_wait_p95_ms", "ms", "lower", BATCHED,
       "latency_p95_ms on serve_zipf", "same, 95th percentile"),
    _m("serving.batcher.mean_batch", "count", "higher", BATCHED,
       "latency_p50_ms (longer) and capacity (higher) on serve_zipf", "batcher.stats"),
    _m("serving.batcher.batches", "count", "lower", BATCHED, "same", "batcher.stats"),
    _m("serving.frontend.request_p99_ms", "ms", "lower", ["serve_zipf"],
       "reported, not gated", "request latency from due time, 99th percentile"),
    _m("serving.frontend.p95_ms_at_mid_rate", "ms", "lower", ["serve_zipf"],
       "serving.frontend.max_rate_qps", "p95 from due time at the middle rate (brownout engaged)"),
    _m("serving.frontend.max_rate_qps", "1/s", "higher", ["serve_zipf"],
       "harness.failed_share",
       "highest of the base/middle/overload rates meeting the latency limit at full quality"),
    _m("serving.admission.rejected_share", "share", "lower", ["serve_zipf"],
       "harness.failed_share", "rejected / submitted at the overload rate"),
    _m("serving.admission.shed_share", "share", "lower", ["serve_zipf"],
       "harness.failed_share", "deadline-shed / submitted at the overload rate"),
    _m("serving.admission.goodput_share_overload", "share", "higher", ["serve_zipf"],
       "harness.failed_share", "served within the deadline / submitted at the overload rate"),
    _m("serving.admission.brownout_level_max", "count", "lower", ["serve_zipf"],
       "ndcg_at_10", "highest degradation level any request was served at"),
    # serving: pipeline
    _m("serving.pipeline.ttft_p50_ms", "ms", "lower", ["rag_strides"],
       "latency_p50_ms on rag_strides", "RequestResult.ttft_s in the traced phase"),
    _m("serving.pipeline.e2e_p50_s", "s", "lower", ["rag_strides"],
       "throughput_per_s on rag_strides", "RequestResult.e2e_s, lookahead (the issue's e2e_p50_s)"),
    _m("serving.pipeline.e2e_p95_s", "s", "lower", ["rag_strides"],
       "throughput_per_s on rag_strides", "same, 95th percentile"),
    _m("serving.pipeline.retrieval_ms_per_stride", "ms", "lower", ["rag_strides"],
       "latency_p50_ms, throughput_per_s on rag_strides", "median StrideRecord.retrieval_s"),
    _m("serving.pipeline.retrieval_share_of_ttft", "share", "lower", ["rag_strides"],
       "scales every core/ann metric's effect on TTFT", "retrieval[0] / ttft, median"),
    _m("serving.pipeline.lookahead_hit_share", "share", "higher", ["rag_strides"],
       "throughput_per_s on rag_strides", "verified speculative strides / speculated strides"),
    _m("serving.pipeline.wasted_retrieval_ms_per_request", "ms", "lower", ["rag_strides"],
       "throughput_per_s on rag_strides", "mis-speculated windows per request"),
    _m("serving.pipeline.sequential_e2e_p50_s", "s", "lower", ["rag_strides"],
       "serving.pipeline.overlap_gain", "e2e_s p50 in sequential mode, same cohorts"),
    _m("serving.pipeline.overlap_gain", "ratio", "higher", ["rag_strides"],
       "throughput_per_s on rag_strides", "sequential / lookahead e2e p50"),
    _m("serving.pipeline.ndcg_drop_vs_sequential", "score", "lower", ["rag_strides"],
       "ndcg_at_10 on rag_strides", "sequential NDCG@10 - lookahead NDCG@10"),
    _m("serving.pipeline.self_ms_per_stride", "ms", "lower", ["rag_strides"],
       "nothing on the virtual timeline (wall-clock scheduler overhead)",
       "(serve wall - frontend spans - encode spans) / strides"),
    # llm: modelled constants
    _m("llm.inference.prefill_ms", "ms", "lower", ["rag_strides"],
       "latency_p50_ms on rag_strides; must repeat exactly", "InferenceModel.prefill"),
    _m("llm.inference.block_ms", "ms", "lower", ["rag_strides"],
       "throughput_per_s on rag_strides; must repeat exactly", "prefill + decode of one stride"),
    # obs / harness
    _m("obs.bench_tracing_overhead_share", "share", "lower", ALL,
       "nothing (harness cost)", "traced / untraced latency p50 - 1, interleaved units"),
    _m("obs.tracer_enabled_overhead_share", "share", "lower", ["scan_unique"],
       "latency_p50_ms when a caller enables repro.obs tracing",
       "repro.obs tracing enabled / disabled p50 - 1, interleaved batches"),
    _m("loadgen.late_p99_ms", "ms", "lower", ["serve_zipf"],
       "validity of serve_zipf latencies", "how late the open-loop generator submitted"),
    _m("harness.speed_factor", "ratio", "lower", ALL,
       "nothing: the end-to-end timings are already divided by it",
       "median speed-probe time over the run / SpeedProbe.NOMINAL_S (1 = quiet box)"),
    _m("harness.failed_share", "share", "lower", ALL,
       "the driver's failed/attempted (the issue's failed_share)",
       "(rejected + shed + raised + degraded + oracle violations) / attempted"),
]

#: Oracle floors for ``ndcg_at_10``. The driver picks the seeds, and every
#: seed is another corpus, so the floor is the lowest value seen over seeds
#: 0-19 at the seed commit (0.951 / 0.934 / 0.862 / 0.949) minus 0.03: it
#: catches a broken router or merge on any seed, while a small drop is the
#: business of the gated ``ndcg_at_10`` metric. Off in ``--smoke`` (other
#: corpus sizes).
NDCG_FLOORS = {
    "scan_unique": 0.92,
    "serve_zipf": 0.90,
    "rag_strides": 0.83,
    "mutate_mix": 0.92,
}

def benchmark_json() -> dict:
    """The driver-facing contract, exactly the keys its schema allows."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
