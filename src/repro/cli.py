"""Command-line interface mirroring the paper artifact's workflow.

The Hermes artifact ships shell scripts for index construction, search/model
profiling, accuracy evaluation, multi-node aggregation, and plot generation
(its Appendix A.5 steps). This CLI exposes the same workflow over the
reproduction::

    hermes-repro build --docs 20000 --clusters 10 --out store/
    hermes-repro accuracy --store store/ --clusters-searched 3
    hermes-repro profile --tokens 1e10 --batch 128
    hermes-repro multinode --tokens 1e12 --clusters 10 --batch 128 --dvfs enhanced
    hermes-repro cache --alphas 0 0.5 1.0 1.5 --out cache_sweep.json
    hermes-repro faults --killed 0 1 2 3 --out faults.json
    hermes-repro overload --loads 0.5 1 2 --out overload.json
    hermes-repro mutate --churns 0 0.01 0.05 --smoke
    hermes-repro serve --requests 16 --strides 4 --out serve.json
    hermes-repro trace retrieval --out trace.json
    hermes-repro reproduce --fast

Every subcommand is also reachable as ``python -m repro.cli <cmd>``.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_build(args: argparse.Namespace) -> int:
    import time

    from .core.build_cache import BuildCache, CacheStats, cached_cluster_datastore
    from .core.clustering import split_datastore_evenly
    from .core.config import HermesConfig
    from .core.store_io import save_datastore
    from .datastore.embeddings import make_corpus

    corpus = make_corpus(args.docs, n_topics=args.topics, dim=args.dim, seed=args.seed)
    config = HermesConfig(
        n_clusters=args.clusters,
        clusters_to_search=min(3, args.clusters),
        quantization=args.quantization,
        build_workers=args.workers,
    )
    stats = CacheStats()
    cache = BuildCache(args.cache_dir, stats=stats)
    start = time.perf_counter()
    if args.strategy == "split":
        datastore = split_datastore_evenly(corpus.embeddings, config)
        cache_line = "build-cache: not used (split strategy)"
    else:
        datastore = cached_cluster_datastore(
            corpus.embeddings, config, cache=cache, use_cache=not args.no_cache
        )
        cache_line = (
            "build-cache: disabled (--no-cache)"
            if args.no_cache
            else f"{stats.summary()} [{cache.directory}]"
        )
    elapsed = time.perf_counter() - start
    print(
        f"built {args.strategy} datastore: {datastore.ntotal} docs, "
        f"{datastore.n_clusters} shards, imbalance {datastore.imbalance:.2f}x, "
        f"{datastore.memory_bytes() / 1e6:.1f} MB in {elapsed:.2f} s"
    )
    print(cache_line)
    if args.out:
        save_datastore(datastore, args.out)
        print(f"exported -> {args.out}")
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from .baselines.monolithic import MonolithicRetriever
    from .core.hierarchical import HermesSearcher
    from .core.store_io import load_datastore
    from .datastore.embeddings import TopicModel
    from .datastore.queries import trivia_queries
    from .metrics.ndcg import ndcg

    datastore = load_datastore(args.store)
    dim = datastore.dim
    # NDCG against brute force over the deployed (quantized) vectors; the
    # query topic geometry must match the build seed (same --seed/--topics).
    vectors = datastore.reconstruct_vectors()
    model = TopicModel.create(n_topics=args.topics, dim=dim, seed=args.seed)
    queries = trivia_queries(model, args.queries)
    mono = MonolithicRetriever(vectors)
    _, truth = mono.ground_truth(queries.embeddings, args.k)
    searcher = HermesSearcher(datastore)
    result = searcher.search(
        queries.embeddings, k=args.k, clusters_to_search=args.clusters_searched
    )
    score = ndcg(result.ids, truth)
    print(
        f"NDCG @ {args.clusters_searched} clusters searched: {score:.4f} "
        f"({args.queries} queries, k={args.k})"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .metrics.reporting import format_table
    from .perfmodel.measurements import (
        RetrievalCostModel,
        index_memory_bytes,
    )
    from .hardware.cpu import get_cpu

    cost = RetrievalCostModel(platform=get_cpu(args.cpu))
    rows = []
    for nprobe in args.nprobes:
        latency = cost.batch_latency(args.tokens, args.batch, nprobe=nprobe)
        energy = cost.batch_energy(args.tokens, args.batch, nprobe=nprobe)
        rows.append(
            (nprobe, latency, args.batch / latency, energy, energy / args.batch)
        )
    print(
        format_table(
            ["nProbe", "latency (s)", "QPS", "J/batch", "J/query"],
            rows,
            title=(
                f"retrieval profile: {args.tokens:.3g} tokens, batch "
                f"{args.batch}, {cost.platform.name}"
            ),
        )
    )
    print(f"index memory: {index_memory_bytes(args.tokens) / 1e9:.1f} GB (IVF-SQ8)")
    return 0


def _cmd_multinode(args: argparse.Namespace) -> int:
    from .experiments.common import build_fleet
    from .perfmodel.aggregate import DVFSPolicy, expected_deep_loads

    fleet = build_fleet(args.tokens, n_clusters=args.clusters, cpu_key=args.cpu)
    loads = expected_deep_loads(
        args.batch, fleet.access_frequency, args.clusters_searched
    )
    dvfs = DVFSPolicy(args.dvfs)
    kwargs = {}
    if dvfs is DVFSPolicy.ENHANCED:
        kwargs["latency_target_s"] = args.inference_window
    hermes = fleet.model.hermes(args.batch, loads, dvfs=dvfs, **kwargs)
    naive = fleet.model.naive_split(args.batch)
    mono = fleet.model.monolithic(args.tokens, args.batch)
    print(f"fleet: {args.clusters}x {fleet.model.cluster[0].cpu.name}")
    print(f"monolithic : {mono.latency_s:9.3f} s  {mono.energy_j:10.0f} J")
    print(f"naive split: {naive.latency_s:9.3f} s  {naive.energy_j:10.0f} J")
    print(
        f"hermes     : {hermes.latency_s:9.3f} s  {hermes.energy_j:10.0f} J "
        f"({args.clusters_searched} clusters deep, dvfs={args.dvfs})"
    )
    print(
        f"speedup vs monolithic: {mono.latency_s / hermes.latency_s:.2f}x; "
        f"energy vs naive: {naive.energy_j / hermes.energy_j:.2f}x; "
        f"throughput: {fleet.model.throughput_qps(args.batch, hermes):.0f} QPS"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments import serve_cache
    from .metrics.reporting import format_table
    from .obs.metrics import get_registry

    points = serve_cache.run(
        tuple(args.alphas),
        n_unique=args.unique,
        n_requests=args.requests,
        batch=args.batch,
        k=args.k,
        capacity=args.capacity,
        seed=args.seed,
    )
    print(
        format_table(
            serve_cache.TABLE_HEADERS,
            serve_cache.table_rows(points),
            title=(
                f"serve cache skew sweep: {args.unique} unique queries, "
                f"{args.requests} requests, batch {args.batch}, "
                f"capacity {args.capacity}, k={args.k}"
            ),
        )
    )
    snapshot = get_registry().snapshot()
    print("cache metrics:")
    for name in sorted(snapshot):
        if name.startswith(("retrieval_cache_", "frontend_")):
            print(f"  {name} = {snapshot[name]:g}")
    if args.out:
        serve_cache.write_artifact(points, args.out, k=args.k)
        print(f"skew sweep -> {args.out}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .experiments import fig_faults

    points = fig_faults.run(
        tuple(args.killed), k=args.k, n_queries=args.queries, seed=args.seed
    )
    for p in points:
        print(
            f"killed={p.killed} {p.killed_shards}: "
            f"hermes NDCG@{args.k} {p.hermes.ndcg:.3f} "
            f"(affected {p.hermes.affected_frac:.0%}, "
            f"p50 {p.hermes.p50_ms:.1f} ms, p99 {p.hermes.p99_ms:.1f} ms) | "
            f"split NDCG@{args.k} {p.split.ndcg:.3f} "
            f"(affected {p.split.affected_frac:.0%}, "
            f"p50 {p.split.p50_ms:.1f} ms, p99 {p.split.p99_ms:.1f} ms)"
        )
    if args.out:
        fig_faults.write_artifact(points, args.out, k=args.k)
        print(f"degradation curve -> {args.out}")
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    from .experiments import overload
    from .metrics.reporting import format_table
    from .obs.metrics import get_registry

    if args.smoke:
        loads = tuple(args.loads) if 2.0 in args.loads else tuple(args.loads) + (2.0,)
        report = overload.run(
            loads,
            n_requests=min(args.requests, 480),
            deadline_ms=args.deadline_ms,
            max_queue=args.max_queue,
            k=args.k,
            n_failover_queries=64,
            seed=args.seed,
        )
    else:
        report = overload.run(
            tuple(args.loads),
            n_requests=args.requests,
            deadline_ms=args.deadline_ms,
            max_queue=args.max_queue,
            k=args.k,
            seed=args.seed,
        )
    print(
        format_table(
            overload.TABLE_HEADERS,
            overload.table_rows(report),
            title=(
                f"overload sweep: capacity {report.capacity_qps:.0f} qps, "
                f"deadline {report.deadline_ms:.0f} ms, max queue {report.max_queue}"
            ),
        )
    )
    print("failover (mid-run node kill):")
    for p in report.failover:
        print(
            f"  {p.config:12s} NDCG@{args.k} before {p.ndcg_before:.3f} / "
            f"after {p.ndcg_after:.3f}"
            + (f", failovers {p.failovers}, replicas out {p.replicas_out}"
               if p.config == "replicated" else "")
        )
    snapshot = get_registry().snapshot()
    print("overload metrics:")
    for name in sorted(snapshot):
        if name.startswith(("serving_", "retrieval_failovers", "retrieval_replica",
                            "retrieval_deadline", "retrieval_retry_budget")):
            print(f"  {name} = {snapshot[name]:g}")
    if args.out:
        overload.write_artifact(report, args.out)
        print(f"overload artifact -> {args.out}")
    if args.smoke:
        problems = overload.smoke_check(report)
        if problems:
            for problem in problems:
                print(f"SMOKE FAIL: {problem}")
            return 1
        print("smoke checks passed: admission goodput > unbounded at 2x; failover holds NDCG")
    return 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    from .experiments import mutation
    from .metrics.reporting import format_table
    from .obs.metrics import get_registry

    report = mutation.run(
        tuple(args.churns),
        docs=args.docs,
        n_queries=args.queries,
        batch=args.batch,
        k=args.k,
        seed=args.seed,
    )
    print(
        format_table(
            mutation.TABLE_HEADERS,
            mutation.table_rows(report),
            title=(
                f"live-mutation churn sweep: {report.docs} docs, "
                f"{report.n_queries} queries, batch {report.batch}, k={report.k}"
            ),
        )
    )
    snapshot = get_registry().snapshot()
    print("mutation metrics:")
    for name in sorted(snapshot):
        if name.startswith(("datastore_", "retrieval_cache_stale_generation")):
            print(f"  {name} = {snapshot[name]:g}")
    if args.out:
        mutation.write_artifact(report, args.out)
        print(f"mutation artifact -> {args.out}")
    if args.smoke:
        problems = mutation.smoke_check(report)
        if problems:
            for problem in problems:
                print(f"SMOKE FAIL: {problem}")
            return 1
        print(
            "smoke checks passed: no deleted leaks, inserts retrievable, "
            "live == compacted at full probe"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .experiments import serve_pipeline
    from .metrics.reporting import format_table
    from .obs.metrics import get_registry

    n_long = max(args.requests * 3 // 4, 1)
    n_short = max(args.requests - n_long, 1)
    if args.smoke:
        n_long, n_short = min(n_long, 6), min(n_short, 2)
    report = serve_pipeline.run(
        docs=args.docs,
        n_long=n_long,
        n_short=n_short,
        n_strides=args.strides,
        stride_tokens=args.stride_tokens,
        k=args.k,
        speculation_threshold=args.speculation_threshold,
        deadline_s=args.deadline_s,
        seed=args.seed,
    )
    print(
        format_table(
            serve_pipeline.TABLE_HEADERS,
            serve_pipeline.table_rows(report),
            title=(
                f"live serving pipeline: {report.n_requests} requests x "
                f"{report.n_strides} strides over {report.chunks} chunks, "
                f"k={report.k}, spec threshold {report.speculation_threshold}"
            ),
        )
    )
    snapshot = get_registry().snapshot()
    print("pipeline metrics:")
    for name in sorted(snapshot):
        if name.startswith("pipeline_"):
            print(f"  {name} = {snapshot[name]:g}")
    if args.out:
        serve_pipeline.write_artifact(report, args.out)
        print(f"serving artifact -> {args.out}")
    if args.smoke:
        problems = serve_pipeline.smoke_check(report)
        if problems:
            for problem in problems:
                print(f"SMOKE FAIL: {problem}")
            return 1
        print(
            "smoke checks passed: overlapped E2E beats sequential at equal "
            "NDCG; TTFT discipline-independent; speculation exercised"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .experiments import tracing

    run = tracing.run(args.experiment, seed=args.seed)
    out = args.out or f"trace-{args.experiment}.json"
    path = run.write(out)
    print(
        f"traced {args.experiment}: {len(run.roots)} root span(s), "
        f"{run.n_spans} total, invariants OK"
    )
    print(f"chrome trace -> {path} (open in chrome://tracing or ui.perfetto.dev)")
    print()
    print(run.breakdown())
    if args.metrics and run.metrics:
        print()
        print("metrics:")
        for name, value in sorted(run.metrics.items()):
            print(f"  {name} = {value:g}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.runner import run_all

    run_all(fast=args.fast)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermes-repro",
        description="Hermes (ISCA'25) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "build", help="build a datastore (clustered builds go through the fingerprinted cache)"
    )
    p.add_argument("--docs", type=int, default=50_000)
    p.add_argument("--topics", type=int, default=10)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--clusters", type=int, default=10)
    p.add_argument("--quantization", default="sq8")
    p.add_argument(
        "--strategy", choices=("clustered", "split"), default="clustered",
        help="K-means split (Hermes) or an even split (no cache)",
    )
    p.add_argument("--workers", type=int, default=None, help="build thread count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir", default=None, help="build-cache location override")
    p.add_argument("--no-cache", action="store_true", help="always rebuild")
    p.add_argument("--out", default=None, help="also save the datastore here")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("accuracy", help="evaluate a saved datastore's NDCG")
    p.add_argument("--store", required=True)
    p.add_argument("--topics", type=int, default=10)
    p.add_argument("--queries", type=int, default=64)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--clusters-searched", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_accuracy)

    p = sub.add_parser("profile", help="profile retrieval latency/energy")
    p.add_argument("--tokens", type=float, default=10e9)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--cpu", default="xeon_gold_6448y")
    p.add_argument("--nprobes", type=int, nargs="+", default=[8, 32, 128])
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("multinode", help="run the multi-node aggregation model")
    p.add_argument("--tokens", type=float, default=1e12)
    p.add_argument("--clusters", type=int, default=10)
    p.add_argument("--clusters-searched", type=int, default=3)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--cpu", default="xeon_gold_6448y")
    p.add_argument("--dvfs", choices=("none", "baseline", "enhanced"), default="none")
    p.add_argument("--inference-window", type=float, default=1.7)
    p.set_defaults(func=_cmd_multinode)

    p = sub.add_parser(
        "cache", help="serve-time retrieval-cache skew sweep (hit rate vs latency)"
    )
    p.add_argument(
        "--alphas", type=float, nargs="+", default=[0.0, 0.5, 1.0, 1.5],
        help="Zipf exponents of the request stream to sweep",
    )
    p.add_argument("--unique", type=int, default=128, help="unique query pool size")
    p.add_argument("--requests", type=int, default=1024)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--capacity", type=int, default=512, help="cache entries (LRU)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON artifact here")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "faults", help="fault sweep: graceful degradation vs killed nodes"
    )
    p.add_argument(
        "--killed", type=int, nargs="+", default=[0, 1, 2, 3, 5],
        help="killed-node counts to sweep (fleet has 10 nodes)",
    )
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--queries", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON artifact here")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "overload",
        help="open-loop overload sweep: goodput/p99/shedding + replica failover",
    )
    p.add_argument(
        "--loads", type=float, nargs="+", default=[0.5, 1.0, 2.0],
        help="offered load as multiples of calibrated capacity",
    )
    p.add_argument(
        "--requests", type=int, default=600,
        help="fewest requests per load point (more when that many would be too short)",
    )
    p.add_argument("--deadline-ms", type=float, default=50.0)
    p.add_argument(
        "--max-queue", type=int, default=None,
        help="admission queue bound (default: derived from calibrated capacity)",
    )
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON artifact here")
    p.add_argument(
        "--smoke", action="store_true",
        help="reduced sizes + assert the overload/failover acceptance properties",
    )
    p.set_defaults(func=_cmd_overload)

    p = sub.add_parser(
        "mutate",
        help="live-mutation churn sweep: delta/tombstone serving vs compacted",
    )
    p.add_argument(
        "--churns", type=float, nargs="+", default=[0.0, 0.01, 0.05],
        help="per-batch insert+delete rates as fractions of the batch size",
    )
    p.add_argument("--docs", type=int, default=3000)
    p.add_argument("--queries", type=int, default=128)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON artifact here")
    p.add_argument(
        "--smoke", action="store_true",
        help="assert the mutation integrity/equivalence properties",
    )
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser(
        "serve",
        help="live end-to-end serving: sequential vs pipelined vs lookahead",
    )
    p.add_argument("--docs", type=int, default=400)
    p.add_argument("--requests", type=int, default=16, help="cohort size")
    p.add_argument("--strides", type=int, default=4)
    p.add_argument("--stride-tokens", type=int, default=16)
    p.add_argument("--k", type=int, default=10)
    p.add_argument(
        "--speculation-threshold", type=float, default=0.95,
        help="cosine floor for accepting a speculative (lookahead) retrieval",
    )
    p.add_argument(
        "--deadline-s", type=float, default=None,
        help="per-request end-to-end wall budget propagated into retrieval",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON artifact here")
    p.add_argument(
        "--smoke", action="store_true",
        help="reduced cohort + assert the pipelining acceptance properties",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace", help="run a seeded traced experiment and export a Chrome trace"
    )
    p.add_argument(
        "experiment",
        choices=("retrieval", "generation", "e2e"),
        help="which pipeline slice to trace",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", default=None, help="artifact path (default trace-<experiment>.json)"
    )
    p.add_argument(
        "--metrics", action="store_true", help="also print the metrics snapshot"
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("reproduce", help="regenerate every paper table/figure")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
