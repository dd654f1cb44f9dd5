"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``methods``
    List every registered reachability method.
``datasets``
    List every addressable dataset name.
``query GRAPH.edges u v [--method M] [--index FILE]``
    Load an edge-list file and answer one reachability query; with
    ``--index`` the FELINE coordinates are loaded from ``FILE`` instead
    of rebuilt (pass ``--mmap`` to page them in lazily).  ``--max-steps``
    / ``--deadline-ms`` attach a query budget, with ``--on-budget``
    choosing the degradation (``raise``, ``unknown``, ``fallback``); an
    unanswered query prints ``unknown`` and exits 3.
``build GRAPH.edges INDEX.feline``
    Build a FELINE index for an edge-list graph (must be a DAG after
    condensation is *not* applied here — build works on DAGs) and save
    it in the binary format of :mod:`repro.core.persistence`.
``verify-index GRAPH.edges INDEX.feline [--sample N] [--mmap]``
    Load a saved index (checksums verified for v2 files) and check the
    Theorem 1 soundness invariants against the graph; exits 0 when the
    index is sound, 1 on an integrity violation, 2 when the file itself
    is unreadable (bad magic, truncation, checksum mismatch).
``bench EXPERIMENT [--scale S] [--queries N] [--runs R] [--metrics-out P] [--trace-out P]``
    Regenerate a paper artifact (``t1``..``t5``, ``f10``..``f17``,
    ``ablation-heuristics``, ``ablation-filters``, or ``all``); with
    ``--metrics-out PATH`` the run executes with metrics enabled and
    writes a JSON-lines export to ``PATH`` plus a Prometheus text export
    next to it (``.prom`` suffix); with ``--trace-out PATH`` spans are
    collected and written as Chrome ``trace_event`` JSON that
    https://ui.perfetto.dev opens directly.
``explain GRAPH.edges u v [--method M]``
    Answer one query *with provenance*: which O(1) cut fired (negative
    coordinate cut, level filter, positive-cut interval) or how far the
    refined online search went, the structures consulted, and the
    elapsed time.  Budget flags as in ``query``.  Exit codes mirror
    ``query`` (0 reachable, 1 not, 3 unknown).
``serve GRAPH.edges [--method M] [--port P] [--warm N] [--slow-ms T]``
    Build an index with metrics on, warm it with ``N`` random queries,
    and serve *query traffic* from the asyncio tier
    (:class:`repro.serve.ReachServer`): ``GET /reach?u=..&v=..`` and
    ``POST /reach_many`` answered through the request coalescer, plus
    ``/metrics``, ``/healthz`` and ``/slow`` folded in.  Coalescing and
    admission control are tunable (``--max-batch``, ``--max-wait-ms``,
    ``--max-inflight``, ``--overload``), budget flags as in ``query``;
    ``--once`` scrapes each endpoint once and exits (CI smoke).
``loadgen GRAPH.edges [--mode closed|open] [--compare] [--out P]``
    Boot a server over the graph (or target ``--url`` of a running one)
    and drive it with a random-pair workload: closed model
    (``--concurrency`` workers back-to-back) or open model (``--rate``
    arrivals/s), reporting throughput, p50/p95/p99 latency, SLO
    attainment and the server's coalescing histograms.  ``--compare``
    measures an uncoalesced baseline (``max_batch=1``) against the
    coalesced configuration and reports both — ``--out`` writes the JSON
    artifact committed as ``benchmarks/BENCH_pr6.json``.
``shard-serve GRAPH.edges [--shards N] [--port P] [--on-shard-loss POLICY]``
    Serve query traffic from the real multi-process shard deployment
    (:class:`repro.shard.ShardService`): forked workers each own an
    X-slab partition with its own FELINE index, the coordinator routes
    cross-shard pairs over the SCARAB backbone, supervises and restarts
    workers, and degrades per ``--on-shard-loss`` on unrecoverable
    loss.  ``deadline_ms`` on requests propagates end-to-end;
    ``--on-deadline gateway-timeout`` renders deadline-degraded answers
    as structured 504s.  ``--once`` scrapes each endpoint and exits.
``trace URL [--trace-id HEX] [--json] [--out P]``
    Fetch one stitched distributed trace from a server started with
    ``--trace`` (``serve`` or ``shard-serve``) and render it as an
    indented tree — spans from the HTTP edge, the coalescer, shard
    RPCs and worker processes under one trace id.  ``--out`` writes
    Chrome ``trace_event`` JSON for https://ui.perfetto.dev.
``chaos-drill GRAPH.edges [--shards N] [--chaos-s T] [--out P]``
    The kill-based chaos suite: SIGKILL (and occasionally SIGSTOP)
    random shard workers under live deadline-bounded traffic, assert
    every answer is correct-or-unknown and on time, then halt a shard
    permanently and measure degraded-mode throughput.  ``--out`` writes
    the JSON report committed as ``benchmarks/BENCH_pr7.json``; exits
    non-zero if the fault-tolerance contract is violated.
``stats GRAPH.edges [--method M] [--queries N] [--seed S] [--metrics-out P]``
    Build an index, answer a random workload, and print the query-stats
    breakdown (which cut answered how many queries), build-phase
    timings, and query-latency percentiles; optionally export the
    metrics like ``bench --metrics-out``.
``validate GRAPH.edges [--queries N]``
    Cross-check several index methods against DFS ground truth on the
    given graph; exits non-zero on any disagreement.
``recommend GRAPH.edges [--query-heavy]``
    Print the advised index method for the graph, with the features and
    rule behind the choice.

Each subcommand is declared once in :func:`_build_parser`, with only the
option groups its ``_run_<command>`` function reads, and :func:`main`
returns ``args.run(args)``.  ``serve`` and ``shard-serve`` share
:func:`_serve_lifecycle`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro import Reachability, available_methods, obs
from repro.bench import runner
from repro.bench.harness import set_default_workers
from repro.bench.validate import cross_validate
from repro.core.advisor import describe_recommendation
from repro.core.persistence import load_index, save_index
from repro.core.query import FelineIndex
from repro.datasets.queries import random_pairs
from repro.datasets.registry import dataset_names
from repro.exceptions import PersistenceError
from repro.graph.io import read_edge_list
from repro.obs.distributed import render_trace_tree, trace_to_chrome
from repro.obs.export import write_jsonl, write_prometheus
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import write_chrome_trace
from repro.perf.kernels import resolve_backend
from repro.resilience import UNKNOWN, QueryBudget, verify_index
from repro.serve import ReachServer, ServeConfig
from repro.serve.loadgen import (
    calibrate_ms,
    compare_serving,
    measure_serving,
    run_loadgen,
)
from repro.shard import ShardConfig, ShardService, chaos_drill

__all__ = ["main"]

_EXPERIMENTS: dict[str, Callable[..., runner.ExperimentReport]] = {
    "t1": runner.table1_datasets,
    "t2": runner.table2_synthetic,
    "t3": runner.table3_real,
    "t4": runner.table4_feline_variants,
    "t5": runner.table5_scarab,
    "f10": runner.fig10_cd_construction,
    "f11": runner.fig11_cd_query,
    "f12": runner.fig12_index_plots,
    "f13": runner.fig13_synthetic_construction,
    "f14": runner.fig14_synthetic_query,
    "f15": runner.fig15_index_sizes_real,
    "f16": runner.fig16_index_sizes_synthetic,
    "f17": runner.fig17_cd_scarab,
    "ablation-heuristics": runner.ablation_y_heuristics,
    "ablation-filters": runner.ablation_filters,
}

_GRAPH = "edge-list file (u v per line)"
_DAG = "edge-list file of a DAG"


def _method_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", default="feline")


def _seed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)


def _kernel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kernel",
        choices=["auto", "c", "numpy", "python"],
        default=None,
        help="survivor-path search-kernel backend (default auto: "
        "c when the search library compiles and loads, else numpy; "
        "numpy is the bidirectional BFS's, the rank-row families "
        "search on python under it; all backends are bit-identical "
        "— see docs/PERFORMANCE.md)",
    )


def _budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-steps",
        type=int,
        default=None,
        help="budget: cap the online search at this many expanded vertices",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="budget: wall-clock deadline for the query, in milliseconds",
    )
    p.add_argument(
        "--on-budget",
        choices=["raise", "unknown", "fallback"],
        default="unknown",
        help="what budget exhaustion degrades to (default: unknown)",
    )


def _listen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0, help="0 (default) picks a free port"
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="scrape each endpoint once, print, and exit (smoke tests)",
    )


def _serve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="coalescer flush threshold in pairs; 1 disables "
        "coalescing (default 64)",
    )
    p.add_argument(
        "--max-wait-ms",
        type=float,
        default=0.0,
        help="coalescer window: longest a request waits for batch "
        "mates (default 0: flush on the next event-loop tick)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=1024,
        help="admission cap on admitted-but-unanswered pairs "
        "(default 1024)",
    )
    p.add_argument(
        "--overload",
        choices=["shed", "unknown"],
        default="shed",
        help="over-cap requests: shed (503 + Retry-After) or "
        "unknown (immediate degraded verdict; default shed)",
    )
    p.add_argument(
        "--observers",
        type=int,
        default=0,
        help="O'Reach-style supporting vertices consulted before "
        "the index's own cuts (default 0: none; see "
        "docs/PERFORMANCE.md)",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="distributed span tracing: every request gets a "
        "trace_id (X-Trace-Id header), /trace serves stitched "
        "trees, and per-stage latency lands in "
        "repro_stage_seconds (see docs/OBSERVABILITY.md)",
    )
    _kernel_args(p)


def _workers_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="survivor-search worker processes for batch queries "
        "(default 0: in-process; see docs/PERFORMANCE.md)",
    )


def _shard_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--shards",
        type=int,
        default=3,
        help="shard worker processes (default 3)",
    )
    p.add_argument(
        "--on-shard-loss",
        choices=["fallback", "unknown"],
        default="fallback",
        help="unrecoverable-shard degradation: fallback (bounded "
        "biBFS on the coordinator's DAG replica) or unknown "
        "(default fallback)",
    )


def _out_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the full report as JSON to PATH",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FELINE reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *groups, graph=_GRAPH):
        """Subcommand ``name``: ``graph`` positional, option ``groups``."""
        p = sub.add_parser(name, help=help)
        if graph is not None:
            p.add_argument("graph", help=graph)
        for group in groups:
            group(p)
        p.set_defaults(run=run)
        return p

    command(
        "methods", _run_methods, "list registered reachability methods",
        graph=None,
    )
    command("datasets", _run_datasets, "list dataset names", graph=None)

    query = command(
        "query", _run_query, "answer one reachability query",
        _method_args, _kernel_args, _budget_args,
    )
    query.add_argument("source", type=int)
    query.add_argument("target", type=int)
    query.add_argument(
        "--index", default=None, help="saved FELINE index file to reuse"
    )
    query.add_argument(
        "--mmap", action="store_true", help="memory-map the saved index"
    )

    explain = command(
        "explain", _run_explain, "answer one query with verdict provenance",
        _method_args, _kernel_args, _budget_args,
    )
    explain.add_argument("source", type=int)
    explain.add_argument("target", type=int)
    explain.add_argument(
        "--json", action="store_true", help="print the explanation as JSON"
    )

    serve = command(
        "serve", _run_serve,
        "serve reachability queries (and the obs triad) over HTTP",
        _method_args, _seed_args, _listen_args, _serve_args, _workers_args,
        _budget_args,
    )
    serve.add_argument(
        "--warm",
        type=int,
        default=1000,
        help="random queries answered before serving (default 1000)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=1.0,
        help="slow-query log threshold in milliseconds (default 1.0)",
    )

    loadgen = command(
        "loadgen", _run_loadgen,
        "drive a reachability server with load, report latency",
        _method_args, _seed_args, _serve_args, _workers_args, _out_args,
    )
    loadgen.add_argument(
        "--mode",
        choices=["closed", "open"],
        default="closed",
        help="workload model: closed (workers back-to-back) or open "
        "(scheduled arrivals; default closed)",
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=16,
        help="client connections (default 16)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in requests/second",
    )
    loadgen.add_argument(
        "--duration",
        type=float,
        default=3.0,
        help="run length in seconds (default 3)",
    )
    loadgen.add_argument(
        "--requests",
        type=int,
        default=None,
        help="stop after this many requests (default: run to --duration)",
    )
    loadgen.add_argument(
        "--slo-ms",
        type=float,
        default=50.0,
        help="latency SLO for the attainment figure (default 50 ms)",
    )
    loadgen.add_argument(
        "--pairs",
        type=int,
        default=512,
        help="distinct random query pairs cycled through (default 512)",
    )
    loadgen.add_argument(
        "--warm",
        type=float,
        default=0.3,
        help="warmup seconds before measuring (default 0.3)",
    )
    loadgen.add_argument(
        "--compare",
        action="store_true",
        help="measure an uncoalesced baseline (max_batch=1) against the "
        "coalesced configuration and report both",
    )
    loadgen.add_argument(
        "--url",
        default=None,
        help="drive an already-running server at this URL instead of "
        "booting one (GRAPH still supplies the query pairs)",
    )

    build = command(
        "build", _run_build, "build and save a FELINE index for a DAG",
        graph=_DAG,
    )
    build.add_argument("output", help="destination .feline index file")

    verify = command(
        "verify-index", _run_verify_index,
        "check a saved index's soundness invariants against a graph",
        _seed_args, graph="edge-list file of the indexed DAG",
    )
    verify.add_argument("index", help="saved .feline index file")
    verify.add_argument(
        "--sample",
        type=int,
        default=10_000,
        help="edges sampled on large graphs (default 10000)",
    )
    verify.add_argument(
        "--mmap", action="store_true", help="memory-map the saved index"
    )

    bench = command(
        "bench", _run_bench, "regenerate a paper artifact",
        _seed_args, _kernel_args, graph=None,
    )
    bench.add_argument(
        "experiment", choices=sorted(_EXPERIMENTS) + ["all"]
    )
    bench.add_argument("--scale", type=float, default=None)
    bench.add_argument("--queries", type=int, default=None)
    bench.add_argument("--runs", type=int, default=None)
    bench.add_argument(
        "--datasets",
        default=None,
        help="comma-separated dataset names to restrict the sweep to",
    )
    bench.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable metrics and write JSON-lines to PATH plus a "
        "Prometheus text export with a .prom suffix",
    )
    bench.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="enable span tracing and write Chrome trace_event JSON to "
        "PATH (open it at https://ui.perfetto.dev)",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=0,
        help="survivor-search worker processes attached to every "
        "measured index (default 0: in-process)",
    )

    shard_serve = command(
        "shard-serve", _run_shard_serve,
        "serve queries from supervised multi-process shard workers",
        _listen_args, _shard_args, _serve_args,
    )
    shard_serve.add_argument(
        "--index-budget-bytes",
        type=int,
        default=None,
        help="per-shard index byte budget: each shard builds the "
        "richest FELINE tier that fits (default: unrestricted)",
    )
    shard_serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline applied to queries that carry no deadline_ms",
    )
    shard_serve.add_argument(
        "--rpc-timeout-ms",
        type=float,
        default=1000.0,
        help="per-attempt shard RPC cap (default 1000)",
    )
    shard_serve.add_argument(
        "--on-deadline",
        choices=["unknown", "gateway-timeout"],
        default="unknown",
        help="deadline-degraded answers on the wire: unknown verdict "
        "(200) or structured 504 (default unknown)",
    )
    shard_serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="slow-query log threshold in milliseconds; entries carry "
        "the trace_id and owning shard (default: no slow log)",
    )

    drill = command(
        "chaos-drill", _run_chaos_drill,
        "SIGKILL shard workers under live traffic, report the "
        "failover/degradation numbers",
        _seed_args, _shard_args, _out_args,
    )
    drill.add_argument("--pairs", type=int, default=200)
    drill.add_argument(
        "--deadline-ms",
        type=float,
        default=250.0,
        help="per-query deadline during every phase (default 250)",
    )
    drill.add_argument(
        "--grace-ms",
        type=float,
        default=250.0,
        help="scheduling grace added to the deadline before a query "
        "counts as a violation (default 250)",
    )
    drill.add_argument("--baseline-s", type=float, default=2.0)
    drill.add_argument("--chaos-s", type=float, default=6.0)
    drill.add_argument("--degraded-s", type=float, default=2.0)
    drill.add_argument(
        "--kill-interval-s",
        type=float,
        default=0.4,
        help="cadence of worker murders during the chaos phase "
        "(default 0.4)",
    )

    stats = command(
        "stats", _run_stats,
        "run a workload and print the query-stats breakdown",
        _method_args, _seed_args,
    )
    stats.add_argument("--queries", type=int, default=2000)
    stats.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="also write JSON-lines + Prometheus exports (like bench)",
    )

    validate = command(
        "validate", _run_validate,
        "cross-check index methods against DFS truth",
        _seed_args, graph=_DAG,
    )
    validate.add_argument("--queries", type=int, default=500)

    recommend = command(
        "recommend", _run_recommend, "advise an index method for a graph",
        graph=_DAG,
    )
    recommend.add_argument("--query-heavy", action="store_true")

    trace = command(
        "trace", _run_trace,
        "fetch and render a stitched trace from a running server",
        graph=None,
    )
    trace.add_argument(
        "url", help="base URL of a repro server started with --trace"
    )
    trace.add_argument(
        "--trace-id",
        default=None,
        help="trace to fetch (16-hex-char id from an X-Trace-Id header "
        "or /trace listing; default: the most recent trace)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="print the raw /trace JSON payload instead of the tree",
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the trace as Chrome trace_event JSON to PATH "
        "(open it at https://ui.perfetto.dev)",
    )
    return parser


def _run_methods(args: argparse.Namespace) -> int:
    print("\n".join(available_methods()))
    return 0


def _run_datasets(args: argparse.Namespace) -> int:
    print("\n".join(dataset_names()))
    return 0


def _budget_from_args(args: argparse.Namespace):
    """A :class:`QueryBudget` from ``--max-steps``/``--deadline-ms``."""
    if args.max_steps is None and args.deadline_ms is None:
        return None
    return QueryBudget(
        max_steps=args.max_steps,
        deadline_s=(
            args.deadline_ms / 1000.0
            if args.deadline_ms is not None
            else None
        ),
        policy=args.on_budget,
    )


def _run_query(args: argparse.Namespace) -> int:
    """The ``query`` subcommand: exit 0 reachable, 1 not, 3 unknown."""
    budget = _budget_from_args(args)
    graph = read_edge_list(args.graph)
    if args.index is not None:
        index = load_index(graph, args.index, mmap=args.mmap)
        if args.kernel is not None:
            index.set_kernel(args.kernel)
        answer = index.query(args.source, args.target, budget=budget)
    else:
        oracle = Reachability(graph, method=args.method, kernel=args.kernel)
        answer = oracle.reachable(args.source, args.target, budget=budget)
    if answer is UNKNOWN:
        print("unknown (query budget exhausted)")
        return 3
    print("reachable" if answer else "not reachable")
    return 0 if answer else 1


def _run_explain(args: argparse.Namespace) -> int:
    """The ``explain`` subcommand: ``query``'s verdict with provenance."""
    budget = _budget_from_args(args)
    graph = read_edge_list(args.graph)
    oracle = Reachability(graph, method=args.method, kernel=args.kernel)
    explanation = oracle.explain(args.source, args.target, budget=budget)
    if args.json:
        print(json.dumps(explanation.as_dict(), indent=2, default=str))
    else:
        print(explanation.render())
    if explanation.verdict is UNKNOWN:
        return 3
    return 0 if explanation.verdict else 1


def _run_build(args: argparse.Namespace) -> int:
    """The ``build`` subcommand: build and save a FELINE index."""
    graph = read_edge_list(args.graph)
    index = FelineIndex(graph).build()
    save_index(index, args.output)
    print(
        f"built FELINE index for {graph.num_vertices} vertices, "
        f"{index.index_size_bytes()} bytes -> {args.output}"
    )
    return 0


def _run_verify_index(args: argparse.Namespace) -> int:
    """The ``verify-index`` subcommand: 0 sound, 1 unsound, 2 unreadable."""
    graph = read_edge_list(args.graph)
    try:
        index = load_index(graph, args.index, mmap=args.mmap)
    except PersistenceError as exc:
        print(f"verify-index: UNREADABLE — {exc}", file=sys.stderr)
        return 2
    report = verify_index(graph, index, sample=args.sample, seed=args.seed)
    print(report.summary())
    return 0 if report.ok else 1


def _run_validate(args: argparse.Namespace) -> int:
    """The ``validate`` subcommand: methods against DFS ground truth."""
    graph = read_edge_list(args.graph)
    pairs = random_pairs(graph, args.queries, seed=args.seed)
    report = cross_validate(graph, pairs)
    print(report.summary())
    return 0 if report.ok else 1


def _run_recommend(args: argparse.Namespace) -> int:
    """The ``recommend`` subcommand: the advised index method."""
    graph = read_edge_list(args.graph)
    print(describe_recommendation(graph, expect_query_heavy=args.query_heavy))
    return 0


def _bench_kwargs(args: argparse.Namespace, experiment: str) -> dict:
    kwargs: dict = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if experiment not in ("t1", "t2", "f12"):
        if args.queries is not None:
            kwargs["num_queries"] = args.queries
        if args.runs is not None:
            kwargs["runs"] = args.runs
    if args.datasets and experiment not in ("t1", "t2"):
        names = args.datasets.split(",")
        kwargs["names"] = tuple(names) if experiment == "f12" else names
    if experiment in ("t2",) and "scale" not in kwargs:
        kwargs["scale"] = 0.001
    return kwargs


def _write_json(path: str, document, **options) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, **options)
        handle.write("\n")


def _write_metrics(registry, path: str) -> None:
    """Write the JSON-lines export to ``path`` and a sibling ``.prom``."""
    jsonl_path = Path(path)
    prom_path = jsonl_path.with_suffix(".prom")
    write_jsonl(registry, jsonl_path)
    write_prometheus(registry, prom_path)
    print(f"metrics written: {jsonl_path} (JSON lines), {prom_path} (Prometheus)")


def _run_bench(args: argparse.Namespace) -> int:
    """The ``bench`` subcommand: regenerate paper artifacts."""
    wanted = (
        sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    kernel_env_prev = None
    if args.kernel is not None:
        resolve_backend(args.kernel)  # fail fast on an impossible request
        kernel_env_prev = os.environ.get("REPRO_KERNEL")
        os.environ["REPRO_KERNEL"] = args.kernel
    set_default_workers(args.workers)
    try:
        with (
            obs.metrics_enabled() if args.metrics_out else nullcontext()
        ) as registry, (
            obs.tracing_enabled() if args.trace_out else nullcontext()
        ) as tracer:
            for experiment in wanted:
                report = _EXPERIMENTS[experiment](
                    **_bench_kwargs(args, experiment)
                )
                print(report)
                print()
            if registry is not None:
                _write_metrics(registry, args.metrics_out)
            if tracer is not None:
                write_chrome_trace(tracer, args.trace_out)
                print(
                    f"trace written: {args.trace_out} "
                    f"({tracer.total} spans; open at https://ui.perfetto.dev)"
                )
    finally:
        set_default_workers(0)
        if args.kernel is not None:
            if kernel_env_prev is None:
                os.environ.pop("REPRO_KERNEL", None)
            else:
                os.environ["REPRO_KERNEL"] = kernel_env_prev
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    """The ``stats`` subcommand: cut breakdown + latency percentiles."""
    with obs.metrics_enabled() as registry:
        graph = read_edge_list(args.graph)
        oracle = Reachability(graph, method=args.method)
        pairs = random_pairs(graph, args.queries, seed=args.seed)
        positives = 0
        for u, v in pairs:
            positives += oracle.reachable(u, v)
        oracle.index.publish_stats(registry)

        stats = oracle.stats
        print(f"graph: {args.graph}  method: {oracle.index.method_name}  "
              f"|V|={graph.num_vertices} |E|={graph.num_edges}")
        print(f"queries: {stats.queries}  positive: {positives}")
        total = max(1, stats.queries)
        for counter, value in stats.as_dict().items():
            if counter == "queries":
                continue
            print(f"  {counter:<16} {value:>10}  ({100 * value / total:5.1f}%)")

        latency = registry.histogram(
            "repro_query_latency_seconds", method=oracle.index.method_name
        )
        if latency.count:
            print(
                "query latency (us): "
                f"p50={1e6 * latency.p50:.2f}  "
                f"p95={1e6 * latency.p95:.2f}  "
                f"p99={1e6 * latency.p99:.2f}  "
                f"mean={1e6 * latency.mean:.2f}"
            )
        phase_events = [
            event for event in registry.trace_log
            if "phase" in event.fields and event.duration_s is not None
        ]
        if phase_events:
            print("build phases:")
            for event in phase_events:
                print(
                    f"  {event.name}/{event.fields['phase']:<20} "
                    f"{1e3 * event.duration_s:8.3f} ms"
                )
        if args.metrics_out:
            _write_metrics(registry, args.metrics_out)
    return 0


def _serve_config(args: argparse.Namespace, **fields):
    """The serve option group's :class:`~repro.serve.ServeConfig`."""
    return ServeConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_inflight=args.max_inflight,
        overload=args.overload,
        **fields,
    )


def _open_oracle(args: argparse.Namespace, graph) -> Reachability:
    """The facade ``serve`` and ``loadgen`` query (``close()`` it)."""
    return Reachability(
        graph,
        method=args.method,
        workers=args.workers,
        observers=args.observers,
        kernel=args.kernel,
    )


@contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as ``KeyboardInterrupt`` while the block runs.

    A server stopped with SIGTERM then drains and runs the same clean-up
    as Ctrl-C (``server.stop()``, ``backend.close()``), so no shard
    worker or shared-memory segment outlives it.  Signal handlers can
    only be set from the main thread; elsewhere this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _serve_lifecycle(
    args: argparse.Namespace, open_backend, banner, sample_params="", **fields
) -> int:
    """Serve the backend ``open_backend()`` yields until interrupted.

    ``fields`` complete the listen and serve groups' ``ServeConfig``.
    Metrics and tracing go on before the backend is built: hot paths
    bind their handles at build time, and shard workers inherit both
    when they fork.  ``banner(backend, url)`` prints the banner once the
    server listens; ``--once`` then scrapes each endpoint (the sample
    ``/reach`` with ``sample_params``) and exits.  Shutdown stops the
    server, closes the backend and turns tracing and metrics off.
    """
    from urllib.request import urlopen

    config = _serve_config(args, host=args.host, port=args.port, **fields)
    with (
        _sigterm_as_interrupt(),
        obs.metrics_enabled() as registry,
        (obs.tracing_enabled() if args.trace else nullcontext()) as tracer,
        open_backend() as backend,
    ):
        server = ReachServer(
            backend, config, registry=registry, slow_log=backend.slow_log
        )
        server.start()
        try:
            banner(backend, server.url)
            if not args.once:
                try:
                    threading.Event().wait()  # serve until interrupted
                except KeyboardInterrupt:
                    print("interrupted, shutting down")
                return 0
            sample = (
                f"/reach?u=0&v={backend.graph.num_vertices - 1}"
                f"{sample_params}"
            )
            scrapes = ["/healthz", sample, "/metrics", "/slow"]
            if tracer is not None:
                scrapes.append("/trace")
            for endpoint in scrapes:
                with urlopen(server.url + endpoint) as response:
                    body = response.read().decode("utf-8")
                print(f"--- GET {endpoint} [{response.status}]")
                print(body if len(body) < 2000 else body[:2000] + "...")
            return 0
        finally:
            server.stop()


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: warm an index, serve query traffic."""

    @contextmanager
    def open_oracle():
        graph = read_edge_list(args.graph)
        with _open_oracle(args, graph) as oracle:
            if args.warm > 0:
                oracle.reachable_many(
                    random_pairs(graph, args.warm, seed=args.seed)
                )
            # The slow log goes on after warming, so it logs served
            # traffic only.
            oracle.enable_slow_log(threshold_ms=args.slow_ms)
            yield oracle

    def banner(oracle, url):
        print(
            f"serving {oracle.index.method_name} queries on "
            f"{url} (/reach, /reach_many, /metrics, /healthz, "
            f"/slow; max_batch={args.max_batch}, "
            f"max_wait_ms={args.max_wait_ms})"
        )

    return _serve_lifecycle(
        args, open_oracle, banner, budget=_budget_from_args(args)
    )


def _run_shard_serve(args: argparse.Namespace) -> int:
    """The ``shard-serve`` subcommand: HTTP traffic onto shard workers."""

    @contextmanager
    def open_service():
        graph = read_edge_list(args.graph)
        with ShardService(
            graph,
            ShardConfig(
                num_shards=args.shards,
                index_budget_bytes=args.index_budget_bytes,
                observers=args.observers,
                kernel=args.kernel,
                rpc_timeout_s=args.rpc_timeout_ms / 1000.0,
                default_deadline_ms=args.default_deadline_ms,
                on_shard_loss=args.on_shard_loss,
            ),
        ) as service:
            if args.slow_ms is not None:
                service.attach_slow_log(
                    SlowQueryLog(threshold_ns=int(args.slow_ms * 1e6))
                )
            yield service

    def banner(service, url):
        print(
            f"serving sharded queries on {url} "
            f"({service.num_shards} worker processes, "
            f"shard sizes {service.plan.shard_sizes()}, on_shard_loss="
            f"{service.config.on_shard_loss})"
        )
        for entry in service.plan.index_report():
            print(
                f"  shard {entry['shard']}: {entry['vertices']} "
                f"vertices, tier={entry['tier']}, "
                f"{entry['index_bytes']} index bytes"
            )

    return _serve_lifecycle(
        args, open_service, banner, "&deadline_ms=1000",
        on_deadline=args.on_deadline,
    )


def _run_loadgen(args: argparse.Namespace) -> int:
    """The ``loadgen`` subcommand: measure a server under load."""
    if args.url is not None and args.compare:
        print("loadgen: --compare boots its own servers and is "
              "incompatible with --url", file=sys.stderr)
        return 2
    graph = read_edge_list(args.graph)
    pairs = random_pairs(graph, args.pairs, seed=args.seed)
    config = _serve_config(args)
    drive = dict(
        mode=args.mode, concurrency=args.concurrency, rate=args.rate,
        duration_s=args.duration, max_requests=args.requests,
        slo_ms=args.slo_ms,
    )
    with obs.tracing_enabled() if args.trace else nullcontext():
        if args.url is not None:
            runs = [dict(run_loadgen(args.url, pairs, **drive), label="remote")]
        else:
            with _open_oracle(args, graph) as oracle:
                if args.compare:
                    runs = compare_serving(
                        oracle, pairs, config=config, warmup_s=args.warm,
                        **drive,
                    )["runs"]
                else:
                    report = measure_serving(
                        oracle, pairs, config, warmup_s=args.warm, **drive
                    )
                    runs = [dict(report, label="coalesced")]

    for run in runs:
        latency = run["latency_ms"]
        batch = (run.get("server") or {}).get("coalesce_batch_size")
        mean_batch = f"{batch['mean']:.1f}" if batch else "n/a"
        print(
            f"{run['label']:<10} {run['requests']:>7} req  "
            f"{run['throughput_rps']:>9.1f} rps  "
            f"p50={latency['p50']:.2f}ms p95={latency['p95']:.2f}ms "
            f"p99={latency['p99']:.2f}ms  "
            f"slo({run['slo_ms']:g}ms)={run['slo_attainment']}  "
            f"mean_batch={mean_batch}  errors={run['errors']}"
        )
    if args.compare and len(runs) == 2:
        base, coal = runs[0], runs[1]
        if base["throughput_rps"] > 0:
            speedup = coal["throughput_rps"] / base["throughput_rps"]
            print(f"coalesced/baseline throughput: {speedup:.2f}x")

    if args.out:
        document = {
            "bench": "serve-loadgen",
            "python": "%d.%d.%d" % sys.version_info[:3],
            "seed": args.seed,
            "cpus": os.cpu_count(),
            "calibration_ms": calibrate_ms(),
            "graph": {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "path": args.graph,
            },
            "workload": {
                "mode": args.mode,
                "pairs": len(pairs),
                "concurrency": args.concurrency,
                "rate_rps": args.rate,
                "duration_s": args.duration,
                "slo_ms": args.slo_ms,
            },
            "runs": runs,
        }
        _write_json(args.out, document, indent=2)
        print(f"report written: {args.out}")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: fetch one stitched trace over HTTP."""
    from urllib.request import urlopen

    base = args.url.rstrip("/")

    def fetch(path: str):
        with urlopen(base + path) as response:
            return json.loads(response.read().decode("utf-8"))

    trace_id = args.trace_id
    if trace_id is None:
        listing = fetch("/trace")
        if not listing.get("enabled", False):
            print(
                "tracing is disabled on the server "
                "(start it with --trace)",
                file=sys.stderr,
            )
            return 2
        traces = listing.get("traces") or []
        if not traces:
            print("no traces recorded yet", file=sys.stderr)
            return 2
        trace_id = traces[0]["trace_id"]
    payload = fetch(f"/trace?trace_id={trace_id}")
    if not payload.get("span_count"):
        print(
            f"trace {trace_id}: no spans in the server's ring",
            file=sys.stderr,
        )
        return 2
    if args.out:
        _write_json(args.out, trace_to_chrome(payload))
        print(
            f"chrome trace written: {args.out} "
            "(open at https://ui.perfetto.dev)"
        )
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_trace_tree(payload))
    return 0


def _run_chaos_drill(args: argparse.Namespace) -> int:
    """The ``chaos-drill`` subcommand: the kill-based chaos suite."""
    graph = read_edge_list(args.graph)
    report = chaos_drill(
        graph,
        num_shards=args.shards,
        num_pairs=args.pairs,
        deadline_ms=args.deadline_ms,
        grace_ms=args.grace_ms,
        baseline_s=args.baseline_s,
        chaos_s=args.chaos_s,
        degraded_s=args.degraded_s,
        kill_interval_s=args.kill_interval_s,
        on_shard_loss=args.on_shard_loss,
        seed=args.seed,
    )
    contract = report["contract"]
    faults = report["faults"]
    failover = report["failover_latency"]
    print(
        f"chaos drill: {faults['sigkills']} SIGKILLs + "
        f"{faults['sigstops']} SIGSTOPs over "
        f"{report['config']['num_shards']} shards"
    )
    for phase, doc in report["phases"].items():
        if doc is None:
            continue
        print(
            f"  {phase}: {doc['queries']} queries at {doc['qps']} q/s, "
            f"{doc['wrong']} wrong, {doc['unknown']} unknown, "
            f"{doc['deadline_violations']} deadline violations "
            f"(p95 {doc['latency']['p95_ms']} ms)"
        )
    if failover["count"]:
        print(
            f"  failover latency: p50 {failover['p50_ms']} ms, "
            f"p95 {failover['p95_ms']} ms, max {failover['max_ms']} ms "
            f"over {failover['count']} failovers"
        )
    print(
        f"  restarts: {report['service_stats']['restarts']}, "
        f"degraded fallback/unknown: "
        f"{report['service_stats']['degraded_fallback']}/"
        f"{report['service_stats']['degraded_unknown']}"
    )
    if args.out:
        _write_json(args.out, report, indent=2, sort_keys=True)
        print(f"report written: {args.out}")
    ok = contract["wrong_answers"] == 0 and contract["deadline_violations"] == 0
    if not ok:
        print(
            f"CONTRACT VIOLATED: {contract['wrong_answers']} wrong answers, "
            f"{contract['deadline_violations']} deadline violations",
            file=sys.stderr,
        )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
