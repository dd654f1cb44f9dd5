"""CI bench smoke: fixed-seed micro-benchmark with a workers axis.

Runs FELINE and FELINE-B over two fixed-seed workloads and records
build/query timings to ``BENCH_pr5.json`` plus a sample Chrome
``trace_event`` file from the same run:

* **cut-dominated** — uniform random pairs on a sparse DAG; the
  vectorized cut pass answers almost everything, so this tracks the
  batch engine itself;
* **search-heavy** — pairs pre-filtered to cut *survivors* (the built
  index's own cut table classifies candidates and keeps the undecided
  ones), so batch time is dominated by online searches — the workload
  the survivor-search pool (``--workers``) parallelizes.

The same search-heavy workload also feeds an *observer* sweep written
to ``BENCH_pr8.json``: each method runs with and without an attached
:class:`~repro.perf.observers.ObserverLayer`, recording the survivor
rate (fraction of the batch no O(1) cut decided) and batch timing per
observer count — ``check_observers.py`` gates CI on the survivor-rate
drop and on calibration-normalized throughput.

Both workloads additionally feed a *kernel* sweep written to
``BENCH_pr10.json``: the batch of each method — FELINE, FELINE-B,
GRAIL and FELINE-K — runs once per available search-kernel backend
(``python``, ``numpy``, and ``c`` when its library builds — see
:mod:`repro.perf.kernels`), with answers asserted identical across
backends.  ``check_kernels.py`` gates CI on the numpy
tier being no slower than pure Python and (when C cells exist) on the
compiled tier's search-heavy speedup.  Every report records
``kernel_backend`` / ``c_fallback_reason`` / ``shared_pages`` so
baseline comparisons are like-for-like.

Every measurement records the machine context needed to compare runs
across hosts: the CPU count (a pool cannot beat ``workers=0`` on a
single core) and a pure-Python *calibration* loop timing that
``check_regression.py`` uses to normalize throughput between the
committed baseline and the machine re-running it.

Not collected by pytest (no ``bench_`` prefix, no test functions); run as

    PYTHONPATH=src python benchmarks/smoke.py [OUT_DIR] [--workers 0,2]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import MethodSpec, measure_method
from repro.baselines.base import create_index
from repro.datasets.queries import random_pairs
from repro.graph.generators import random_dag
from repro.obs.spans import disable_tracing, enable_tracing, write_chrome_trace
from repro.perf.kernels import (
    available_backends,
    c_fallback_reason,
    resolve_backend,
)

SEED = 42
VERTICES = 5_000
AVG_DEGREE = 2.0
NUM_QUERIES = 2_000
SPECS = [
    MethodSpec("feline", "FELINE"),
    MethodSpec("feline-b", "FELINE-B"),
]
#: The kernel sweep also covers the rank-row families whose search
#: moved to C after these specs were fixed.
KERNEL_SPECS = [
    *SPECS,
    MethodSpec("grail", "GRAIL"),
    MethodSpec("feline-k", "FELINE-K"),
]
OBSERVER_AXIS = [0, 16]


def calibrate(rounds: int = 3, n: int = 2_000_000) -> float:
    """Milliseconds for a fixed pure-Python busy loop (best of rounds).

    A machine-speed yardstick: both the committed baseline and a fresh
    run carry it, so ``check_regression.py`` can compare normalized
    throughput across differently-sized runners.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i
        best = min(best, time.perf_counter() - start)
    return 1000 * best


def survivor_pairs(graph, wanted: int, seed: int) -> list[tuple[int, int]]:
    """``wanted`` pairs that FELINE's O(1) cuts cannot decide.

    Classifies random candidates through a throwaway index's cut table
    and keeps the undecided ones — the pairs whose batch cost is the
    online search the pool parallelizes.
    """
    index = create_index("feline", graph).build()
    table = index._cut_table
    keep: list[tuple[int, int]] = []
    attempt = 0
    while len(keep) < wanted and attempt < 40:
        candidates = random_pairs(graph, 8 * wanted, seed=seed + attempt)
        arr = np.asarray(candidates, dtype=np.int64)
        sources, targets = arr[:, 0], arr[:, 1]
        positive, negative = table.classify(sources, targets)
        undecided = ~(positive | negative) & (sources != targets)
        keep.extend(
            (int(u), int(v))
            for u, v in arr[undecided][: wanted - len(keep)]
        )
        attempt += 1
    return keep


def _observer_cell(graph, method: str, pairs, k: int, runs: int) -> dict:
    """One (method, observer-count) batch measurement over ``pairs``."""
    from repro.perf.observers import build_observers

    index = create_index(method, graph).build()
    build_ms = 0.0
    if k:
        start = time.perf_counter()
        index.attach_observers(build_observers(graph, k=k))
        build_ms = 1000 * (time.perf_counter() - start)
    best = float("inf")
    answers = None
    for _ in range(runs):
        index.stats.reset()
        start = time.perf_counter()
        answers = index.query_many(pairs)
        best = min(best, 1000 * (time.perf_counter() - start))
    stats = index.stats
    cell = {
        "method": method,
        "observers": k,
        "query_ms": best,
        "observer_build_ms": build_ms,
        "positives": sum(answers),
        "searches": stats.searches,
        "observer_hits": stats.observer_positive + stats.observer_negative,
        "survivor_rate": stats.searches / max(len(pairs), 1),
    }
    return cell, answers


def observer_report(out_dir: Path, graph, pairs, runs: int = 3) -> dict:
    """The BENCH_pr8 observer sweep: survivor rate and batch timing per
    observer count on the search-heavy workload.

    Asserts answer equivalence between the observer counts as a safety
    net — a benchmark must never publish numbers from wrong answers.
    """
    results = []
    baseline_answers: dict[str, list] = {}
    for spec in SPECS:
        for k in OBSERVER_AXIS:
            cell, answers = _observer_cell(
                graph, spec.method, pairs, k, runs
            )
            results.append(cell)
            reference = baseline_answers.setdefault(spec.method, answers)
            assert answers == reference, (
                f"{spec.method}: observers={k} changed batch answers"
            )
    report = {
        "bench": "pr8-observers",
        "python": platform.python_version(),
        "seed": SEED,
        "cpus": os.cpu_count(),
        "calibration_ms": calibrate(),
        **_environment(),
        "graph": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
        "workload": {"name": "search-heavy", "queries": len(pairs)},
        "results": results,
    }
    (out_dir / "BENCH_pr8.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return report


def _environment() -> dict:
    """The like-for-like context every report carries.

    ``kernel_backend`` is the backend auto-selection resolves to on this
    machine, ``shared_pages`` whether pool workers map a shared arena
    (on whenever a pool is attached) — a baseline measured under one
    configuration must not silently gate a run under another.
    """
    return {
        "kernel_backend": resolve_backend(),
        "c_fallback_reason": c_fallback_reason(),
        "shared_pages": True,
    }


def _kernel_cell(graph, method: str, pairs, backend: str, runs: int):
    """One (method, kernel-backend) batch measurement over ``pairs``."""
    index = create_index(method, graph)
    index.set_kernel(backend)
    index.build()
    best = float("inf")
    answers = None
    for _ in range(runs):
        index.stats.reset()
        start = time.perf_counter()
        answers = index.query_many(pairs)
        best = min(best, 1000 * (time.perf_counter() - start))
    stats = index.stats
    cell = {
        "method": method,
        "kernel": backend,
        "query_ms": best,
        "positives": sum(answers),
        "searches": stats.searches,
        "expanded": stats.expanded,
        "pruned": stats.pruned,
        "search_us_per_survivor": _search_us(index, pairs, runs),
    }
    return cell, answers


def _search_us(index, pairs, runs: int) -> float:
    """Microseconds per survivor in the engine's search stage alone.

    The batch time also carries per-batch costs no kernel touches
    (validation, classification, dedup), which on a small graph with
    short searches can set the tier ratio; this times only
    ``_search_survivors`` over the pairs the cut table leaves.  Run
    after the batch timings: it adds to ``index.stats``.
    """
    from repro.perf.engine import _search_survivors

    arr = np.asarray(pairs, dtype=np.int64)
    sources, targets = arr[:, 0], arr[:, 1]
    positive, negative = index._cut_table.classify(sources, targets)
    survivors = np.flatnonzero(~(positive | negative) & (sources != targets))
    if not len(survivors):
        return 0.0
    answers = np.zeros(len(arr), dtype=bool)
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        _search_survivors(index, sources, targets, survivors, answers)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / len(survivors)


def kernel_report(out_dir: Path, workloads, graph, runs: int = 3) -> dict:
    """The BENCH_pr10 kernel sweep: batch timing per search backend.

    Runs every method over every available backend on both workloads,
    asserting bit-identical answers between backends — the published
    numbers are meaningless if a backend changes a verdict.  The ``c``
    column appears only where the C library builds; ``check_kernels.py``
    gates conditionally on its presence.
    """
    measured = []
    for name, pairs in workloads:
        results = []
        reference: dict[str, list] = {}
        for spec in KERNEL_SPECS:
            for backend in available_backends()[::-1]:  # python first
                cell, answers = _kernel_cell(
                    graph, spec.method, pairs, backend, runs
                )
                results.append(cell)
                baseline = reference.setdefault(spec.method, answers)
                assert answers == baseline, (
                    f"{spec.method}: kernel={backend} changed batch answers"
                )
        measured.append(
            {"workload": name, "queries": len(pairs), "results": results}
        )
    report = {
        "bench": "pr10-kernels",
        "python": platform.python_version(),
        "seed": SEED,
        "cpus": os.cpu_count(),
        "calibration_ms": calibrate(),
        **_environment(),
        "graph": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
        "workloads": measured,
    }
    (out_dir / "BENCH_pr10.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return report


def _result_dict(r, workers: int) -> dict:
    return {
        "method": r.method,
        "workers": workers,
        "construction_ms": r.construction_ms,
        "query_ms": r.query_ms,
        "index_bytes": r.index_bytes,
        "positives": r.positives,
        "query_p50_us": r.query_p50_us,
        "query_p95_us": r.query_p95_us,
        "query_p99_us": r.query_p99_us,
    }


def run(out_dir: Path, workers_axis: list[int], runs: int = 3) -> dict:
    graph = random_dag(VERTICES, avg_degree=AVG_DEGREE, seed=SEED)
    graph.name = f"random_dag(n={VERTICES}, d={AVG_DEGREE}, seed={SEED})"
    workloads = [
        ("cut-dominated", random_pairs(graph, NUM_QUERIES, seed=SEED)),
        ("search-heavy", survivor_pairs(graph, NUM_QUERIES, seed=SEED)),
    ]

    tracer = enable_tracing()
    try:
        measured = []
        for name, pairs in workloads:
            results = [
                _result_dict(
                    measure_method(
                        graph, spec, pairs, runs=runs,
                        percentiles=True, workers=w,
                    ),
                    workers=w,
                )
                for spec in SPECS
                for w in workers_axis
            ]
            measured.append(
                {"workload": name, "queries": len(pairs), "results": results}
            )
        trace_path = out_dir / "smoke_trace.json"
        write_chrome_trace(tracer, trace_path)
    finally:
        disable_tracing()

    report = {
        "bench": "pr5-smoke",
        "python": platform.python_version(),
        "seed": SEED,
        "cpus": os.cpu_count(),
        "calibration_ms": calibrate(),
        **_environment(),
        "graph": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
        "workloads": measured,
        "trace_spans": tracer.total,
    }
    (out_dir / "BENCH_pr5.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    observer_report(out_dir, graph, workloads[1][1], runs=runs)
    kernel_report(out_dir, workloads, graph, runs=runs)
    return report


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out_dir", nargs="?", default="benchmarks/results", type=Path
    )
    parser.add_argument(
        "--workers",
        default="0,2",
        help="comma-separated survivor-pool worker counts to sweep "
        "(default 0,2; 0 = in-process)",
    )
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv[1:])
    workers_axis = [int(w) for w in args.workers.split(",") if w != ""]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    report = run(args.out_dir, workers_axis, runs=args.runs)
    print(json.dumps(report, indent=2))
    print(
        f"\nwritten: {args.out_dir / 'BENCH_pr5.json'}, "
        f"{args.out_dir / 'BENCH_pr8.json'}, "
        f"{args.out_dir / 'BENCH_pr10.json'}, "
        f"{args.out_dir / 'smoke_trace.json'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
