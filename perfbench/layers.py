"""The metric names and units every run prints.

``END_TO_END`` is printed by untraced runs and ``PER_LAYER`` by traced
runs, on every workload.  A per-layer metric of a layer the workload does
not use reads 0 there; the server and shard layers are measured in the
traced run of ``batch-cut`` only.  ``BENCHMARK.json`` lists the same names and units;
the benchmark's tests keep the two in step.
"""

END_TO_END = {
    "setup_s": "s",
    "mem_mb": "MiB",
    "ok_share": "ratio",
    "pairs_per_s": "pairs/s",
    "budgeted_pairs_per_s": "pairs/s",
    "req_p50_us": "us",
    "req_p99_us": "us",
}

PER_LAYER = {
    # repro.graph (io, scc)
    "graph.load_s": "s",
    "graph.condense_s": "s",
    # repro.core build
    "index.build_s": "s",
    "index.bytes": "bytes",
    # repro facade + baselines.base
    "facade.map_ns_per_pair": "ns",
    "base.validate_ns_per_pair": "ns",
    "query.scalar_ns": "ns",
    # repro.perf.observers
    "observers.build_s": "s",
    "observers.bytes": "bytes",
    "observers.classify_ns_per_pair": "ns",
    "observers.decided_share": "ratio",
    # repro.perf.cut_table
    "cut.classify_ns_per_pair": "ns",
    "cut.decided_share": "ratio",
    # repro.perf.engine
    "engine.ns_per_pair": "ns",
    "engine.dedup_share": "ratio",
    # repro.perf.kernels
    "search.survivor_share": "ratio",
    "search.expanded_per_survivor": "count",
    "search.ns_per_survivor": "ns",
    "kernels.python_ns_per_survivor": "ns",
    "kernels.numpy_ns_per_survivor": "ns",
    # repro.perf.pool
    "pool.ns_per_survivor": "ns",
    # repro.resilience.budget
    "budget.ns_per_pair": "ns",
    "budget.unknown_share": "ratio",
    # repro.obs.slowlog
    "slowlog.ns_per_pair": "ns",
    # repro.serve
    "serve.overhead_ms": "ms",
    "serve.http_roundtrip_ms": "ms",
    "serve.coalesce_batch_mean": "pairs",
    "serve.queue_wait_ms": "ms",
    "serve.shed_share": "ratio",
    "serve.coverage": "ratio",
    # repro.shard
    "shard.rpcs_per_request": "count",
    "shard.cross_share": "ratio",
    "shard.worker_restarts": "count",
    # repro.obs.spans
    "obs.trace_overhead": "ratio",
    # the benchmark's own tracing and load generator
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "loadgen.lateness_ms": "ms",
}


def zero_layers(result) -> None:
    """Every per-layer metric at 0, for a run to overwrite what it measures."""
    for name, unit in PER_LAYER.items():
        result.put(name, 0.0, unit)
