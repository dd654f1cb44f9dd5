"""Observability: metrics, timers, trace events, exporters.

The production north star needs more than the ad-hoc ``QueryStats``
counters: latency distributions per method, build-phase timings, and
machine-readable exports.  This package provides them with a strict
zero-cost-when-disabled contract — the process-wide default registry is
a no-op, and instrumented hot paths guard on it with a single cheap
check, so benchmark numbers with metrics off match uninstrumented code.

Typical use::

    from repro import obs

    registry = obs.enable_metrics()        # before building indexes
    oracle = repro.Reachability(edges)
    oracle.reachable_many(pairs)
    print(obs.to_prometheus(registry))     # or obs.write_jsonl(registry, path)

Metric families emitted by the built-in instrumentation:

* ``repro_index_builds_total{method}`` — builds per method (counter);
* ``repro_index_build_seconds{method}`` — build wall time (histogram);
* ``repro_build_phase_seconds{builder,phase}`` — per-phase build time
  (histogram; FELINE phases: ``x-order``, ``y-heuristic``,
  ``level-filter``, ``positive-cut-forest``);
* ``repro_query_latency_seconds{method}`` — scalar query latency
  (histogram; p50/p95/p99 derived);
* ``repro_query_batch_seconds{method}`` / ``repro_query_batch_size{method}``
  — whole-batch latency and size (histograms);
* ``repro_search_expanded_vertices{method}`` — vertices expanded per
  pruned DFS (histogram);
* ``repro_query_stats{method,counter}`` — the ``QueryStats`` counters as
  gauges (published by ``ReachabilityIndex.publish_stats``);
* ``repro_budget_exhausted_total{method,resource,policy}`` /
  ``repro_degraded_total{method,outcome,policy}`` — budget exhaustion
  and degradation outcomes, split by degradation policy.

Beyond metrics, the package provides the serving triad (see
docs/OBSERVABILITY.md):

* **spans** (:mod:`repro.obs.spans`) — hierarchical start/end intervals
  with parent links and a contextvar ambient span; enable with
  :func:`enable_tracing`, export with :func:`write_chrome_trace`
  (Perfetto-loadable) or :func:`write_spans_jsonl`;
* **explain** (:mod:`repro.obs.explain`) — per-query verdict provenance
  (:class:`QueryExplanation`), produced by ``Reachability.explain`` and
  ``ReachabilityIndex.explain``;
* **slow-query log** (:mod:`repro.obs.slowlog`) — a bounded ring buffer
  with threshold or reservoir sampling, served as ``/slow`` (next to
  ``/metrics`` and ``/healthz``) by :class:`repro.serve.ReachServer`;
* **distributed stitching** (:mod:`repro.obs.distributed`) — one trace
  per request across the HTTP edge, coalescer, shard coordinator and
  forked workers: trace-context propagation in RPC frames, worker spans
  and telemetry piggybacked on responses, per-stage latency under
  ``repro_stage_seconds{stage=...}``.
"""

from repro.obs.distributed import (
    STAGES,
    TelemetryMerger,
    build_aux,
    ingest_aux,
    recent_traces,
    render_trace_tree,
    trace_payload,
    trace_to_chrome,
    trace_tree,
)
from repro.obs.explain import CUTS, BudgetReport, QueryExplanation
from repro.obs.export import (
    to_jsonl,
    to_prometheus,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    reset_instruments,
    set_registry,
    snapshot_instruments,
)
from repro.obs.slowlog import SlowQueryLog, SlowQueryRecord
from repro.obs.spans import (
    NullTracer,
    Span,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    format_trace_id,
    get_tracer,
    new_trace_id,
    parse_trace_id,
    set_tracer,
    spans_to_chrome_trace,
    spans_to_jsonl,
    tracing_enabled,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.timing import Timer, elapsed_ns, elapsed_s, now_ns, timed
from repro.obs.trace import TraceEvent, TraceLog

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "LATENCY_BUCKETS_S",
    "COUNT_BUCKETS",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "Timer",
    "timed",
    "now_ns",
    "elapsed_ns",
    "elapsed_s",
    "TraceEvent",
    "TraceLog",
    "to_jsonl",
    "write_jsonl",
    "to_prometheus",
    "write_prometheus",
    # spans
    "Span",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "current_span",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "new_trace_id",
    "format_trace_id",
    "parse_trace_id",
    # distributed stitching
    "STAGES",
    "TelemetryMerger",
    "build_aux",
    "ingest_aux",
    "trace_tree",
    "trace_payload",
    "recent_traces",
    "render_trace_tree",
    "trace_to_chrome",
    "snapshot_instruments",
    "reset_instruments",
    # explain
    "CUTS",
    "BudgetReport",
    "QueryExplanation",
    # slow-query log
    "SlowQueryRecord",
    "SlowQueryLog",
]
