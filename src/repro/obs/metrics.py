"""Metrics primitives: counters, gauges, fixed-bucket histograms, registry.

The observability layer is **opt-in**: the process-wide default registry is
a :class:`NullRegistry` whose instruments are shared no-op singletons, so
instrumented code pays one attribute load and an ``is``/truthiness check —
never allocation, locking, or arithmetic — when metrics are off.  Enabling
metrics (:func:`enable_metrics`, or the :func:`metrics_enabled` context
manager) swaps in a real :class:`MetricsRegistry`; indexes pick the
registry up when :meth:`~repro.baselines.base.ReachabilityIndex.build`
runs, so enable metrics *before* building.

Instruments are memoized by ``(name, labels)``, Prometheus-style: asking
for ``registry.counter("repro_queries_total", method="feline")`` twice
returns the same object.  Histograms use fixed bucket boundaries (latency
and count presets below) and derive p50/p95/p99 by linear interpolation
within the winning bucket, clamped to the observed min/max — the same
estimator Prometheus applies server-side with ``histogram_quantile``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from math import inf

from repro.obs.timing import elapsed_s, now_ns
from repro.obs.trace import TraceLog

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
    "snapshot_instruments",
    "reset_instruments",
]

# Log-spaced seconds: 1µs .. 10s, the range a pure-Python reachability
# query or index build plausibly spans.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Powers of two for event counts (vertices expanded per search, batch
# sizes, ...).
COUNT_BUCKETS: tuple[float, ...] = tuple(float(2 ** k) for k in range(21))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: dict[str, str], help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can go up and down (e.g. an index size snapshot)."""

    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: dict[str, str], help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches the overflow.  ``bucket_counts[i]`` counts observations
    ``<= bucket_bounds[i]`` exclusively of earlier buckets (i.e. *not*
    cumulative — the exporters cumulate on the way out, as the Prometheus
    text format requires).
    """

    __slots__ = (
        "name", "labels", "help", "bucket_bounds", "bucket_counts",
        "count", "sum", "min", "max",
    )

    def __init__(
        self,
        buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
        name: str = "",
        labels: dict[str, str] | None = None,
        help: str = "",
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self.name = name
        self.labels = labels or {}
        self.help = help
        self.bucket_bounds = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0
        self.min = inf
        self.max = -inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bucket_bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @contextmanager
    def time(self):
        """Context manager observing the elapsed wall time, in seconds."""
        start = now_ns()
        try:
            yield self
        finally:
            self.observe(elapsed_s(start))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimated value at quantile ``fraction`` (0..1), interpolated.

        Within the winning bucket the distribution is assumed uniform;
        the estimate is clamped to the observed ``[min, max]`` so a
        histogram holding a single value reports that exact value at
        every quantile.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        rank = fraction * self.count
        cumulative = 0
        lower = 0.0
        for i, bucket_count in enumerate(self.bucket_counts):
            upper = (
                self.bucket_bounds[i]
                if i < len(self.bucket_bounds)
                else self.max
            )
            if cumulative + bucket_count >= rank and bucket_count > 0:
                within = (rank - cumulative) / bucket_count
                estimate = lower + within * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
            lower = upper
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument type."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def time(self):
        return self


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Holds every live instrument plus the build-phase trace log.

    Instruments are created on first request and memoized by name and
    label set; creation is guarded by a lock so concurrent threads (the
    shard service's supervisor, the serving tier) can share one registry.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self.trace_log = TraceLog()

    # -- instrument factories -------------------------------------------
    def _get(self, kind: str, name: str, labels: dict[str, str], make):
        key = (kind, name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(key, make())
        return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(
            "counter", name, labels, lambda: Counter(name, labels, help)
        )

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(
            "gauge", name, labels, lambda: Gauge(name, labels, help)
        )

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        return self._get(
            "histogram",
            name,
            labels,
            lambda: Histogram(buckets, name=name, labels=labels, help=help),
        )

    # -- tracing --------------------------------------------------------
    def trace(self, name: str, duration_s: float | None = None, **fields):
        """Append a structured :class:`TraceEvent` to the trace log."""
        return self.trace_log.record(name, duration_s=duration_s, **fields)

    @contextmanager
    def phase(self, name: str, phase: str, **fields):
        """Time a named build phase; emits a trace event on exit.

        Also feeds the ``repro_build_phase_seconds`` histogram so phase
        timings show up in both exporters.
        """
        start = now_ns()
        try:
            yield
        finally:
            elapsed = elapsed_s(start)
            self.trace(name, duration_s=elapsed, phase=phase, **fields)
            self.histogram(
                "repro_build_phase_seconds",
                help="Wall time of individual index-build phases.",
                builder=name,
                phase=phase,
            ).observe(elapsed)

    # -- introspection --------------------------------------------------
    def instruments(self) -> list:
        """Every instrument, in creation order."""
        return list(self._instruments.values())

    def snapshot(self) -> dict:
        """Plain-data view of the registry (tests, ad-hoc inspection)."""
        out: dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (kind, name, labels), inst in self._instruments.items():
            key = name if not labels else f"{name}{dict(labels)}"
            if kind == "counter":
                out["counters"][key] = inst.value
            elif kind == "gauge":
                out["gauges"][key] = inst.value
            else:
                out["histograms"][key] = {
                    "count": inst.count,
                    "sum": inst.sum,
                    "p50": inst.p50,
                    "p95": inst.p95,
                    "p99": inst.p99,
                }
        out["traces"] = [event.as_dict() for event in self.trace_log]
        return out


class NullRegistry(MetricsRegistry):
    """The default registry: every instrument is a shared no-op.

    ``enabled`` is ``False``, which instrumented call sites use to skip
    timing work entirely; anything that does call through (third-party
    code holding an instrument handle) still works, it just discards.
    """

    enabled = False

    def counter(self, name: str, help: str = "", **labels: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels: str):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=LATENCY_BUCKETS_S, help="", **labels):
        return _NULL_INSTRUMENT

    def trace(self, name: str, duration_s: float | None = None, **fields):
        return None

    def phase(self, name: str, phase: str, **fields):
        return _NULL_INSTRUMENT


def snapshot_instruments(registry: MetricsRegistry) -> list[dict]:
    """Serializable cumulative state of every live instrument.

    The worker-telemetry wire format: one plain-data document per
    instrument, shippable over a pipe and re-playable into another
    registry by :class:`repro.obs.distributed.TelemetryMerger` (which
    applies deltas, so re-shipping full snapshots never double counts).
    Zero-valued counters and empty histograms are omitted; gauges always
    ship (an info gauge's value *is* its payload).
    """
    docs: list[dict] = []
    for (kind, name, labels), inst in list(registry._instruments.items()):
        doc: dict = {
            "kind": kind,
            "name": name,
            "labels": dict(labels),
            "help": inst.help,
        }
        if kind == "counter":
            if not inst.value:
                continue
            doc["value"] = inst.value
        elif kind == "gauge":
            doc["value"] = inst.value
        else:
            if not inst.count:
                continue
            doc.update(
                bounds=list(inst.bucket_bounds),
                bucket_counts=list(inst.bucket_counts),
                count=inst.count,
                sum=inst.sum,
                min=inst.min,
                max=inst.max,
            )
        docs.append(doc)
    return docs


def reset_instruments(registry: MetricsRegistry) -> None:
    """Zero every instrument *in place*, keeping existing handles valid.

    A forked worker inherits the coordinator's registry object along
    with the instrument handles its index resolved at build time; this
    resets the inherited totals (they belong to the parent) without
    invalidating those handles, so the worker's subsequent snapshots
    contain only what it observed itself.
    """
    for inst in registry.instruments():
        if isinstance(inst, Histogram):
            inst.bucket_counts = [0] * len(inst.bucket_counts)
            inst.count = 0
            inst.sum = 0.0
            inst.min = inf
            inst.max = -inf
        elif isinstance(inst, Counter):
            inst.value = 0
        elif isinstance(inst, Gauge):
            inst.value = 0.0


_registry: MetricsRegistry = NullRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (a no-op :class:`NullRegistry` by default)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide registry; returns it."""
    global _registry
    _registry = registry
    return _registry


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Turn metrics collection on; returns the active registry.

    Call *before* building indexes — instrument handles are resolved at
    :meth:`build` time.
    """
    return set_registry(registry if registry is not None else MetricsRegistry())


def disable_metrics() -> None:
    """Restore the zero-cost no-op registry."""
    set_registry(NullRegistry())


@contextmanager
def metrics_enabled(registry: MetricsRegistry | None = None):
    """Scoped :func:`enable_metrics`; restores the previous registry."""
    previous = get_registry()
    active = enable_metrics(registry)
    try:
        yield active
    finally:
        set_registry(previous)
