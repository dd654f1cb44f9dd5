"""Closed- and open-loop load generation against the serving tier.

"Millions of users" is a slogan until a load generator turns it into a
measured number.  This module drives a running
:class:`~repro.serve.server.ReachServer` (or any HTTP endpoint speaking
the same protocol) with one of the two classic workload models:

* **closed** — ``concurrency`` workers issue requests back-to-back over
  keep-alive connections; throughput is bounded by server latency (the
  model behind most benchmark suites);
* **open** — requests *arrive* on a fixed schedule (``rate`` per
  second), regardless of how fast the server answers; latency is
  measured from the scheduled arrival, so server-side queueing shows up
  honestly (the model real traffic follows — and the one that exposes
  coordinated omission).

Each run reports throughput, latency percentiles (p50/p95/p99), SLO
attainment against ``slo_ms``, per-status counts, and — scraped from
``/metrics`` after the run — the server's coalesce batch-size and
queue-wait histograms, so the coalescing win is visible in the same
JSON document.  :func:`compare_serving` boots the same oracle behind a
baseline (``max_batch=1``) and a coalesced server and measures both;
the CLI's ``repro loadgen --compare`` and the committed
``benchmarks/BENCH_pr6.json`` artifact are that comparison.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Sequence
from urllib.parse import urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.serve.config import ServeConfig
from repro.serve.server import ReachServer

__all__ = [
    "run_loadgen",
    "compare_serving",
    "measure_serving",
    "calibrate_ms",
    "percentile",
]


def calibrate_ms(rounds: int = 3, n: int = 2_000_000) -> float:
    """Milliseconds for a fixed pure-Python busy loop (best of rounds).

    The machine-speed yardstick shared with the bench smoke: committed
    artifacts carry it so CI can compare normalized throughput across
    differently-sized runners (``benchmarks/check_serving.py``).
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i
        best = min(best, time.perf_counter() - start)
    return 1000 * best


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending sequence, interpolated."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return float(
        sorted_values[lower] * (1 - fraction) + sorted_values[upper] * fraction
    )


class _Client:
    """A minimal keep-alive HTTP/1.1 client on asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = self._writer = None

    async def get(self, path: str) -> tuple[int, bytes]:
        """One GET on the persistent connection; reconnects when dropped."""
        if self._writer is None:
            await self.connect()
        request = (
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(request)
        await self._writer.drain()
        header = await self._reader.readuntil(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        keep_alive = True
        for line in lines[1:]:
            name, _, value = line.partition(":")
            key = name.strip().lower()
            if key == "content-length":
                length = int(value.strip())
            elif key == "connection" and value.strip().lower() == "close":
                keep_alive = False
        body = await self._reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, body


def _resolve_target(target) -> tuple[str, int]:
    """``host:port`` from a URL string or a running ``ReachServer``."""
    if isinstance(target, ReachServer):
        return target.config.host, target.port
    parts = urlsplit(target if "//" in target else f"http://{target}")
    if parts.hostname is None or parts.port is None:
        raise ValueError(f"loadgen target needs host and port, got {target!r}")
    return parts.hostname, parts.port


async def _run_async(
    host: str,
    port: int,
    pairs: Sequence[tuple[int, int]],
    *,
    mode: str,
    concurrency: int,
    rate: float | None,
    duration_s: float,
    max_requests: int | None,
    slo_ms: float,
) -> dict:
    latencies_ms: list[float] = []
    statuses: dict[str, int] = {}
    errors = 0
    issued = 0
    quota = max_requests if max_requests is not None else float("inf")
    started = time.perf_counter()
    deadline = started + duration_s

    def take_pair() -> tuple[int, int]:
        nonlocal issued
        u, v = pairs[issued % len(pairs)]
        issued += 1
        return u, v

    async def one_request(client: _Client, begun: float) -> None:
        nonlocal errors
        u, v = take_pair()
        try:
            status, _ = await client.get(f"/reach?u={u}&v={v}")
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            errors += 1
            await client.close()
            return
        latencies_ms.append(1000 * (time.perf_counter() - begun))
        statuses[str(status)] = statuses.get(str(status), 0) + 1

    if mode == "closed":
        async def worker() -> None:
            client = _Client(host, port)
            try:
                while time.perf_counter() < deadline and issued < quota:
                    await one_request(client, time.perf_counter())
            finally:
                await client.close()

        await asyncio.gather(*(worker() for _ in range(concurrency)))
    elif mode == "open":
        if not rate or rate <= 0:
            raise ValueError("open-loop mode needs rate > 0 requests/second")
        arrivals: asyncio.Queue = asyncio.Queue()
        total = int(duration_s * rate)
        if max_requests is not None:
            total = min(total, max_requests)
        for k in range(total):
            arrivals.put_nowait(started + k / rate)
        for _ in range(concurrency):
            arrivals.put_nowait(None)  # poison pill per worker

        async def worker() -> None:
            client = _Client(host, port)
            try:
                while True:
                    scheduled = await arrivals.get()
                    if scheduled is None:
                        return
                    delay = scheduled - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    # Latency from the *scheduled* arrival: client-side
                    # queueing counts (no coordinated omission).
                    await one_request(client, scheduled)
            finally:
                await client.close()

        await asyncio.gather(*(worker() for _ in range(concurrency)))
    else:
        raise ValueError(f"unknown loadgen mode {mode!r}; use closed|open")

    elapsed = max(time.perf_counter() - started, 1e-9)
    metrics_text = ""
    scrape = _Client(host, port)
    try:
        _, body = await scrape.get("/metrics")
        metrics_text = body.decode("utf-8", errors="replace")
    except (ConnectionError, asyncio.IncompleteReadError, OSError):
        pass
    finally:
        await scrape.close()
    return _report(
        mode, concurrency, rate, elapsed, latencies_ms, statuses, errors,
        metrics_text, slo_ms,
    )


def _hist_stats(metrics_text: str, name: str) -> dict | None:
    """``{count, sum, mean}`` of a histogram in Prometheus text, or None."""
    total = count = 0.0
    seen = False
    for line in metrics_text.splitlines():
        if line.startswith(f"{name}_sum"):
            total += float(line.rsplit(" ", 1)[1])
            seen = True
        elif line.startswith(f"{name}_count"):
            count += float(line.rsplit(" ", 1)[1])
    if not seen:
        return None
    return {
        "count": count,
        "sum": total,
        "mean": (total / count) if count else 0.0,
    }


def _report(
    mode, concurrency, rate, elapsed, latencies_ms, statuses, errors,
    metrics_text, slo_ms,
) -> dict:
    ordered = sorted(latencies_ms)
    requests = len(ordered)
    report = {
        "mode": mode,
        "concurrency": concurrency,
        "rate_rps": rate,
        "duration_s": round(elapsed, 4),
        "requests": requests,
        "errors": errors,
        "status": statuses,
        "throughput_rps": round(requests / elapsed, 2),
        "latency_ms": {
            "p50": round(percentile(ordered, 0.50), 3),
            "p95": round(percentile(ordered, 0.95), 3),
            "p99": round(percentile(ordered, 0.99), 3),
            "mean": round(sum(ordered) / requests, 3) if requests else 0.0,
            "max": round(ordered[-1], 3) if ordered else 0.0,
        },
        "slo_ms": slo_ms,
        "slo_attainment": (
            round(sum(1 for ms in ordered if ms <= slo_ms) / requests, 4)
            if requests
            else None
        ),
    }
    batch = _hist_stats(metrics_text, "repro_serve_coalesce_batch_size")
    wait = _hist_stats(metrics_text, "repro_serve_queue_wait_seconds")
    report["server"] = {
        "coalesce_batch_size": batch,
        "queue_wait_seconds": wait,
        "histograms_present": batch is not None and wait is not None,
    }
    return report


def run_loadgen(
    target,
    pairs: Sequence[tuple[int, int]],
    *,
    mode: str = "closed",
    concurrency: int = 8,
    rate: float | None = None,
    duration_s: float = 2.0,
    max_requests: int | None = None,
    slo_ms: float = 50.0,
) -> dict:
    """Drive ``target`` with ``pairs`` and return the latency report.

    ``target`` is a running :class:`ReachServer` or a ``host:port`` /
    URL string.  Pairs are issued round-robin (deterministic given the
    list).  The report includes ``slo_attainment`` — the fraction of
    requests at or under ``slo_ms``.
    """
    host, port = _resolve_target(target)
    return asyncio.run(
        _run_async(
            host, port, list(pairs),
            mode=mode, concurrency=concurrency, rate=rate,
            duration_s=duration_s, max_requests=max_requests,
            slo_ms=slo_ms,
        )
    )


def measure_serving(
    oracle,
    pairs: Sequence[tuple[int, int]],
    config: ServeConfig,
    *,
    mode: str = "closed",
    concurrency: int = 8,
    rate: float | None = None,
    duration_s: float = 2.0,
    max_requests: int | None = None,
    slo_ms: float = 50.0,
    warmup_s: float = 0.3,
) -> dict:
    """Measure ``oracle`` behind one :class:`ReachServer` with ``config``.

    The server gets its own fresh :class:`MetricsRegistry`, so the
    scraped histograms describe exactly this run.  A closed-loop warmup
    of ``warmup_s`` seconds (at most 4 connections) precedes the
    measured :func:`run_loadgen` drive, whose report is returned.
    """
    server = ReachServer(oracle, config, registry=MetricsRegistry())
    server.start()
    try:
        if warmup_s > 0:
            run_loadgen(
                server, pairs, mode="closed",
                concurrency=min(concurrency, 4), duration_s=warmup_s,
                slo_ms=slo_ms,
            )
        return run_loadgen(
            server, pairs, mode=mode, concurrency=concurrency,
            rate=rate, duration_s=duration_s,
            max_requests=max_requests, slo_ms=slo_ms,
        )
    finally:
        server.stop()


def compare_serving(
    oracle,
    pairs: Sequence[tuple[int, int]],
    *,
    config: ServeConfig | None = None,
    mode: str = "closed",
    concurrency: int = 8,
    rate: float | None = None,
    duration_s: float = 2.0,
    max_requests: int | None = None,
    slo_ms: float = 50.0,
    warmup_s: float = 0.3,
) -> dict:
    """Measure the same oracle behind a baseline and a coalesced server.

    Boots two :class:`ReachServer` instances sequentially — ``baseline``
    with coalescing disabled (``max_batch=1``, ``max_wait_ms=0``: one
    engine call per request) and ``coalesced`` with the given config —
    each measured by :func:`measure_serving`.  Returns ``{"runs": [...]}``
    with one labeled report per server.
    """
    config = config if config is not None else ServeConfig()
    legs = [
        ("baseline", ServeConfig(
            host=config.host, port=0, max_batch=1, max_wait_ms=0.0,
            max_inflight=config.max_inflight, overload=config.overload,
            budget=config.budget,
        )),
        ("coalesced", ServeConfig(
            host=config.host, port=0, max_batch=config.max_batch,
            max_wait_ms=config.max_wait_ms,
            max_inflight=config.max_inflight, overload=config.overload,
            budget=config.budget,
        )),
    ]
    runs = []
    for label, leg_config in legs:
        report = measure_serving(
            oracle, pairs, leg_config, mode=mode, concurrency=concurrency,
            rate=rate, duration_s=duration_s, max_requests=max_requests,
            slo_ms=slo_ms, warmup_s=warmup_s,
        )
        report["label"] = label
        report["config"] = {
            "max_batch": leg_config.max_batch,
            "max_wait_ms": leg_config.max_wait_ms,
            "max_inflight": leg_config.max_inflight,
            "overload": leg_config.overload,
        }
        runs.append(report)
    return {"runs": runs}
