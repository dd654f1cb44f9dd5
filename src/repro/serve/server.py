"""The asyncio serving tier: query traffic over HTTP, coalesced.

A single-threaded asyncio event loop (run on a daemon thread so
synchronous code can embed it) accepts keep-alive HTTP/1.1 connections
and serves:

* ``GET /reach?u=..&v=..[&deadline_ms=..]`` — one pair, answered
  through the request coalescer: concurrent requests within the
  configured window share one vectorized ``query_many`` cut pass (see
  :mod:`repro.serve.coalescer`).  ``deadline_ms`` maps to a per-request
  wall-clock :class:`~repro.resilience.QueryBudget`; a deadline-degraded
  answer renders as an ``unknown`` verdict or a structured 504 per
  ``config.on_deadline``;
* ``POST /reach_many`` — ``{"pairs": [[u, v], ...]}`` plus an optional
  ``"deadline_ms"``, joining the same pending batch as the single-pair
  traffic (deadline-carrying requests batch separately, per budget);
* ``GET /metrics`` / ``GET /healthz`` / ``GET /slow`` — the
  observability triad, so one port serves both traffic and scrapes.

Admission control is wired to the resilience layer: beyond
``config.max_inflight`` admitted pairs, requests are shed with a
structured 503 + ``Retry-After`` (or degraded to ``unknown`` verdicts,
per ``config.overload``), and an optional ``config.budget`` guards every
admitted query.  ``stop()`` drains gracefully: queued requests get their
real answers, requests arriving during the drain get a structured 503 —
no admitted request is ever dropped without a response body.

Lifecycle contract: ``start()`` on a running server raises
``RuntimeError``; ``start()`` after ``stop()`` binds a fresh socket and
serves again (with ``port=0`` the rebind may pick a different port);
``stop()`` is idempotent.

No dependencies beyond the standard library — the container bakes in no
web framework, and the interesting work (the coalescer, the engine) is
ours anyway.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, urlsplit

from repro.obs.distributed import recent_traces, trace_payload
from repro.obs.export import to_prometheus
from repro.obs.metrics import get_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import (
    format_trace_id,
    get_tracer,
    new_trace_id,
    parse_trace_id,
)
from repro.obs.timing import elapsed_s, now_ns
from repro.resilience.budget import UNKNOWN, QueryBudget
from repro.serve.coalescer import Coalescer, CoalescerClosed
from repro.serve.config import ServeConfig
from repro.serve.results import ReachResult

__all__ = ["ReachServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def slow_log_payload(log: SlowQueryLog | None) -> dict:
    """The ``/slow`` JSON document for a slow-query log (or ``None``)."""
    if log is None:
        return {"records": [], "observed": 0}
    return {
        "mode": log.mode,
        "capacity": log.capacity,
        "threshold_ns": log.threshold_ns,
        "observed": log.observed,
        "records": log.as_dicts(),
    }


class _HTTPError(Exception):
    """Internal: abort request processing with a structured response."""

    def __init__(self, status: int, error: str, **fields) -> None:
        super().__init__(error)
        self.status = status
        self.body = {"error": error, **fields}
        self.headers: dict[str, str] = {}


class ReachServer:
    """Serve reachability query traffic from an asyncio event loop.

    Parameters
    ----------
    oracle:
        A :class:`repro.Reachability` (or any object exposing
        ``reachable_many(pairs, budget=None)`` — a bare index's
        ``query_many`` works too) plus ``graph.num_vertices`` for
        request validation.  The oracle's own configuration decides the
        engine details: attach a ``SearchPool`` / slow log to it before
        serving.
    config:
        A :class:`~repro.serve.config.ServeConfig`; defaults throughout.
    registry:
        Metrics registry backing ``/metrics``; defaults to the live
        process-wide registry at scrape time.
    slow_log:
        The slow-query log backing ``/slow`` (``None`` serves an empty
        document).
    """

    def __init__(
        self,
        oracle,
        config: ServeConfig | None = None,
        registry=None,
        slow_log=None,
    ) -> None:
        self.oracle = oracle
        self.config = config if config is not None else ServeConfig()
        self._registry = registry
        self.slow_log = slow_log
        answer = getattr(oracle, "reachable_many", None)
        self._answer = answer if answer is not None else oracle.query_many
        self._num_vertices = oracle.graph.num_vertices
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self.coalescer: Coalescer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._address: tuple[str, int] | None = None
        self._draining = False
        self._inflight = 0
        self._active_requests = 0
        self._idle: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started: threading.Event | None = None
        self._startup_error: BaseException | None = None

    # -- metrics helpers ------------------------------------------------
    @property
    def registry(self):
        """The registry ``/metrics`` serves (live lookup when unset)."""
        return self._registry if self._registry is not None else get_registry()

    def _count_request(self, endpoint: str, status: int) -> None:
        registry = self.registry
        if registry.enabled:
            registry.counter(
                "repro_serve_requests_total",
                help="HTTP requests served, by endpoint and status.",
                endpoint=endpoint,
                status=str(status),
            ).inc()

    def _set_inflight(self, delta: int) -> None:
        self._inflight += delta
        registry = self.registry
        if registry.enabled:
            registry.gauge(
                "repro_serve_inflight",
                help="Pairs admitted and not yet answered.",
            ).set(self._inflight)

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the server thread is live."""
        return self._thread is not None

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``); last bound if stopped."""
        if self._address is None:
            raise RuntimeError("ReachServer has not been started yet")
        return self._address[1]

    @property
    def url(self) -> str:
        if self._address is None:
            raise RuntimeError("ReachServer has not been started yet")
        return f"http://{self._address[0]}:{self._address[1]}"

    def start(self) -> "ReachServer":
        """Bind and serve from a daemon thread; returns ``self``.

        Raises ``RuntimeError`` if already running.  After a ``stop()``
        the next ``start()`` binds a fresh socket (a new ephemeral port
        when the configured port is ``0``).
        """
        if self._thread is not None:
            raise RuntimeError(
                "ReachServer is already running; stop() it before "
                "calling start() again"
            )
        self._draining = False
        self._startup_error = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-reach-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            self._thread = None
            raise self._startup_error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._open())
        except BaseException as exc:  # noqa: BLE001 — surfaced in start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
            # Let cancellations and transport teardowns settle.
            loop.run_until_complete(asyncio.sleep(0))
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()

    async def _open(self) -> None:
        # One executor thread, deliberately: an index is not safe for
        # concurrent querying (budget guard + stats are instance state),
        # so all engine calls serialize here while the loop handles I/O.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-query"
        )
        self._idle = asyncio.Event()
        self._idle.set()
        self.coalescer = Coalescer(
            self._answer_batch,
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
            executor=self._executor,
            registry_fn=lambda: self.registry,
        )
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])

    def _answer_batch(self, pairs, budget=None):
        effective = budget if budget is not None else self.config.budget
        return self._answer(pairs, budget=effective)

    def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` (default) answer what was admitted.

        Queued/coalesced requests get their real answers and requests
        arriving during the drain get a structured 503; connections
        still idle after ``config.drain_timeout_s`` are closed.
        Idempotent.
        """
        if self._thread is None:
            return
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(drain), self._loop
        )
        try:
            future.result(timeout=self.config.drain_timeout_s + 10)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            executor = self._executor
            if executor is not None:
                executor.shutdown(wait=False)
            self._thread = None
            self._loop = None
            self._server = None
            self.coalescer = None
            self._executor = None
            self._inflight = 0

    async def _shutdown(self, drain: bool) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        timeout = self.config.drain_timeout_s
        if drain and self.coalescer is not None:
            try:
                await asyncio.wait_for(self.coalescer.drain(), timeout)
            except asyncio.TimeoutError:
                pass
        elif self.coalescer is not None:
            self.coalescer.close()
        if drain and self._active_requests:
            # In-flight requests finish writing their responses.
            try:
                await asyncio.wait_for(self._idle.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    def __enter__(self) -> "ReachServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        where = self.url if self._address is not None else "unbound"
        return f"<ReachServer {where} {state}>"

    # -- connection handling --------------------------------------------
    def _begin_request(self) -> None:
        self._active_requests += 1
        self._idle.clear()

    def _end_request(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0:
            self._idle.set()

    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    header = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ConnectionError,
                ):
                    break
                self._begin_request()
                try:
                    payload, close = await self._serve_request(header, reader)
                    writer.write(payload)
                    await writer.drain()
                except ConnectionError:
                    break
                finally:
                    self._end_request()
                if close or self._draining:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_request(self, header: bytes, reader) -> tuple[bytes, bool]:
        started = now_ns()
        try:
            method, target, http_version, headers = self._parse_header(header)
        except _HTTPError as exc:
            return self._render(
                "malformed", 400, exc.body, close=True, started=started
            )
        close = (
            headers.get("connection", "").lower() == "close"
            or http_version == "HTTP/1.0"
        )
        parts = urlsplit(target)
        endpoint = parts.path
        tracer = get_tracer()
        # One trace per admitted request, minted at the HTTP edge; every
        # span below — coalescer queue, flush, engine, shard RPCs, even
        # worker-process spans stitched back in — inherits this id.
        trace_id = new_trace_id() if tracer.enabled else None
        try:
            body = None
            if method == "POST":
                body = await self._read_body(headers, reader)
            with tracer.span(
                "serve.request", trace_id=trace_id, endpoint=endpoint
            ):
                status, doc, content_type, extra = await self._route(
                    method, endpoint, parts.query, body
                )
            if trace_id is not None:
                extra = {**extra, "X-Trace-Id": format_trace_id(trace_id)}
        except _HTTPError as exc:
            return self._render(
                endpoint, exc.status, exc.body, close=close,
                started=started, extra=exc.headers,
            )
        except CoalescerClosed:
            return self._render(
                endpoint, 503, {"error": "draining"}, close=True,
                started=started,
            )
        except BaseException as exc:  # noqa: BLE001 — never drop silently
            return self._render(
                endpoint, 500,
                {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"},
                close=close, started=started,
            )
        return self._render(
            endpoint, status, doc, content_type=content_type,
            close=close, started=started, extra=extra,
        )

    def _parse_header(self, header: bytes):
        try:
            text = header.decode("latin-1")
            request_line, *header_lines = text.split("\r\n")
            method, target, http_version = request_line.split(" ", 2)
        except ValueError:
            raise _HTTPError(400, "bad-request", detail="malformed request line")
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, http_version.strip(), headers

    async def _read_body(self, headers: dict, reader) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HTTPError(400, "bad-request", detail="bad Content-Length")
        if length > self.config.max_body_bytes:
            raise _HTTPError(
                413, "payload-too-large",
                limit_bytes=self.config.max_body_bytes,
            )
        if length <= 0:
            return b""
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _HTTPError(400, "bad-request", detail="truncated body")

    # -- routing --------------------------------------------------------
    def _health_doc(self) -> dict:
        """The ``/healthz`` body: liveness plus build/topology info."""
        import repro

        oracle = self.oracle
        index = getattr(oracle, "index", None)
        method = getattr(
            index if index is not None else oracle, "method_name", None
        )
        doc = {
            "status": "draining" if self._draining else "ok",
            "version": getattr(repro, "__version__", "unknown"),
            "index": method if method is not None else type(oracle).__name__,
            "tracing": get_tracer().enabled,
        }
        observers = getattr(
            getattr(index if index is not None else oracle,
                    "_observers", None),
            "k", None,
        )
        if observers is None:
            observers = getattr(
                getattr(oracle, "config", None), "observers", None
            )
        if observers is not None:
            doc["observers_k"] = observers
        target = index if index is not None else oracle
        backend = getattr(target, "kernel_backend", None)
        if backend is not None:
            doc["kernel_backend"] = backend
        pages = getattr(target, "shared_pages", None)
        doc["shared_pages"] = bool(pages is not None and not pages.closed)
        num_shards = getattr(oracle, "num_shards", None)
        if num_shards is not None:
            doc["shards"] = num_shards
            alive = getattr(oracle, "alive_workers", None)
            if callable(alive):
                doc["workers_alive"] = alive()
        return doc

    def _route_trace(self, query: str):
        """``/trace``: recent trace summaries, or one stitched tree."""
        tracer = get_tracer()
        params = parse_qs(query)
        raw = params.get("trace_id", [None])[0]
        if raw is None:
            doc = {"enabled": tracer.enabled, "traces": recent_traces(tracer)}
            return 200, doc, "application/json", {}
        try:
            trace_id = parse_trace_id(raw)
        except ValueError:
            raise _HTTPError(
                400, "bad-request",
                detail=f"unparseable trace_id {raw!r}",
            )
        return 200, trace_payload(tracer, trace_id), "application/json", {}

    async def _route(self, method: str, path: str, query: str, body):
        if path == "/healthz":
            status = 503 if self._draining else 200
            return status, self._health_doc(), "application/json", {}
        if path == "/metrics":
            return 200, to_prometheus(self.registry), \
                "text/plain; version=0.0.4", {}
        if path == "/slow":
            doc = json.dumps(slow_log_payload(self.slow_log), indent=2)
            return 200, doc + "\n", "application/json", {}
        if path == "/trace":
            return self._route_trace(query)
        if path == "/reach":
            if method != "GET":
                raise _HTTPError(405, "method-not-allowed", method=method)
            return await self._route_reach(query)
        if path == "/reach_many":
            if method != "POST":
                raise _HTTPError(405, "method-not-allowed", method=method)
            return await self._route_reach_many(body)
        raise _HTTPError(404, "not-found", path=path)

    def _check_vertex(self, value, name: str) -> int:
        try:
            vertex = int(value)
        except (TypeError, ValueError):
            raise _HTTPError(
                400, "bad-request",
                detail=f"parameter {name!r} must be an integer",
            )
        if not 0 <= vertex < self._num_vertices:
            raise _HTTPError(
                400, "invalid-vertex",
                vertex=vertex, num_vertices=self._num_vertices,
            )
        return vertex

    def _admit(self, pairs: int):
        """Admission control; returns ``None`` or an overload response."""
        if self._draining:
            raise _HTTPError(503, "draining")
        if self._inflight + pairs <= self.config.max_inflight:
            return None
        registry = self.registry
        if registry.enabled:
            registry.counter(
                "repro_serve_shed_total",
                help="Requests refused or degraded by admission control.",
                policy=self.config.overload,
            ).inc()
        if self.config.overload == "unknown":
            return "unknown"
        error = _HTTPError(
            503, "overloaded",
            inflight=self._inflight,
            max_inflight=self.config.max_inflight,
            retry_after_ms=self.config.retry_after_ms,
        )
        error.headers["Retry-After"] = str(
            max(1, math.ceil(self.config.retry_after_ms / 1000))
        )
        raise error

    def _parse_deadline(self, value):
        """Validate an optional ``deadline_ms`` (query param or JSON)."""
        if value is None:
            return None
        try:
            deadline = float(value)
        except (TypeError, ValueError):
            deadline = math.nan
        if not math.isfinite(deadline) or deadline <= 0:
            raise _HTTPError(
                400, "bad-request",
                detail="deadline_ms must be a positive number of "
                "milliseconds",
            )
        return deadline

    @staticmethod
    def _deadline_budget(deadline_ms):
        """The per-request budget a ``deadline_ms`` maps to: a pure
        wall-clock deadline that degrades to ``unknown`` — HTTP wire
        policy (``on_deadline``) decides how that renders."""
        if deadline_ms is None:
            return None
        return QueryBudget(deadline_s=deadline_ms / 1000.0, policy="unknown")

    async def _route_reach(self, query: str):
        params = parse_qs(query)
        u = self._check_vertex(params.get("u", [None])[0], "u")
        v = self._check_vertex(params.get("v", [None])[0], "v")
        deadline_ms = self._parse_deadline(
            params.get("deadline_ms", [None])[0]
        )
        if self._admit(1) == "unknown":
            result = ReachResult(
                u=u, v=v, answer=None, verdict="unknown",
                stats={"degraded": "overload"},
            )
            return 200, result.as_dict(), "application/json", {}
        self._set_inflight(1)
        try:
            answer = await self.coalescer.submit(
                u, v, budget=self._deadline_budget(deadline_ms)
            )
        finally:
            self._set_inflight(-1)
        if (
            answer is UNKNOWN
            and deadline_ms is not None
            and self.config.on_deadline == "gateway-timeout"
        ):
            raise _HTTPError(
                504, "deadline-exceeded", u=u, v=v, deadline_ms=deadline_ms
            )
        result = ReachResult.from_answer(u, v, answer)
        return 200, result.as_dict(), "application/json", {}

    async def _route_reach_many(self, body: bytes):
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HTTPError(400, "bad-request", detail="body is not JSON")
        pairs_in = doc.get("pairs") if isinstance(doc, dict) else None
        deadline_ms = self._parse_deadline(
            doc.get("deadline_ms") if isinstance(doc, dict) else None
        )
        if not isinstance(pairs_in, list):
            raise _HTTPError(
                400, "bad-request",
                detail='body must be {"pairs": [[u, v], ...]}',
            )
        pairs = []
        for entry in pairs_in:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise _HTTPError(
                    400, "bad-request",
                    detail=f"each pair must be [u, v], got {entry!r}",
                )
            pairs.append(
                (self._check_vertex(entry[0], "u"),
                 self._check_vertex(entry[1], "v"))
            )
        if not pairs:
            return 200, {"results": [], "count": 0}, "application/json", {}
        if self._admit(len(pairs)) == "unknown":
            results = [
                ReachResult(
                    u=u, v=v, answer=None, verdict="unknown",
                    stats={"degraded": "overload"},
                ).as_dict()
                for u, v in pairs
            ]
            return 200, {"results": results, "count": len(results)}, \
                "application/json", {}
        self._set_inflight(len(pairs))
        try:
            answers = await self.coalescer.submit_many(
                pairs, budget=self._deadline_budget(deadline_ms)
            )
        finally:
            self._set_inflight(-len(pairs))
        if (
            deadline_ms is not None
            and self.config.on_deadline == "gateway-timeout"
            and all(answer is UNKNOWN for answer in answers)
        ):
            # Partial batches still return 200 with per-pair verdicts;
            # only a wholesale deadline blowout is a gateway timeout.
            raise _HTTPError(
                504, "deadline-exceeded",
                deadline_ms=deadline_ms, pairs=len(pairs),
            )
        results = [
            ReachResult.from_answer(u, v, answer).as_dict()
            for (u, v), answer in zip(pairs, answers)
        ]
        return 200, {"results": results, "count": len(results)}, \
            "application/json", {}

    # -- response rendering ---------------------------------------------
    def _render(
        self,
        endpoint: str,
        status: int,
        doc,
        content_type: str = "application/json",
        close: bool = False,
        started: int | None = None,
        extra: dict | None = None,
    ) -> tuple[bytes, bool]:
        if isinstance(doc, (dict, list)):
            body = (json.dumps(doc) + "\n").encode("utf-8")
        else:
            body = doc.encode("utf-8") if isinstance(doc, str) else doc
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close or self._draining else 'keep-alive'}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        self._count_request(endpoint, status)
        registry = self.registry
        if registry.enabled and started is not None:
            registry.histogram(
                "repro_serve_request_seconds",
                help="Server-side request latency, by endpoint.",
                endpoint=endpoint,
            ).observe(elapsed_s(started))
        return payload, close or self._draining
