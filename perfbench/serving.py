"""Server layers: ``repro serve`` and ``repro shard-serve`` over HTTP.

Part of the traced run of ``batch-cut``: the servers run as operators
start them, through their CLI with default settings, on the same
go-uniprot stand-in.  The benchmark is the client: an asyncio HTTP/1.1
client over two keep-alive connections (``nproc`` on the reference box)
sending an open loop at a fixed rate of mixed ``GET /reach`` singles and
small ``POST /reach_many`` bodies, a share of them with ``deadline_ms``,
timed from each request's scheduled send time.  It drives ``repro serve``
without and with ``--trace``, then ``repro shard-serve --shards 2`` with
``--trace``, and reads each server's ``/metrics``.

Every answer is checked against a BFS oracle on the original graph.
Servers are stopped with SIGINT; afterwards no child process, new
``/dev/shm`` segment or listening port may remain, and anything left is
reported and removed.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time

import numpy as np

from common import (
    ROOT,
    WORK,
    Oracle,
    Result,
    WrongAnswer,
    alive,
    calibrate_cpus,
    descendants,
    make_graph_file,
    make_pairs,
    percentile,
    speed_factor,
)

GRAPH = ("go-uniprot", 0.01)
SERVER_ARGS = {
    "serve": ["serve"],
    "shard-serve": ["shard-serve", "--shards", "2"],
}
CONNECTIONS = 2
POOL_PAIRS = 4096      # distinct oracle-checked pairs the traffic draws from
OPEN_RATE = 400.0      # requests/s offered by the open loop
SCHEDULE_REQUESTS = 1000  # open-loop requests, sent in turn
OPEN_MANY_SHARE = 0.25  # share of open-loop requests that are /reach_many
OPEN_MANY_PAIRS = 16
DEADLINE_SHARE = 0.25  # share of open-loop requests carrying deadline_ms
DEADLINE_MS = 1000.0
OPEN_WINDOW_S = 0.5
PROBE_SHARE = 0.1      # share of /healthz round-trip probes
SPAWN_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


# -- inputs ----------------------------------------------------------------
def prepare(workload: str, seed: int, tiny: bool = False):
    """Write the graph and the pair pool; return paths and oracle answers."""
    from common import import_repro

    import_repro()
    from repro.graph.io import read_edge_list

    name, scale = GRAPH
    if tiny:
        scale = scale / 50
    graph_path, _ = make_graph_file(name, scale, seed, workload)
    graph = read_edge_list(graph_path)
    pairs = make_pairs(graph.num_vertices, POOL_PAIRS, seed)
    pairs_path = WORK / f"{workload}-{seed}.pairs.npy"
    np.save(pairs_path, pairs)
    oracle = Oracle(graph)
    truth = [oracle.reachable(int(u), int(v)) for u, v in pairs]
    return graph_path, pairs.tolist(), truth


def _schedule(seed: int, count: int, probe_share: float = 0.0):
    """Open-loop requests: (kind, pool indexes, carries deadline).

    With ``probe_share``, that share of the requests are no-op ``GET
    /healthz`` probes (kind ``"probe"``) that time the HTTP round trip.
    """
    rng = np.random.default_rng([seed, 0x0BE7])
    out = []
    for _ in range(count):
        if probe_share and rng.random() < probe_share:
            out.append(("probe", [], False))
            continue
        many = rng.random() < OPEN_MANY_SHARE
        size = OPEN_MANY_PAIRS if many else 1
        picks = rng.integers(0, POOL_PAIRS, size=size).tolist()
        out.append(("many" if many else "one", picks, rng.random() < DEADLINE_SHARE))
    return out


# -- process lifecycle -------------------------------------------------------
def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class Server:
    """One spawned server process and what it must leave behind: nothing."""

    def __init__(self, workload: str, graph_path, tag: str, traced: bool = False):
        self.workload = workload
        self.log_path = WORK / f"{tag}.log"
        self._shm_before = _shm_names()
        args = [sys.executable, "-m", "repro.cli", *SERVER_ARGS[workload],
                str(graph_path)]
        if traced:
            args.append("--trace")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            args, stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=str(ROOT),
        )
        self.host, self.port = None, None
        self.descendants: set[int] = set()

    def wait_ready(self) -> None:
        """Block until the server prints its URL and answers /healthz."""
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        pattern = re.compile(r"http://([0-9.]+):(\d+)")
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"{self.workload} did not start:\n{self.log_path.read_text()}"
                )
            match = pattern.search(self.log_path.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.005)
        status, body = http_get(self.host, self.port, "/healthz")
        if status != 200 or json.loads(body).get("status") != "ok":
            raise RuntimeError(f"/healthz answered {status}: {body[:200]!r}")
        self.descendants = descendants(self.proc.pid)

    def stop(self) -> dict:
        """SIGINT, wait, then report (and clear) anything left behind."""
        self.descendants |= descendants(self.proc.pid)
        report = {"forced_kill": False, "leaked_pids": 0, "leaked_shm": [],
                  "port_open": False}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                report["forced_kill"] = True
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(alive(p) for p in self.descendants):
            time.sleep(0.02)
        leaked = [p for p in self.descendants if alive(p)]
        report["leaked_pids"] = len(leaked)
        for pid in leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in leaked:
            while alive(pid):
                time.sleep(0.01)
        for name in sorted(_shm_names() - self._shm_before):
            report["leaked_shm"].append(name)
            try:
                os.unlink(f"/dev/shm/{name}")
            except OSError:
                pass
        if self.port is not None:
            with socket.socket() as sock:
                report["port_open"] = sock.connect_ex((self.host, self.port)) == 0
        self._log.close()
        if any((report["forced_kill"], leaked, report["leaked_shm"],
                report["port_open"])):
            print(f"perfbench: {self.workload} teardown left {report}",
                  file=sys.stderr)
        return report


def http_get(host: str, port: int, path: str) -> tuple[int, bytes]:
    """One blocking GET on a fresh connection."""
    async def once():
        conn = await Connection.open(host, port)
        try:
            return await conn.request("GET", path)
        finally:
            await conn.close()

    return asyncio.run(once())


# -- HTTP client -----------------------------------------------------------
class Connection:
    """A keep-alive HTTP/1.1 client connection (one request at a time)."""

    def __init__(self, reader, writer, host: str) -> None:
        self.reader, self.writer, self.host = reader, writer, host

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host)

    async def request(self, method: str, path: str, body: bytes = b""):
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n")
        if body:
            head += "Content-Type: application/json\r\n"
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        header = await self.reader.readuntil(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


class Traffic:
    """Builds requests from the pair pool and checks each response."""

    def __init__(self, pairs, truth) -> None:
        self.pairs, self.truth = pairs, truth
        self.attempted = 0      # pairs asked
        self.failed = 0         # wrong answers, failed or refused pairs
        self.unknown = 0        # UNKNOWN under a deadline (not an error)

    def request(self, picks: list[int], many: bool, deadline: bool):
        if not many:
            u, v = self.pairs[picks[0]]
            path = f"/reach?u={u}&v={v}"
            if deadline:
                path += f"&deadline_ms={DEADLINE_MS:g}"
            return "GET", path, b""
        doc = {"pairs": [self.pairs[i] for i in picks]}
        if deadline:
            doc["deadline_ms"] = DEADLINE_MS
        return "POST", "/reach_many", json.dumps(doc).encode()

    def check(self, picks, deadline: bool, status: int, body: bytes) -> None:
        self.attempted += len(picks)
        if status != 200:
            self.failed += len(picks)
            return
        doc = json.loads(body)
        results = doc["results"] if "results" in doc else [doc]
        for i, entry in zip(picks, results):
            answer = entry["answer"]
            if answer is None and deadline:
                self.unknown += 1
            elif answer is not self.truth[i]:
                self.failed += 1
                raise WrongAnswer(
                    f"r({self.pairs[i][0]}, {self.pairs[i][1]}) answered {answer}"
                )


class OpenLoop:
    """Requests sent on a fixed schedule; latency from the scheduled time.

    Keeps per-request lists: latencies rescaled to the reference speed,
    raw latencies, generator lateness and the wait for a free connection
    (all in seconds), and the client latency of ``/healthz`` probes.  The
    schedule pauses between windows while the calibration loop runs.
    """

    def __init__(self, schedule) -> None:
        self.schedule = schedule
        self.cursor = 0
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.lateness: list[float] = []
        self.waits: list[float] = []
        self.probes: list[float] = []
        self.calib_ms: list[float] = []

    async def window(self, conns, traffic) -> None:
        before = calibrate_cpus()
        queue: asyncio.Queue = asyncio.Queue()
        window_lat: list[float] = []
        perf = time.perf_counter

        async def worker(conn):
            while True:
                item = await queue.get()
                if item is None:
                    return
                due, slot = item
                kind, picks, deadline = self.schedule[slot]
                if kind == "probe":
                    sent = perf()
                    status, _ = await conn.request("GET", "/healthz")
                    self.probes.append(perf() - sent)
                    if status != 200:
                        traffic.failed += 1
                    continue
                method, path, body = traffic.request(picks, kind == "many", deadline)
                self.waits.append(perf() - due)
                status, reply = await conn.request(method, path, body)
                window_lat.append(perf() - due)
                traffic.check(picks, deadline, status, reply)

        loop = asyncio.get_running_loop()
        workers = [loop.create_task(worker(c)) for c in conns]
        t0 = perf()
        for j in range(int(OPEN_RATE * OPEN_WINDOW_S)):
            due = t0 + j / OPEN_RATE
            delay = due - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lateness.append(max(0.0, perf() - due))
            queue.put_nowait((due, self.cursor % len(self.schedule)))
            self.cursor += 1
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        chunk_ms = (before + calibrate_cpus()) / 2
        factor = speed_factor(chunk_ms)
        self.calib_ms.append(chunk_ms)
        self.latencies.extend(lat / factor for lat in window_lat)
        self.raw.extend(window_lat)


async def _drive(server: Server, traffic, seed: int, seconds: float,
                 probe_share: float) -> OpenLoop:
    """Open-loop windows for ``seconds``."""
    conns = [await Connection.open(server.host, server.port)
             for _ in range(CONNECTIONS)]
    open_loop = OpenLoop(_schedule(seed, SCHEDULE_REQUESTS, probe_share))
    # The client collects its garbage between windows, so its own pauses
    # do not show up as server latency.
    gc.collect()
    gc.disable()
    stop_at = time.perf_counter() + seconds
    try:
        while time.perf_counter() < stop_at:
            await open_loop.window(conns, traffic)
            gc.collect()
    finally:
        gc.enable()
        for conn in conns:
            await conn.close()
    return open_loop


def _spawn(workload, graph_path, tag, traced=False) -> tuple[Server, float]:
    """Spawn a server; return it and its rescaled spawn-to-healthy time."""
    gc.collect()
    before = calibrate_cpus()
    start = time.perf_counter()
    server = Server(workload, graph_path, tag, traced)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    return server, elapsed / speed_factor((before + calibrate_cpus()) / 2)


def _merge_teardowns(reports: list[dict]) -> dict:
    return {
        "servers": len(reports),
        "forced_kills": sum(r["forced_kill"] for r in reports),
        "leaked_pids": sum(r["leaked_pids"] for r in reports),
        "leaked_shm": sum(len(r["leaked_shm"]) for r in reports),
        "ports_open": sum(r["port_open"] for r in reports),
    }


# -- traced run ------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def scrape(server: Server) -> list[tuple[str, str, float]]:
    """``/metrics`` as (name, labels, value) samples."""
    status, body = http_get(server.host, server.port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out = []
    for line in body.decode().splitlines():
        match = _SAMPLE.match(line)
        if match:
            out.append((match.group(1), match.group(2) or "", float(match.group(3))))
    return out


def total(samples, name: str, label: str = "") -> float:
    return sum(v for n, labels, v in samples if n == name and label in labels)


def add_server_layers(result: Result, seed: int, seconds: float,
                      tiny: bool = False) -> None:
    """Open-loop traffic against ``serve`` without and with ``--trace``,
    then against a traced ``shard-serve --shards 2`` for the shard layer;
    puts the per-layer numbers from each server's ``/metrics`` into
    ``result`` and adds the pairs asked and failed to its counts."""
    graph_path, pairs, truth = prepare("serve", seed, tiny)
    legs = {}
    teardowns = []
    for kind, traced in (("serve", False), ("serve", True), ("shard-serve", True)):
        traffic = Traffic(pairs, truth)
        server, _ = _spawn(kind, graph_path, f"{kind}-trace{int(traced)}", traced)
        try:
            open_loop = asyncio.run(
                _drive(server, traffic, seed, seconds / 3, PROBE_SHARE))
            legs[kind, traced] = (open_loop, scrape(server), traffic)
        finally:
            teardowns.append(server.stop())

    open_loop, samples, _ = legs["serve", True]
    raw = open_loop.raw
    mean_latency = statistics.fmean(raw)
    served = total(samples, "repro_serve_request_seconds_sum", 'endpoint="/reach')
    requests = total(samples, "repro_serve_request_seconds_count", 'endpoint="/reach')
    # The coalescer's flush span covers the in-process engine call; the
    # rest of a request is serving overhead.
    flush_s = total(samples, "repro_stage_seconds_sum", 'stage="coalesce"')
    result.put("serve.overhead_ms", (mean_latency - flush_s / requests) * 1e3, "ms")
    batches = total(samples, "repro_serve_coalesce_batch_size_count")
    result.put("serve.coalesce_batch_mean",
               total(samples, "repro_serve_coalesce_batch_size_sum") / batches, "pairs")
    waits = total(samples, "repro_serve_queue_wait_seconds_count")
    result.put("serve.queue_wait_ms",
               total(samples, "repro_serve_queue_wait_seconds_sum") / waits * 1e3, "ms")
    result.put("serve.shed_share",
               total(samples, "repro_serve_shed_total") / requests, "ratio")
    overhead = (percentile(open_loop.latencies, 50)
                / percentile(legs["serve", False][0].latencies, 50)) - 1
    result.put("obs.trace_overhead", overhead, "ratio")
    # HTTP round trip outside the server's own request timer (socket,
    # kernel, event-loop wake-ups, client parsing), from the no-op probes
    # that share the connections with the traffic.
    healthz_s = (total(samples, "repro_serve_request_seconds_sum", 'endpoint="/healthz"')
                 / total(samples, "repro_serve_request_seconds_count",
                         'endpoint="/healthz"'))
    roundtrip_s = statistics.fmean(open_loop.probes) - healthz_s
    result.put("serve.http_roundtrip_ms", roundtrip_s * 1e3, "ms")
    # Client-observed time the layers account for: the wait for a free
    # connection, the HTTP round trip and the server's own request time.
    result.put("serve.coverage",
               (sum(open_loop.waits) + roundtrip_s * len(raw) + served) / sum(raw),
               "ratio")
    result.put("loadgen.lateness_ms", statistics.fmean(open_loop.lateness) * 1e3, "ms")

    _, samples, traffic = legs["shard-serve", True]
    requests = total(samples, "repro_serve_request_seconds_count", 'endpoint="/reach')
    result.put("shard.rpcs_per_request",
               total(samples, "repro_shard_rpc_total", 'outcome="ok"') / requests,
               "count")
    result.put("shard.cross_share",
               total(samples, "repro_shard_rpc_total", 'op="route_out"')
               / traffic.attempted, "ratio")
    result.put("shard.worker_restarts",
               total(samples, "repro_shard_worker_restarts_total"), "count")

    result.attempted += sum(leg[2].attempted for leg in legs.values())
    result.failed += sum(leg[2].failed for leg in legs.values())
    result.env["server_requests"] = len(raw)
    result.env["teardown"] = _merge_teardowns(teardowns)
