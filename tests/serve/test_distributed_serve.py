"""End-to-end distributed tracing through the serving tier.

A traced HTTP request earns an ``X-Trace-Id`` header, its stitched tree
is queryable at ``/trace?trace_id=``, slow-log entries join the same
trace, and ``/healthz`` reports the shard topology when the oracle is a
:class:`~repro.shard.ShardService`, whose workers' telemetry reaches
``/metrics`` under ``shard=`` labels and whose stitched trace
``repro trace --out`` exports for Perfetto.  With tracing off (the default),
none of this exists on the wire.
"""

import json
import multiprocessing
import re
import time
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro import Reachability
from repro.graph.digraph import DiGraph
from repro.cli import main
from repro.graph.generators import crown_graph
from repro.obs.metrics import MetricsRegistry, metrics_enabled
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import parse_trace_id, tracing_enabled
from repro.serve import ReachServer, ServeConfig, run_loadgen
from repro.shard import ShardConfig, ShardService

EDGES = [(0, 1), (1, 2), (2, 3)]

CONFIG = ServeConfig(max_batch=16, max_wait_ms=0.5)


def get(url: str):
    with urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), json.loads(
            response.read().decode("utf-8")
        )


def post(url: str, doc):
    request = Request(
        url,
        data=json.dumps(doc).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urlopen(request, timeout=5) as response:
        return response.status, dict(response.headers), json.loads(
            response.read().decode("utf-8")
        )


class TestTraceIdHeader:
    def test_traced_request_earns_a_parseable_header(self):
        with tracing_enabled():
            with ReachServer(
                Reachability(DiGraph(5, EDGES)), CONFIG,
                registry=MetricsRegistry(),
            ) as srv:
                _, headers, doc = get(srv.url + "/reach?u=0&v=3")
        assert doc["answer"] is True
        raw = headers["X-Trace-Id"]
        assert len(raw) == 16
        assert parse_trace_id(raw) > 0

    def test_batch_requests_are_traced_too(self):
        with tracing_enabled():
            with ReachServer(
                Reachability(DiGraph(5, EDGES)), CONFIG,
                registry=MetricsRegistry(),
            ) as srv:
                _, headers, _ = post(
                    srv.url + "/reach_many", {"pairs": [[0, 3], [3, 0]]}
                )
        assert "X-Trace-Id" in headers

    def test_untraced_default_has_no_header(self):
        with ReachServer(
            Reachability(DiGraph(5, EDGES)), CONFIG,
            registry=MetricsRegistry(),
        ) as srv:
            _, headers, _ = get(srv.url + "/reach?u=0&v=3")
        assert "X-Trace-Id" not in headers


class TestTraceEndpoint:
    def test_listing_then_single_trace_tree(self):
        with tracing_enabled():
            with ReachServer(
                Reachability(DiGraph(5, EDGES)), CONFIG,
                registry=MetricsRegistry(),
            ) as srv:
                _, headers, _ = get(srv.url + "/reach?u=0&v=3")
                wanted = headers["X-Trace-Id"]
                _, _, listing = get(srv.url + "/trace")
                assert listing["enabled"] is True
                assert wanted in {
                    entry["trace_id"] for entry in listing["traces"]
                }
                _, _, payload = get(srv.url + "/trace?trace_id=" + wanted)
        assert payload["trace_id"] == wanted
        assert payload["span_count"] >= 1
        names = set()

        def walk(nodes):
            for node in nodes:
                names.add(node["name"])
                walk(node["children"])

        walk(payload["roots"])
        assert "serve.request" in names

    def test_unparseable_trace_id_400(self):
        with ReachServer(
            Reachability(DiGraph(5, EDGES)), CONFIG,
            registry=MetricsRegistry(),
        ) as srv:
            with pytest.raises(HTTPError) as excinfo:
                get(srv.url + "/trace?trace_id=zzz")
            assert excinfo.value.code == 400

    def test_disabled_listing_says_so(self):
        with ReachServer(
            Reachability(DiGraph(5, EDGES)), CONFIG,
            registry=MetricsRegistry(),
        ) as srv:
            _, _, listing = get(srv.url + "/trace")
        assert listing == {"enabled": False, "traces": []}


class TestSlowLogJoinsTheTrace:
    def test_batched_entries_carry_trace_ids(self):
        with tracing_enabled():
            oracle = Reachability(DiGraph(5, EDGES))
            log = oracle.enable_slow_log(threshold_ms=0.0, capacity=1024)
            with ReachServer(
                oracle, CONFIG, registry=MetricsRegistry(), slow_log=log
            ) as srv:
                _, headers, _ = post(
                    srv.url + "/reach_many",
                    {"pairs": [[0, 3], [3, 0], [1, 2]]},
                )
                _, _, slow = get(srv.url + "/slow")
        traced = [
            record for record in slow["records"] if "trace_id" in record
        ]
        assert traced, "no slow-log record joined a trace"
        assert headers["X-Trace-Id"] in {r["trace_id"] for r in traced}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shard workers need the fork start method",
)
class TestShardBackedServer:
    def test_healthz_reports_topology_and_trace_spans_processes(
        self, tmp_path
    ):
        graph = crown_graph(6)
        n = graph.num_vertices
        pairs = [[u, v] for u in range(n) for v in range(n)]
        # Metrics and tracing go live before the fork, so the workers
        # ship telemetry home and their spans join the request's trace.
        with metrics_enabled() as registry, tracing_enabled():
            config = ShardConfig(num_shards=2, heartbeat_interval_s=0.05)
            with ShardService(graph, config) as service:
                log = service.attach_slow_log(
                    SlowQueryLog(capacity=4096, threshold_ns=0)
                )
                with ReachServer(
                    service, CONFIG, registry=registry, slow_log=log,
                ) as srv:
                    _, _, health = get(srv.url + "/healthz")
                    assert health["status"] == "ok"
                    assert health["tracing"] is True
                    assert health["shards"] == 2
                    assert health["workers_alive"] == 2
                    remote = run_loadgen(
                        srv.url, pairs, concurrency=4, duration_s=0.3
                    )
                    _, headers, answered = post(
                        srv.url + "/reach_many", {"pairs": pairs}
                    )
                    wanted = headers["X-Trace-Id"]
                    _, _, payload = get(
                        srv.url + "/trace?trace_id=" + wanted
                    )
                    _, _, slow = get(srv.url + "/slow")
                    metrics = _worker_series(srv.url)
                    chrome = tmp_path / "trace.json"
                    assert main([
                        "trace", srv.url, "--trace-id", wanted,
                        "--out", str(chrome),
                    ]) == 0
        assert remote["requests"] > 0
        assert remote["status"] == {"200": remote["requests"]}
        assert answered["count"] == len(pairs)
        # The one stitched trace covers the HTTP edge AND the forked
        # workers: at least two distinct pids under a single trace id.
        assert len(payload["pids"]) >= 2
        routed = [r for r in slow["records"] if "shard" in r]
        assert routed, "no slow-log record named its shard"
        assert any(r.get("trace_id") == wanted for r in slow["records"])
        # Worker telemetry folds into /metrics under shard= labels.
        tier_shards, counter = metrics
        assert tier_shards == {"0", "1"}, "tier info missing for a shard"
        assert counter, "no worker counter with a shard label in /metrics"
        # `repro trace --out` writes Perfetto-loadable slices of both
        # processes.
        doc = json.loads(chrome.read_text(encoding="utf-8"))
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert slices
        assert all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in slices)
        assert len({e["pid"] for e in slices}) >= 2


_TIER_INFO = re.compile(r'repro_shard_index_tier_info\{[^}]*shard="(\d+)"')
_WORKER_COUNTER = re.compile(
    r'^repro_(?!shard_)[a-z_]+(?:_total|_count)\{[^}]*shard="\d+"',
    re.MULTILINE,
)


def _worker_series(url: str, wait_s: float = 10.0):
    """``(shards with a tier-info gauge, a worker counter line or None)``
    from ``/metrics``, polled until both shards and a worker counter
    show: telemetry rides the heartbeats, a few beats behind."""
    deadline = time.monotonic() + wait_s
    while True:
        with urlopen(url + "/metrics", timeout=5) as response:
            text = response.read().decode("utf-8")
        shards = set(_TIER_INFO.findall(text))
        counter = _WORKER_COUNTER.search(text)
        if (shards == {"0", "1"} and counter) or time.monotonic() > deadline:
            return shards, counter and counter.group(0)
        time.sleep(0.05)
