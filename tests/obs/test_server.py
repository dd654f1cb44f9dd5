"""Unit tests for the scrape endpoints (/metrics, /healthz, /slow).

ReachServer serves them next to its query routes; these tests pin the
observability surface: the given registry and slow log are what get
served, and the lifecycle contract holds.
"""

import json
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro import Reachability
from repro.graph.digraph import DiGraph
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.serve import ReachServer


def _oracle() -> Reachability:
    return Reachability(DiGraph(3, [(0, 1), (1, 2)]))


def _get(url: str) -> tuple[int, str]:
    with urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


@pytest.fixture
def server():
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", method="feline").inc(3)
    log = SlowQueryLog(threshold_ns=0)
    log.record(1, 2, True, 5000, "feline")
    srv = ReachServer(_oracle(), registry=registry, slow_log=log)
    with srv:
        yield srv


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_metrics_prometheus_text(self, server):
        status, body = _get(server.url + "/metrics")
        assert status == 200
        assert 'repro_queries_total{method="feline"} 3' in body

    def test_slow_json(self, server):
        status, body = _get(server.url + "/slow")
        assert status == 200
        payload = json.loads(body)
        assert payload["observed"] == 1
        assert payload["records"][0]["u"] == 1
        assert payload["records"][0]["elapsed_us"] == 5.0

    def test_unknown_path_404(self, server):
        with pytest.raises(HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_query_string_ignored(self, server):
        status, _ = _get(server.url + "/healthz?probe=1")
        assert status == 200


class TestLifecycle:
    def test_port_zero_picks_free_port(self, server):
        assert server.port > 0
        assert str(server.port) in server.url

    def test_stop_is_idempotent(self):
        srv = ReachServer(_oracle(), registry=MetricsRegistry()).start()
        srv.stop()
        srv.stop()

    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError):
            server.start()

    def test_restart_after_stop(self):
        """start() after stop() rebinds a fresh socket and serves again."""
        registry = MetricsRegistry()
        registry.counter("repro_queries_total", method="feline").inc(7)
        srv = ReachServer(_oracle(), registry=registry).start()
        first_port = srv.port
        srv.stop()
        assert not srv.running
        srv.start()
        try:
            assert srv.running
            # With port=0 the rebind may land anywhere; the property
            # reflects the fresh socket.
            assert srv.port > 0
            status, body = _get(srv.url + "/metrics")
            assert status == 200
            assert 'repro_queries_total{method="feline"} 7' in body
        finally:
            srv.stop()
        assert first_port > 0

    def test_running_property(self):
        srv = ReachServer(_oracle(), registry=MetricsRegistry())
        assert not srv.running
        srv.start()
        assert srv.running
        srv.stop()
        assert not srv.running

    def test_no_slow_log_serves_empty_document(self):
        with ReachServer(_oracle(), registry=MetricsRegistry()) as srv:
            _, body = _get(srv.url + "/slow")
        assert json.loads(body) == {"records": [], "observed": 0}
