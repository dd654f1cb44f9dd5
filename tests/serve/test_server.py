"""Integration tests for the asyncio serving tier (ReachServer)."""

import http.client
import json
import threading
import time
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro import Reachability
from repro.exceptions import ReproError
from repro.graph.digraph import DiGraph
from repro.obs.metrics import MetricsRegistry
from repro.resilience import QueryBudget
from repro.serve import ReachServer, ServeConfig

# 0 -> 1 -> 2 -> 3, plus 4 isolated.
EDGES = [(0, 1), (1, 2), (2, 3)]


def make_oracle():
    return Reachability(DiGraph(5, EDGES))


def get_json(url: str):
    with urlopen(url, timeout=5) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def post_json(url: str, doc) -> tuple[int, dict]:
    request = Request(
        url,
        data=json.dumps(doc).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urlopen(request, timeout=5) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


@pytest.fixture
def server():
    srv = ReachServer(
        make_oracle(),
        ServeConfig(max_batch=16, max_wait_ms=0.5),
        registry=MetricsRegistry(),
    )
    with srv:
        yield srv


class TestReach:
    def test_reachable_pair(self, server):
        status, doc = get_json(server.url + "/reach?u=0&v=3")
        assert status == 200
        assert doc == {
            "u": 0, "v": 3, "answer": True, "verdict": "reachable"
        }

    def test_unreachable_pair(self, server):
        _, doc = get_json(server.url + "/reach?u=3&v=0")
        assert doc["answer"] is False
        assert doc["verdict"] == "unreachable"

    def test_reflexive(self, server):
        _, doc = get_json(server.url + "/reach?u=4&v=4")
        assert doc["answer"] is True

    def test_missing_parameter_400(self, server):
        with pytest.raises(HTTPError) as excinfo:
            get_json(server.url + "/reach?u=0")
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"] == "bad-request"

    def test_out_of_range_vertex_400(self, server):
        with pytest.raises(HTTPError) as excinfo:
            get_json(server.url + "/reach?u=0&v=99")
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"] == "invalid-vertex"
        assert body["vertex"] == 99
        assert body["num_vertices"] == 5

    def test_non_integer_vertex_400(self, server):
        with pytest.raises(HTTPError) as excinfo:
            get_json(server.url + "/reach?u=zero&v=1")
        assert excinfo.value.code == 400

    def test_post_to_reach_405(self, server):
        with pytest.raises(HTTPError) as excinfo:
            post_json(server.url + "/reach", {})
        assert excinfo.value.code == 405
        assert json.loads(excinfo.value.read())["error"] == "method-not-allowed"


class TestReachMany:
    def test_batch_answers_aligned(self, server):
        pairs = [[0, 3], [3, 0], [4, 4], [1, 2]]
        status, doc = post_json(server.url + "/reach_many", {"pairs": pairs})
        assert status == 200
        assert doc["count"] == 4
        assert [r["answer"] for r in doc["results"]] == [
            True, False, True, True
        ]
        assert [(r["u"], r["v"]) for r in doc["results"]] == [
            (0, 3), (3, 0), (4, 4), (1, 2)
        ]

    def test_empty_batch(self, server):
        _, doc = post_json(server.url + "/reach_many", {"pairs": []})
        assert doc == {"results": [], "count": 0}

    def test_malformed_body_400(self, server):
        request = Request(
            server.url + "/reach_many", data=b"not json", method="POST"
        )
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_bad_pair_shape_400(self, server):
        with pytest.raises(HTTPError) as excinfo:
            post_json(server.url + "/reach_many", {"pairs": [[1, 2, 3]]})
        assert excinfo.value.code == 400

    def test_invalid_vertex_rejected_before_batching(self, server):
        # A bad vertex must 400 this request alone, not poison a batch.
        with pytest.raises(HTTPError) as excinfo:
            post_json(server.url + "/reach_many", {"pairs": [[0, 1], [0, 50]]})
        assert excinfo.value.code == 400
        _, doc = post_json(server.url + "/reach_many", {"pairs": [[0, 1]]})
        assert doc["results"][0]["answer"] is True

    def test_get_to_reach_many_405(self, server):
        with pytest.raises(HTTPError) as excinfo:
            get_json(server.url + "/reach_many")
        assert excinfo.value.code == 405


MALFORMED_IDS = {
    # A float is never truncated: [[2.9, 3]] is not r(2, 3).
    "body-float": ("/reach_many", b'{"pairs": [[1.0, 2]]}'),
    "body-fraction": ("/reach_many", b'{"pairs": [[2.9, 3]]}'),
    "body-bool": ("/reach_many", b'{"pairs": [[true, 2]]}'),
    "body-string": ("/reach_many", b'{"pairs": [["1", 2]]}'),
    "body-overflow": ("/reach_many", b'{"pairs": [[1e400, 2]]}'),
    "body-nan": ("/reach_many", b'{"pairs": [[NaN, 2]]}'),
    "body-5000-digits": (
        "/reach_many", b'{"pairs": [[1' + b"0" * 5000 + b', 2]]}'
    ),
    "query-underscore": ("/reach?u=1_0&v=2", None),
    "query-sign": ("/reach?u=+1&v=2", None),
    "query-space": ("/reach?u=%201&v=2", None),
    "query-float": ("/reach?u=1.0&v=2", None),
    "query-arabic-indic": ("/reach?u=%D9%A1&v=2", None),
    "query-5000-digits": ("/reach?u=1" + "0" * 5000 + "&v=2", None),
}


@pytest.mark.parametrize(
    "path, body", MALFORMED_IDS.values(), ids=MALFORMED_IDS.keys()
)
def test_malformed_vertex_ids_are_bad_requests(server, path, body):
    request = Request(
        server.url + path,
        data=body,
        method="GET" if body is None else "POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(HTTPError) as excinfo:
        urlopen(request, timeout=5)
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["error"] == "bad-request"


class TestObsEndpoints:
    def test_healthz(self, server):
        with urlopen(server.url + "/healthz", timeout=5) as response:
            assert response.status == 200
            doc = json.loads(response.read())
        assert doc["status"] == "ok"
        assert doc["version"]
        assert doc["index"]
        assert doc["tracing"] is False

    def test_metrics_exposes_serving_histograms(self, server):
        get_json(server.url + "/reach?u=0&v=3")
        post_json(server.url + "/reach_many", {"pairs": [[0, 1], [1, 0]]})
        with urlopen(server.url + "/metrics", timeout=5) as response:
            text = response.read().decode("utf-8")
        assert "repro_serve_coalesce_batch_size" in text
        assert "repro_serve_queue_wait_seconds" in text
        assert "repro_serve_requests_total" in text
        assert "repro_serve_request_seconds" in text

    def test_slow_endpoint(self, server):
        status, doc = get_json(server.url + "/slow")
        assert status == 200
        assert doc == {"records": [], "observed": 0}

    def test_unknown_path_404(self, server):
        with pytest.raises(HTTPError) as excinfo:
            get_json(server.url + "/nope")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"] == "not-found"


class TestKeepAlive:
    def test_connection_reuse(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            for _ in range(3):
                conn.request("GET", "/reach?u=0&v=3")
                response = conn.getresponse()
                doc = json.loads(response.read())
                assert doc["answer"] is True
        finally:
            conn.close()


class TestAdmissionControl:
    def test_shed_returns_structured_503_with_retry_after(self):
        registry = MetricsRegistry()
        srv = ReachServer(
            make_oracle(),
            ServeConfig(max_inflight=1, overload="shed", retry_after_ms=250),
            registry=registry,
        )
        with srv:
            # Hold the single inflight slot hostage so a probe trips the
            # cap deterministically.
            srv._inflight = 1
            try:
                with pytest.raises(HTTPError) as excinfo:
                    get_json(srv.url + "/reach?u=0&v=1")
                assert excinfo.value.code == 503
                assert excinfo.value.headers["Retry-After"] == "1"
                body = json.loads(excinfo.value.read())
                assert body["error"] == "overloaded"
                assert body["max_inflight"] == 1
                assert body["retry_after_ms"] == 250
            finally:
                srv._inflight = 0
        shed = registry.counter("repro_serve_shed_total", policy="shed")
        assert shed.value == 1

    def test_unknown_policy_degrades_to_unknown_verdict(self):
        srv = ReachServer(
            make_oracle(),
            ServeConfig(max_inflight=1, overload="unknown"),
            registry=MetricsRegistry(),
        )
        with srv:
            srv._inflight = 1
            try:
                status, doc = get_json(srv.url + "/reach?u=0&v=1")
                assert status == 200
                assert doc["answer"] is None
                assert doc["verdict"] == "unknown"
                assert doc["stats"] == {"degraded": "overload"}
            finally:
                srv._inflight = 0

    def test_reach_many_counts_whole_batch(self):
        srv = ReachServer(
            make_oracle(),
            ServeConfig(max_inflight=2, overload="shed"),
            registry=MetricsRegistry(),
        )
        with srv:
            with pytest.raises(HTTPError) as excinfo:
                post_json(
                    srv.url + "/reach_many",
                    {"pairs": [[0, 1], [1, 2], [2, 3]]},
                )
            assert excinfo.value.code == 503

    def test_budgeted_server_degrades_not_lies(self):
        budget = QueryBudget(max_steps=1, policy="unknown")
        srv = ReachServer(
            make_oracle(),
            ServeConfig(budget=budget),
            registry=MetricsRegistry(),
        )
        with srv:
            _, doc = get_json(srv.url + "/reach?u=3&v=0")
            # Cut-decided pairs never consume budget: still exact.
            assert doc["answer"] is False


class TestLifecycle:
    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError):
            server.start()

    def test_stop_is_idempotent(self):
        srv = ReachServer(make_oracle(), registry=MetricsRegistry()).start()
        srv.stop()
        srv.stop()

    def test_restart_after_stop(self):
        srv = ReachServer(make_oracle(), registry=MetricsRegistry())
        srv.start()
        srv.stop()
        assert not srv.running
        srv.start()
        try:
            assert srv.running
            _, doc = get_json(srv.url + "/reach?u=0&v=3")
            assert doc["answer"] is True
        finally:
            srv.stop()

    def test_port_before_start_raises(self):
        srv = ReachServer(make_oracle())
        with pytest.raises(RuntimeError):
            srv.port

    def test_invalid_config_rejected(self):
        with pytest.raises(ReproError):
            ServeConfig(max_batch=0)
        with pytest.raises(ReproError):
            ServeConfig(overload="panic")
        with pytest.raises(ReproError):
            ServeConfig(max_wait_ms=-1)


class TestDrain:
    def test_queued_requests_answered_on_stop(self):
        """Shutdown drains: every admitted request gets its real answer.

        The coalescer window is far longer than the test, so submitted
        requests sit queued until stop() flushes them.
        """
        srv = ReachServer(
            make_oracle(),
            ServeConfig(max_batch=64, max_wait_ms=30_000, drain_timeout_s=10),
            registry=MetricsRegistry(),
        )
        srv.start()
        results = []
        errors = []

        def client(u, v):
            try:
                results.append((u, v, get_json(
                    f"{srv.url}/reach?u={u}&v={v}")[1]["answer"]))
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(u, v))
            for u, v in [(0, 3), (3, 0), (1, 2), (4, 4)]
        ]
        for thread in threads:
            thread.start()
        # Wait until all four pairs are queued in the coalescer.
        deadline = time.time() + 5
        while time.time() < deadline:
            coalescer = srv.coalescer
            if coalescer is not None and coalescer.pending == 4:
                break
            time.sleep(0.01)
        assert srv.coalescer.pending == 4
        srv.stop()  # drain must flush and answer them
        for thread in threads:
            thread.join(timeout=10)
        assert errors == []
        assert sorted(results) == [
            (0, 3, True), (1, 2, True), (3, 0, False), (4, 4, True)
        ]

    def test_requests_during_drain_get_structured_503(self):
        srv = ReachServer(make_oracle(), registry=MetricsRegistry())
        srv.start()
        url = srv.url
        srv._draining = True  # simulate the drain window
        try:
            with pytest.raises(HTTPError) as excinfo:
                get_json(url + "/reach?u=0&v=1")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["error"] == "draining"
        finally:
            srv._draining = False
            srv.stop()

    def test_healthz_reports_draining(self):
        srv = ReachServer(make_oracle(), registry=MetricsRegistry())
        srv.start()
        srv._draining = True
        try:
            with pytest.raises(HTTPError) as excinfo:
                urlopen(srv.url + "/healthz", timeout=5)
            assert excinfo.value.code == 503
        finally:
            srv._draining = False
            srv.stop()
