"""Tests for the load generator and the baseline-vs-coalesced harness."""

import pytest

from repro import Reachability
from repro.graph.digraph import DiGraph
from repro.obs.metrics import MetricsRegistry
from repro.serve import ReachServer, ServeConfig, compare_serving, run_loadgen
from repro.serve.loadgen import _hist_stats, percentile


def make_oracle(n=50):
    return Reachability(DiGraph(n, [(i, i + 1) for i in range(n - 1)]))


PAIRS = [(i % 25, (i * 7) % 50) for i in range(32)]


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_interpolation(self):
        values = [0.0, 10.0]
        assert percentile(values, 0.5) == 5.0
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 1.0) == 10.0

    def test_p50_of_odd_run(self):
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0


class TestHistStats:
    TEXT = (
        "# TYPE repro_serve_coalesce_batch_size histogram\n"
        "repro_serve_coalesce_batch_size_bucket{le=\"1\"} 2\n"
        "repro_serve_coalesce_batch_size_sum 24\n"
        "repro_serve_coalesce_batch_size_count 6\n"
    )

    def test_parses_sum_and_count(self):
        stats = _hist_stats(self.TEXT, "repro_serve_coalesce_batch_size")
        assert stats == {"count": 6.0, "sum": 24.0, "mean": 4.0}

    def test_missing_histogram_is_none(self):
        assert _hist_stats(self.TEXT, "repro_absent") is None


class TestClosedLoop:
    def test_report_shape_and_histograms(self):
        srv = ReachServer(
            make_oracle(),
            ServeConfig(max_batch=16, max_wait_ms=0.0),
            registry=MetricsRegistry(),
        )
        with srv:
            report = run_loadgen(
                srv, PAIRS, mode="closed", concurrency=4,
                duration_s=0.4, slo_ms=100.0,
            )
        assert report["mode"] == "closed"
        assert report["requests"] > 0
        assert report["errors"] == 0
        assert report["status"] == {"200": report["requests"]}
        assert report["throughput_rps"] > 0
        latency = report["latency_ms"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert report["slo_ms"] == 100.0
        assert 0 <= report["slo_attainment"] <= 1
        assert report["server"]["histograms_present"]
        assert report["server"]["coalesce_batch_size"]["count"] > 0
        assert report["server"]["queue_wait_seconds"]["count"] > 0

    def test_max_requests_caps_the_run(self):
        srv = ReachServer(make_oracle(), registry=MetricsRegistry())
        with srv:
            report = run_loadgen(
                srv, PAIRS, mode="closed", concurrency=2,
                duration_s=5.0, max_requests=20,
            )
        # Workers race the quota check, so allow a whisker of overshoot.
        assert 1 <= report["requests"] <= 20 + 2


class TestOpenLoop:
    def test_scheduled_arrivals(self):
        srv = ReachServer(make_oracle(), registry=MetricsRegistry())
        with srv:
            report = run_loadgen(
                srv, PAIRS, mode="open", concurrency=4, rate=200.0,
                duration_s=0.5,
            )
        assert report["mode"] == "open"
        # 0.5 s at 200/s schedules 100 arrivals.
        assert report["requests"] == 100
        assert report["errors"] == 0

    def test_open_mode_requires_rate(self):
        srv = ReachServer(make_oracle(), registry=MetricsRegistry())
        with srv:
            with pytest.raises(ValueError):
                run_loadgen(srv, PAIRS, mode="open", duration_s=0.2)

    def test_unknown_mode_rejected(self):
        srv = ReachServer(make_oracle(), registry=MetricsRegistry())
        with srv:
            with pytest.raises(ValueError):
                run_loadgen(srv, PAIRS, mode="sideways", duration_s=0.2)


class TestCompare:
    def test_compare_produces_labeled_runs(self):
        doc = compare_serving(
            make_oracle(), PAIRS,
            config=ServeConfig(max_batch=32, max_wait_ms=0.0),
            mode="closed", concurrency=4, duration_s=0.4, warmup_s=0.1,
        )
        labels = [run["label"] for run in doc["runs"]]
        assert labels == ["baseline", "coalesced"]
        base, coal = doc["runs"]
        assert base["config"]["max_batch"] == 1
        assert coal["config"]["max_batch"] == 32
        # The baseline leg must truly not coalesce.
        assert base["server"]["coalesce_batch_size"]["mean"] == 1.0
        for run in doc["runs"]:
            assert run["requests"] > 0
            assert run["errors"] == 0

    def test_coalescing_pays(self):
        """16 closed-loop clients: the coalesced server merges requests
        (mean batch above 1) and answers at least 1.05x the baseline
        leg's throughput, best of interleaved rounds, every request a
        200."""
        best = {"baseline": 0.0, "coalesced": 0.0}
        for _ in range(3):
            doc = compare_serving(
                make_oracle(), PAIRS, concurrency=16, duration_s=0.5,
                warmup_s=0.1,
            )
            for run in doc["runs"]:
                assert run["errors"] == 0
                assert run["status"] == {"200": run["requests"]}
                label = run["label"]
                best[label] = max(best[label], run["throughput_rps"])
            server = doc["runs"][1]["server"]
            assert server["coalesce_batch_size"]["mean"] > 1.0
            assert server["queue_wait_seconds"]["count"] > 0
        assert best["coalesced"] >= 1.05 * best["baseline"], best
