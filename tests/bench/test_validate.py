"""Unit tests for cross-method validation and harness percentiles."""

from repro.baselines.base import ReachabilityIndex, register_index
from repro.bench.harness import MethodSpec, measure_method
from repro.bench.validate import cross_validate
from repro.datasets.queries import random_pairs
from repro.graph.generators import random_dag


class TestCrossValidate:
    def test_all_methods_agree(self):
        g = random_dag(80, avg_degree=2.0, seed=1)
        report = cross_validate(g, random_pairs(g, 300, seed=2))
        assert report.ok
        assert "ALL AGREE" in report.summary()
        assert len(report.methods_checked) == 5

    def test_budget_failures_become_skips(self):
        g = random_dag(200, avg_degree=4.0, seed=3)
        report = cross_validate(
            g,
            random_pairs(g, 50, seed=4),
            methods=("feline", "interval"),
            method_params={"interval": {"memory_budget_bytes": 100}},
        )
        assert report.methods_skipped == {"interval": "memory-budget"}
        assert report.methods_checked == ["feline"]
        assert report.ok

    def test_buggy_method_is_caught(self):
        class LyingIndex(ReachabilityIndex):
            method_name = "liar-test"

            def _build(self):
                pass

            def _search_pair(self, u, v):
                return True  # everything reachable: wrong

            def index_size_bytes(self):
                return 0

        register_index(LyingIndex)
        g = random_dag(40, avg_degree=1.0, seed=5)
        report = cross_validate(
            g, random_pairs(g, 100, seed=6), methods=("liar-test",)
        )
        assert not report.ok
        assert report.disagreements
        assert report.disagreements[0].method == "liar-test"
        assert "DISAGREEMENTS" in report.summary()


class TestPercentiles:
    def test_percentiles_filled_on_demand(self):
        g = random_dag(150, avg_degree=2.0, seed=7)
        pairs = random_pairs(g, 400, seed=8)
        result = measure_method(
            g, MethodSpec("feline"), pairs, runs=1, percentiles=True
        )
        assert result.query_p50_us is not None
        assert result.query_p50_us <= result.query_p95_us <= result.query_p99_us

    def test_percentiles_absent_by_default(self):
        g = random_dag(50, avg_degree=2.0, seed=9)
        result = measure_method(
            g, MethodSpec("feline"), random_pairs(g, 50, seed=0), runs=1
        )
        assert result.query_p50_us is None

    def test_percentiles_skip_failed_builds(self):
        g = random_dag(100, avg_degree=2.0, seed=1)
        result = measure_method(
            g,
            MethodSpec("tc", params={"memory_budget_bytes": 1}),
            random_pairs(g, 10, seed=2),
            runs=1,
            percentiles=True,
        )
        assert not result.ok
        assert result.query_p50_us is None
