"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph.generators import random_dag
from repro.graph.io import write_edge_list


class TestListing:
    def test_methods_listed(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "feline" in out and "grail" in out

    def test_datasets_listed(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "arxiv" in out and "100M-10" in out


class TestQuery:
    @pytest.fixture
    def graph_file(self, tmp_path):
        g = random_dag(30, avg_degree=2.0, seed=1)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        return path, g

    def test_reachable_exit_zero(self, graph_file, capsys):
        path, g = graph_file
        u, v = next(iter(g.edges()))
        assert main(["query", str(path), str(u), str(v)]) == 0
        assert "reachable" in capsys.readouterr().out

    def test_unreachable_exit_one(self, graph_file, capsys):
        path, g = graph_file
        u, v = next(iter(g.edges()))
        assert main(["query", str(path), str(v), str(u)]) == 1
        assert "not reachable" in capsys.readouterr().out

    def test_method_flag(self, graph_file):
        path, g = graph_file
        u, v = next(iter(g.edges()))
        assert main(["query", str(path), str(u), str(v), "--method", "grail"]) == 0

    @pytest.mark.parametrize("kernel", ["auto", "numpy", "python"])
    def test_kernel_flag(self, graph_file, kernel):
        path, g = graph_file
        u, v = next(iter(g.edges()))
        assert main(["query", str(path), str(u), str(v), "--kernel", kernel]) == 0

    def test_kernel_flag_c(self, graph_file):
        from tests.property.test_kernel_equivalence import require_c

        require_c()
        path, g = graph_file
        u, v = next(iter(g.edges()))
        assert main(["query", str(path), str(v), str(u), "--kernel", "c"]) == 1

    def test_numba_is_no_longer_a_kernel_choice(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            main(["query", str(path), "0", "1", "--kernel", "numba"])


class TestBench:
    def test_t2_runs(self, capsys):
        assert main(["bench", "t2", "--scale", "0.0002"]) == 0
        out = capsys.readouterr().out
        assert "T2" in out and "100M-10" in out

    def test_t3_with_knobs(self, capsys):
        code = main([
            "bench", "t3", "--scale", "0.02", "--queries", "20",
            "--runs", "1", "--datasets", "arxiv,go",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FELINE" in out
        assert "yago" not in out

    def test_f12_dataset_restriction(self, capsys):
        code = main([
            "bench", "f12", "--scale", "0.02", "--datasets", "go",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "go (normal index)" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "t99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_metrics_out_writes_both_exports(self, tmp_path, capsys):
        import json

        from repro.obs.metrics import get_registry

        out = tmp_path / "metrics.jsonl"
        code = main([
            "bench", "t3", "--scale", "0.02", "--queries", "20",
            "--runs", "1", "--datasets", "arxiv",
            "--metrics-out", str(out),
        ])
        assert code == 0
        prom = tmp_path / "metrics.prom"
        assert out.exists() and prom.exists()
        records = [json.loads(line) for line in out.read_text().splitlines()]
        names = {r.get("name") for r in records}
        assert "repro_index_build_seconds" in names
        assert "repro_query_latency_seconds" in names
        latency = next(
            r for r in records if r.get("name") == "repro_query_latency_seconds"
        )
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        prom_text = prom.read_text()
        assert "# TYPE repro_query_latency_seconds histogram" in prom_text
        assert "repro_build_phase_seconds" in prom_text
        # the metrics run must not leave the global registry enabled
        assert not get_registry().enabled


class TestStatsCommand:
    @pytest.fixture
    def dag_file(self, tmp_path):
        g = random_dag(80, avg_degree=2.5, seed=11)
        path = tmp_path / "dag.edges"
        write_edge_list(g, path)
        return path

    def test_prints_breakdown_and_latency(self, dag_file, capsys):
        assert main(["stats", str(dag_file), "--queries", "200"]) == 0
        out = capsys.readouterr().out
        assert "queries: 200" in out
        assert "negative_cuts" in out and "searches" in out
        assert "query latency (us):" in out and "p99=" in out
        assert "build phases:" in out and "x-order" in out

    def test_method_flag(self, dag_file, capsys):
        assert main([
            "stats", str(dag_file), "--queries", "50", "--method", "grail",
        ]) == 0
        assert "method: grail" in capsys.readouterr().out

    def test_metrics_out(self, dag_file, tmp_path, capsys):
        out = tmp_path / "stats.jsonl"
        assert main([
            "stats", str(dag_file), "--queries", "50",
            "--metrics-out", str(out),
        ]) == 0
        assert out.exists() and (tmp_path / "stats.prom").exists()
        from repro.obs.metrics import get_registry

        assert not get_registry().enabled


class TestBuildAndIndexReuse:
    @pytest.fixture
    def dag_file(self, tmp_path):
        g = random_dag(40, avg_degree=2.0, seed=3)
        path = tmp_path / "dag.edges"
        write_edge_list(g, path)
        return path, g

    def test_build_writes_index(self, dag_file, tmp_path, capsys):
        path, _ = dag_file
        out = tmp_path / "dag.feline"
        assert main(["build", str(path), str(out)]) == 0
        assert out.exists() and out.stat().st_size > 0
        assert "built FELINE index" in capsys.readouterr().out

    def test_query_with_saved_index(self, dag_file, tmp_path):
        path, g = dag_file
        out = tmp_path / "dag.feline"
        main(["build", str(path), str(out)])
        u, v = next(iter(g.edges()))
        assert main([
            "query", str(path), str(u), str(v), "--index", str(out),
        ]) == 0
        assert main([
            "query", str(path), str(v), str(u), "--index", str(out),
            "--mmap",
        ]) == 1


class TestVerifyIndexCommand:
    @pytest.fixture
    def built(self, tmp_path):
        g = random_dag(120, avg_degree=2.5, seed=7)
        graph_path = tmp_path / "dag.edges"
        index_path = tmp_path / "dag.feline"
        write_edge_list(g, graph_path)
        main(["build", str(graph_path), str(index_path)])
        return graph_path, index_path

    def test_clean_index_exits_zero(self, built, capsys):
        graph_path, index_path = built
        assert main(["verify-index", str(graph_path), str(index_path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "[pass]" in out

    def test_mmap_flag(self, built):
        graph_path, index_path = built
        assert main([
            "verify-index", str(graph_path), str(index_path), "--mmap",
        ]) == 0

    def test_corrupt_file_exits_two(self, built, capsys):
        from repro.resilience import chaos

        graph_path, index_path = built
        chaos.flip_bytes(index_path, seed=3, flips=4)
        assert main(["verify-index", str(graph_path), str(index_path)]) == 2
        assert "UNREADABLE" in capsys.readouterr().err

    def test_truncated_file_exits_two(self, built, capsys):
        from repro.resilience import chaos

        graph_path, index_path = built
        chaos.truncate_file(index_path, index_path.stat().st_size // 2)
        assert main(["verify-index", str(graph_path), str(index_path)]) == 2
        assert "UNREADABLE" in capsys.readouterr().err

    def test_unsound_index_exits_one(self, built, capsys):
        """A readable file whose coordinates violate Theorem 1 fails with
        exit 1 (integrity), not 2 (unreadable)."""
        from repro.core.persistence import load_coordinates, save_coordinates
        from repro.resilience import chaos as chaos_mod

        graph_path, index_path = built
        coords = load_coordinates(index_path)
        bad = chaos_mod.corrupt_coordinates(coords, seed=1, mutations=3)
        save_coordinates(bad, index_path)
        assert main(["verify-index", str(graph_path), str(index_path)]) == 1
        assert "[FAIL]" in capsys.readouterr().out


class TestBudgetedQueryCommand:
    # Pair (460, 1876) on this DAG dodges both cuts and expands ~100
    # vertices of pruned DFS, so a 5-step budget trips; a bounded biBFS
    # answers it within 40 visited nodes, so fallback recovers at
    # --max-steps 10 (fallback_nodes defaults to 4x the step cap).
    @pytest.fixture(scope="class")
    def hard_dag(self, tmp_path_factory):
        g = random_dag(2000, avg_degree=2.5, seed=1)
        path = tmp_path_factory.mktemp("cli-budget") / "hard.edges"
        write_edge_list(g, path)
        return path

    def test_exhausted_budget_exits_three(self, hard_dag, capsys):
        code = main([
            "query", str(hard_dag), "460", "1876",
            "--max-steps", "5", "--on-budget", "unknown",
        ])
        assert code == 3
        assert "unknown" in capsys.readouterr().out

    def test_fallback_recovers_answer(self, hard_dag, capsys):
        code = main([
            "query", str(hard_dag), "460", "1876",
            "--max-steps", "10", "--on-budget", "fallback",
        ])
        assert code == 0
        assert "reachable" in capsys.readouterr().out

    def test_generous_budget_exits_zero(self, hard_dag):
        assert main([
            "query", str(hard_dag), "460", "1876", "--max-steps", "100000",
        ]) == 0

    def test_deadline_flag_accepted(self, hard_dag):
        assert main([
            "query", str(hard_dag), "1876", "460", "--deadline-ms", "5000",
        ]) == 1


class TestValidateAndRecommend:
    @pytest.fixture
    def dag_file(self, tmp_path):
        g = random_dag(60, avg_degree=2.0, seed=5)
        path = tmp_path / "dag.edges"
        write_edge_list(g, path)
        return path

    def test_validate_all_agree(self, dag_file, capsys):
        assert main(["validate", str(dag_file), "--queries", "100"]) == 0
        assert "ALL AGREE" in capsys.readouterr().out

    def test_recommend_prints_choice(self, dag_file, capsys):
        assert main(["recommend", str(dag_file)]) == 0
        out = capsys.readouterr().out
        assert "recommended:" in out and "because:" in out

    def test_recommend_query_heavy_flag(self, tmp_path, capsys):
        g = random_dag(2000, avg_degree=5.0, seed=6)
        path = tmp_path / "big.edges"
        write_edge_list(g, path)
        assert main(["recommend", str(path), "--query-heavy"]) == 0
        assert "recommended: feline-b" in capsys.readouterr().out


class TestWorkersFlag:
    @pytest.fixture
    def dag_file(self, tmp_path):
        g = random_dag(60, avg_degree=2.0, seed=7)
        path = tmp_path / "dag.edges"
        write_edge_list(g, path)
        return path

    def test_bench_workers_scopes_the_harness_default(self, capsys):
        from repro.bench.harness import get_default_workers

        code = main([
            "bench", "t3", "--scale", "0.02", "--queries", "20",
            "--runs", "1", "--datasets", "arxiv", "--workers", "2",
        ])
        assert code == 0
        assert "T3" in capsys.readouterr().out
        # the flag applies per invocation, not process-wide
        assert get_default_workers() == 0

    def test_serve_once_with_workers(self, dag_file, capsys):
        code = main([
            "serve", str(dag_file), "--warm", "50",
            "--workers", "2", "--once",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving feline queries" in out
        assert "GET /healthz [200]" in out
        assert "GET /reach?u=0" in out
