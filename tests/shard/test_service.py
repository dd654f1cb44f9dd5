"""ShardService: correctness vs oracle, deadlines, failover, lifecycle."""

import time

import pytest

from repro.exceptions import (
    InvalidVertexError,
    QueryBudgetExceeded,
    ReproError,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import crown_graph, random_dag
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.resilience import UNKNOWN, QueryBudget, chaos
from repro.shard import ShardConfig, ShardService
from tests.conftest import reachability_oracle

FAST = ShardConfig(num_shards=2, supervise=False)


def sample_pairs(graph, count=150, seed=0):
    import random

    rng = random.Random(seed)
    n = graph.num_vertices
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"rpc_timeout_s": 0.0},
            {"default_deadline_ms": -5.0},
            {"on_shard_loss": "panic"},
            {"fallback_nodes": 0},
            {"max_attempts": 0},
            {"heartbeat_miss_limit": 0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ReproError):
            ShardConfig(**kwargs)


GRAPHS = {
    "random": random_dag(150, avg_degree=2.0, seed=11),
    "crown": crown_graph(5),
}


class TestCorrectness:
    # Answers do not depend on the shard count; one shard never routes
    # a pair across shards.  The 3-shard cases keep their plain ids.
    @pytest.mark.parametrize(
        "name, num_shards",
        [
            pytest.param(
                name, shards, id=name if shards == 3 else f"{name}-{shards}"
            )
            for shards in (1, 3, 8)
            for name in GRAPHS
        ],
    )
    def test_answers_match_oracle(self, name, num_shards):
        graph = GRAPHS[name]
        oracle = reachability_oracle(graph)
        config = ShardConfig(num_shards=num_shards, supervise=False)
        with ShardService(graph, config) as service:
            for u, v in sample_pairs(graph):
                assert service.reachable(u, v) == oracle(u, v)
        stats = service.stats.as_dict()
        assert stats["queries"] == 150
        assert stats["unknowns"] == 0
        if num_shards == 1:
            assert stats["cross_queries"] == 0

    def test_cyclic_input_condensed(self):
        # 0 <-> 1 form an SCC; 2 unreachable from it.
        graph = DiGraph(4, [(0, 1), (1, 0), (1, 2), (3, 0)])
        with ShardService(graph, FAST) as service:
            assert service.reachable(0, 1) is True
            assert service.reachable(1, 0) is True
            assert service.reachable(3, 2) is True
            assert service.reachable(2, 0) is False

    def test_edge_iterable_accepted(self):
        with ShardService([(0, 1), (1, 2)], FAST) as service:
            assert service.reachable(0, 2) is True

    def test_out_of_range_vertex_rejected(self):
        with ShardService(random_dag(30, avg_degree=1.5, seed=1), FAST) as service:
            with pytest.raises(InvalidVertexError):
                service.reachable(0, 30)

    def test_reachable_many_matches_scalar(self):
        graph = random_dag(100, avg_degree=2.0, seed=5)
        pairs = sample_pairs(graph, count=60, seed=2)
        with ShardService(graph, FAST) as service:
            batch = service.reachable_many(pairs)
            assert batch == [service.reachable(u, v) for u, v in pairs]


class TestDeadlines:
    def test_spent_deadline_degrades_to_unknown(self):
        # Crown graphs defeat every cut, so the query must travel to a
        # worker — where a microscopic deadline cannot possibly hold.
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)
        with ShardService(graph, FAST) as service:
            answers = [
                service.query(u, v, deadline_ms=1e-6)
                for u, v in sample_pairs(graph, count=50, seed=3)
            ]
        unknowns = [a for a in answers if a is UNKNOWN]
        assert unknowns, "a ~1ns deadline should have degraded something"
        assert service.stats.deadline_unknowns >= len(unknowns)
        # And nothing degraded into a lie.
        for (u, v), answer in zip(sample_pairs(graph, count=50, seed=3), answers):
            if answer is not UNKNOWN:
                assert answer == oracle(u, v)

    def test_generous_deadline_answers_exactly(self):
        graph = random_dag(100, avg_degree=2.0, seed=9)
        oracle = reachability_oracle(graph)
        with ShardService(graph, FAST) as service:
            for u, v in sample_pairs(graph, count=80, seed=4):
                assert service.query(u, v, deadline_ms=5000.0) == oracle(u, v)

    def test_default_deadline_from_config(self):
        graph = crown_graph(6)
        config = ShardConfig(
            num_shards=2, supervise=False, default_deadline_ms=1e-6
        )
        with ShardService(graph, config) as service:
            answers = [
                service.query(u, v)
                for u, v in sample_pairs(graph, count=30, seed=5)
            ]
        assert any(a is UNKNOWN for a in answers)

    def test_budget_deadline_propagates(self):
        graph = crown_graph(6)
        budget = QueryBudget(deadline_s=1e-9, policy="unknown")
        with ShardService(graph, FAST) as service:
            answers = [
                service.reachable(u, v, budget=budget)
                for u, v in sample_pairs(graph, count=30, seed=6)
            ]
        assert any(a is UNKNOWN for a in answers)

    def test_raise_policy_raises_on_degradation(self):
        graph = crown_graph(6)
        budget = QueryBudget(deadline_s=1e-9, policy="raise")
        with ShardService(graph, FAST) as service:
            with pytest.raises(QueryBudgetExceeded) as excinfo:
                for u, v in sample_pairs(graph, count=30, seed=7):
                    service.reachable(u, v, budget=budget)
        assert excinfo.value.resource == "deadline"


class TestFailover:
    def test_killed_workers_fail_over_without_wrong_answers(self):
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)
        config = ShardConfig(
            num_shards=2, supervise=False, rpc_timeout_s=0.5
        )
        with ShardService(graph, config) as service:
            for pid in service.worker_pids():
                if pid is not None:
                    chaos.kill_process(pid)
            for u, v in sample_pairs(graph, count=60, seed=8):
                answer = service.reachable(u, v)
                assert answer == oracle(u, v)
            assert service.stats.restarts >= 1
            assert service.alive_workers() == service.num_shards

    def test_failover_latency_recorded(self):
        graph = crown_graph(6)
        with ShardService(graph, FAST) as service:
            for pid in service.worker_pids():
                if pid is not None:
                    chaos.kill_process(pid)
            for u, v in sample_pairs(graph, count=60, seed=9):
                service.reachable(u, v)
            stats = service.stats
            # Kills land mid-poll at worst, so some RPC saw a failure
            # and its successful retry was timed.
            if stats.rpc_failures:
                assert stats.failovers >= 1
                assert all(t >= 0 for t in stats.failover_latencies_s)

    def test_supervisor_restarts_dead_worker(self):
        graph = random_dag(60, avg_degree=2.0, seed=3)
        config = ShardConfig(
            num_shards=2,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.2,
        )
        with ShardService(graph, config) as service:
            victim = service.worker_pids()[0]
            assert victim is not None
            chaos.kill_process(victim)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                pids = service.worker_pids()
                if pids[0] is not None and pids[0] != victim:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("supervisor never restarted the killed worker")
            assert service.stats.restarts >= 1

    def test_supervisor_replaces_frozen_worker(self):
        graph = random_dag(60, avg_degree=2.0, seed=3)
        config = ShardConfig(
            num_shards=2,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.1,
            heartbeat_miss_limit=2,
        )
        with ShardService(graph, config) as service:
            victim = service.worker_pids()[0]
            assert victim is not None
            chaos.freeze_process(victim)
            try:
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    pids = service.worker_pids()
                    if pids[0] is not None and pids[0] != victim:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("frozen worker was never fenced and replaced")
                assert service.stats.heartbeat_misses >= 1
            finally:
                chaos.thaw_process(victim)  # in case fencing lost the race


class TestShardLoss:
    def test_fallback_policy_answers_exactly(self):
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)
        config = ShardConfig(
            num_shards=2, supervise=False, rpc_timeout_s=0.2,
            on_shard_loss="fallback",
        )
        with ShardService(graph, config) as service:
            service.halt_worker(0)
            for u, v in sample_pairs(graph, count=60, seed=10):
                assert service.reachable(u, v) == oracle(u, v)
            assert service.stats.degraded_fallback >= 1

    def test_unknown_policy_degrades_honestly(self):
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)
        config = ShardConfig(
            num_shards=2, supervise=False, rpc_timeout_s=0.2,
            on_shard_loss="unknown",
        )
        with ShardService(graph, config) as service:
            service.halt_worker(0)
            answers = [
                service.reachable(u, v)
                for u, v in sample_pairs(graph, count=60, seed=11)
            ]
        unknowns = sum(1 for a in answers if a is UNKNOWN)
        assert unknowns >= 1
        assert service.stats.degraded_unknown == unknowns
        for (u, v), answer in zip(
            sample_pairs(graph, count=60, seed=11), answers
        ):
            if answer is not UNKNOWN:
                assert answer == oracle(u, v)

    def test_revive_restores_exact_service(self):
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)
        config = ShardConfig(
            num_shards=2, supervise=False, rpc_timeout_s=0.2,
            on_shard_loss="unknown",
        )
        with ShardService(graph, config) as service:
            service.halt_worker(0)
            service.revive_worker(0)
            assert service.alive_workers() == 2
            for u, v in sample_pairs(graph, count=40, seed=12):
                assert service.reachable(u, v) == oracle(u, v)


class TestObservability:
    def test_restart_and_degraded_metrics(self):
        registry = enable_metrics()
        try:
            graph = crown_graph(6)
            config = ShardConfig(
                num_shards=2, supervise=False, rpc_timeout_s=0.2,
                on_shard_loss="fallback",
            )
            with ShardService(graph, config) as service:
                for pid in service.worker_pids():
                    if pid is not None:
                        chaos.kill_process(pid)
                for u, v in sample_pairs(graph, count=40, seed=13):
                    service.reachable(u, v)
                service.halt_worker(0)
                for u, v in sample_pairs(graph, count=40, seed=13):
                    service.reachable(u, v)
            counters = registry.snapshot()["counters"]
            for family in (
                "repro_shard_worker_restarts_total",
                "repro_shard_rpc_total",
                "repro_shard_degraded_total",
            ):
                assert any(key.startswith(family) for key in counters), (
                    f"{family} missing from {sorted(counters)}"
                )
        finally:
            disable_metrics()


class TestLifecycle:
    def test_close_is_idempotent_and_queries_after_close_raise(self):
        service = ShardService(random_dag(40, avg_degree=1.5, seed=2), FAST)
        service.close()
        service.close()
        assert service.alive_workers() == 0
        with pytest.raises(ReproError):
            service.query(0, 1)

    def test_context_manager_reaps_workers(self):
        with ShardService(
            random_dag(40, avg_degree=1.5, seed=2), FAST
        ) as service:
            pids = [pid for pid in service.worker_pids() if pid is not None]
            assert len(pids) == 2
        assert service.alive_workers() == 0

    def test_repr_mentions_shards(self):
        with ShardService(
            random_dag(40, avg_degree=1.5, seed=2), FAST
        ) as service:
            assert "shards=2" in repr(service)
