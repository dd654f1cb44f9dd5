"""Kill-based chaos: SIGKILL/SIGSTOP live workers under real traffic.

The contract under murder — enforced here and by ``repro chaos-drill``
in CI — is *correct-or-UNKNOWN, within the deadline*: a killed or wedged
worker may cost an answer, never buy a wrong one, and never a hang.
"""

import multiprocessing
import random
import time

import pytest

from repro.graph.generators import crown_graph, random_dag
from repro.resilience import UNKNOWN, chaos
from repro.shard import ShardConfig, ShardService, chaos_drill
from tests.conftest import reachability_oracle

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shard workers need the fork start method",
)

DEADLINE_MS = 400.0
GRACE_MS = 400.0


def run_traffic(service, graph, oracle, queries, kill_every=None, seed=0):
    """Drive queries, optionally murdering a random live worker every
    ``kill_every`` queries; returns (wrong, unknowns, violations)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    wrong = unknowns = violations = 0
    for i in range(queries):
        if kill_every and i % kill_every == kill_every - 1:
            pids = [p for p in service.worker_pids() if p is not None]
            if pids:
                chaos.kill_process(rng.choice(pids))
        u, v = rng.randrange(n), rng.randrange(n)
        start = time.monotonic()
        answer = service.query(u, v, deadline_ms=DEADLINE_MS)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        if elapsed_ms > DEADLINE_MS + GRACE_MS:
            violations += 1
        if answer is UNKNOWN:
            unknowns += 1
        elif answer != oracle(u, v):
            wrong += 1
    return wrong, unknowns, violations


class TestSigkillUnderTraffic:
    def test_repeated_kills_never_produce_wrong_answers(self):
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)
        config = ShardConfig(
            num_shards=3,
            rpc_timeout_s=0.2,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.2,
        )
        with ShardService(graph, config) as service:
            wrong, unknowns, violations = run_traffic(
                service, graph, oracle, queries=150, kill_every=20
            )
            # The traffic can end before the heartbeat notices a killed
            # worker; give the supervisor time to restart one.
            deadline = time.monotonic() + 5.0
            while service.stats.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
        assert wrong == 0, f"{wrong} wrong answers under SIGKILL chaos"
        assert violations == 0, f"{violations} deadline violations"
        assert service.stats.restarts >= 1
        # Kills are cheap to recover from: most answers stay exact.
        assert unknowns < 150

    def test_service_fully_recovers_after_the_storm(self):
        graph = random_dag(200, avg_degree=2.0, seed=21)
        oracle = reachability_oracle(graph)
        config = ShardConfig(num_shards=3, supervise=False, rpc_timeout_s=0.2)
        with ShardService(graph, config) as service:
            run_traffic(service, graph, oracle, queries=60, kill_every=10)
            # Post-chaos, with every worker re-forked, service is exact.
            wrong, unknowns, violations = run_traffic(
                service, graph, oracle, queries=60, seed=99
            )
            assert wrong == 0
            assert unknowns == 0
            assert service.alive_workers() == service.num_shards


class TestSigstopUnderTraffic:
    def test_frozen_worker_costs_answers_not_correctness(self):
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)
        config = ShardConfig(
            num_shards=2,
            rpc_timeout_s=0.1,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.1,
            heartbeat_miss_limit=2,
            on_shard_loss="unknown",
        )
        with ShardService(graph, config) as service:
            victim = service.worker_pids()[0]
            chaos.freeze_process(victim)
            try:
                wrong, _unknowns, violations = run_traffic(
                    service, graph, oracle, queries=40, seed=5
                )
                assert wrong == 0
                assert violations == 0
                # The supervisor fences (kills) and replaces the frozen
                # worker; afterwards service is exact again.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    pids = service.worker_pids()
                    if pids[0] is not None and pids[0] != victim:
                        break
                    time.sleep(0.02)
                wrong, unknowns, _ = run_traffic(
                    service, graph, oracle, queries=40, seed=6
                )
                assert wrong == 0
                assert unknowns == 0
            finally:
                chaos.thaw_process(victim)


class TestChaosDrill:
    def test_drill_report_honours_the_contract(self):
        """The drill's whole fault-tolerance contract: at least 20
        faults, of them at least 3 SIGKILLs, and no wrong or late answer
        among them; supervision restarted a worker; failover was seen
        and took at most 5 s; every phase answered; and the permanently
        halted shard's pairs took the ``fallback`` path."""
        graph = random_dag(250, avg_degree=2.0, seed=42)
        report = chaos_drill(
            graph,
            num_shards=3,
            num_pairs=60,
            deadline_ms=DEADLINE_MS,
            grace_ms=GRACE_MS,
            baseline_s=0.3,
            chaos_s=1.6,
            degraded_s=0.3,
            kill_interval_s=0.05,
            seed=7,
        )
        faults = report["faults"]
        assert faults["sigkills"] + faults["sigstops"] >= 20, faults
        assert faults["sigkills"] >= 3, faults
        assert report["contract"]["wrong_answers"] == 0
        assert report["contract"]["deadline_violations"] == 0
        assert report["service_stats"]["restarts"] >= 1
        failover = report["failover_latency"]
        assert failover["count"] >= 1
        assert failover["max_ms"] <= 5_000.0, failover
        for phase in ("baseline", "chaos", "degraded"):
            assert report["phases"][phase]["queries"] >= 1
        assert report["config"]["on_shard_loss"] == "fallback"
        assert report["service_stats"]["degraded_fallback"] >= 1
        assert report["plan"]["shard_sizes"]
        assert len(report["plan"]["index_report"]) == 3

    def test_drill_unknown_loss_policy(self):
        graph = random_dag(150, avg_degree=2.0, seed=3)
        report = chaos_drill(
            graph,
            num_shards=2,
            num_pairs=40,
            deadline_ms=DEADLINE_MS,
            grace_ms=GRACE_MS,
            baseline_s=0.2,
            chaos_s=0.4,
            degraded_s=0.3,
            kill_interval_s=0.2,
            on_shard_loss="unknown",
            seed=8,
        )
        assert report["contract"]["wrong_answers"] == 0
        assert report["config"]["on_shard_loss"] == "unknown"
