"""The grouped shard batch path: one RPC per (shard, sub-batch).

``ShardService.reachable_many`` used to loop ``reachable`` per pair —
every same-shard pair paid a full RPC round trip.  The fixed path
groups surviving same-shard pairs per owning shard and ships each group
as chunked ``local_many`` sub-batches, while cross-shard pairs keep the
gateway-product path.  Contract: answers, degradation and deadline
semantics are identical to the per-pair loop, and the coordinator
issues **at most one RPC per (shard, sub-batch)** for the local work.
"""

import numpy as np
import pytest

import repro
from repro.exceptions import QueryBudgetExceeded
from repro.graph.generators import crown_graph, random_dag, random_digraph
from repro.obs.slowlog import SlowQueryLog
from repro.resilience import UNKNOWN, QueryBudget, chaos
from repro.shard import ShardConfig, ShardService
from tests.batch_cases import ACCEPTED, EMPTY, MALFORMED, N, PAIRS
from tests.conftest import reachability_oracle
from tests.shard.test_service import FAST, sample_pairs


class _RpcSpy:
    """Wraps ``service._rpc`` and records (shard, op) per call."""

    def __init__(self, service):
        self.calls = []
        self._orig = service._rpc
        service._rpc = self

    def __call__(self, shard_id, op, payload, deadline_at, timeout_s=None):
        self.calls.append((shard_id, op))
        return self._orig(
            shard_id, op, payload, deadline_at, timeout_s=timeout_s
        )

    def count(self, op):
        return sum(1 for _, o in self.calls if o == op)


class TestGrouping:
    def test_one_rpc_per_shard_subbatch(self):
        graph = random_dag(300, avg_degree=2.0, seed=17)
        pairs = sample_pairs(graph, count=400, seed=5)
        with ShardService(graph, FAST) as service:
            scalar = [service.reachable(u, v) for u, v in pairs]
            spy = _RpcSpy(service)
            batch = service.reachable_many(pairs)
            assert batch == scalar
            assert spy.count("local") == 0, (
                "grouped batch must not fall back to per-pair local RPCs"
            )
            # 2 shards, sub-batches ≤ _LOCAL_MANY_CHUNK: ≤ 1 RPC each.
            assert spy.count("local_many") <= service.num_shards

    def test_chunking_splits_oversized_groups(self):
        graph = random_dag(200, avg_degree=2.0, seed=3)
        oracle = reachability_oracle(graph)
        with ShardService(graph, FAST) as service:
            service._LOCAL_MANY_CHUNK = 16
            pairs = sample_pairs(graph, count=300, seed=8)
            spy = _RpcSpy(service)
            batch = service.reachable_many(pairs)
        assert spy.count("local_many") >= 1
        assert spy.count("local") == 0
        for _, op in spy.calls:
            assert op in ("local_many", "route_out", "route_in")
        assert batch == [oracle(u, v) for u, v in pairs]

    def test_empty_batch_is_free(self):
        with ShardService(random_dag(50, avg_degree=1.5, seed=1), FAST) as s:
            spy = _RpcSpy(s)
            assert s.reachable_many([]) == []
            assert spy.calls == []
            assert s.stats.queries == 0

    def test_cut_only_batch_needs_no_rpc(self):
        # A pair killed by the coordinator's own cuts never travels.
        graph = random_dag(100, avg_degree=2.0, seed=2)
        with ShardService(graph, FAST) as service:
            reflexive = [(v, v) for v in range(50)]
            spy = _RpcSpy(service)
            assert service.reachable_many(reflexive) == [True] * 50
            assert spy.calls == []


class TestSemantics:
    def test_matches_oracle_with_duplicates(self):
        graph = random_dag(150, avg_degree=2.0, seed=7)
        oracle = reachability_oracle(graph)
        pairs = sample_pairs(graph, count=80, seed=4)
        pairs = pairs + pairs[:20] + pairs[:20]  # duplicates ride along
        with ShardService(graph, FAST) as service:
            batch = service.reachable_many(pairs)
        assert batch == [oracle(u, v) for u, v in pairs]

    def test_spent_deadline_degrades_not_lies(self):
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)
        pairs = sample_pairs(graph, count=50, seed=3)
        with ShardService(graph, FAST) as service:
            answers = service.query_many(pairs, deadline_ms=1e-6)
        assert any(a is UNKNOWN for a in answers)
        for (u, v), answer in zip(pairs, answers):
            if answer is not UNKNOWN:
                assert answer == oracle(u, v)

    def test_budget_raise_policy_raises_in_pair_order(self):
        graph = crown_graph(6)
        pairs = sample_pairs(graph, count=50, seed=3)
        with ShardService(graph, FAST) as service:
            with pytest.raises(QueryBudgetExceeded):
                service.reachable_many(
                    pairs,
                    budget=QueryBudget(deadline_s=1e-9, policy="raise"),
                )

    def test_batch_with_observers_matches_scalar(self):
        graph = random_dag(150, avg_degree=2.0, seed=13)
        config = ShardConfig(num_shards=2, supervise=False, observers=4)
        pairs = sample_pairs(graph, count=100, seed=9)
        with ShardService(graph, config) as service:
            batch = service.reachable_many(pairs)
            assert batch == [service.reachable(u, v) for u, v in pairs]


class TestBatchBoundary:
    """``query_many`` takes the facade's inputs and rejects malformed
    ones the same way, before any RPC or counter moves."""

    def test_same_inputs_and_errors_as_the_facade(self):
        graph = random_digraph(N, 20, seed=4)  # cyclic: condensed first
        facade = repro.Reachability(graph)
        want = facade.reachable_many(PAIRS)
        with ShardService(graph, FAST) as service:
            for name, make in ACCEPTED:
                assert service.query_many(make(PAIRS)) == want, name
            queries = service.stats.queries
            spy = _RpcSpy(service)
            for name, make, error, vertex in MALFORMED:
                with pytest.raises(error) as raised:
                    service.query_many(make())
                if vertex is not None:
                    assert raised.value.vertex == vertex, name
            for _, make in EMPTY:
                assert service.query_many(make()) == []
            assert spy.calls == []
            assert service.stats.queries == queries

    def test_array_batch_logs_plain_int_ids(self):
        graph = random_dag(150, avg_degree=2.0, seed=7)
        pairs = sample_pairs(graph, count=80, seed=4)
        with ShardService(graph, FAST) as service:
            want = service.query_many(pairs)
            log = service.attach_slow_log(SlowQueryLog(threshold_ns=0))
            got = service.query_many(np.asarray(pairs, dtype=np.int32))
        assert got == want
        records = log.records()
        assert records
        assert all(type(r.u) is int and type(r.v) is int for r in records)
        assert {(r.u, r.v) for r in records} <= set(pairs)


class TestChaos:
    def test_failed_batched_op_degrades_whole_subbatch_honestly(self):
        # A hook the forked workers inherit: every local_many RPC dies
        # on arrival, so the coordinator exhausts its retries and must
        # degrade the sub-batch — to exact fallback answers, not lies.
        graph = random_dag(120, avg_degree=2.0, seed=19)
        oracle = reachability_oracle(graph)

        def die(op=None, **context):
            if op == "local_many":
                raise chaos.InjectedFault(
                    "local_many rejected", point="shard.worker.request"
                )

        chaos.install("shard.worker.request", die)
        try:
            config = ShardConfig(
                num_shards=2,
                supervise=False,
                on_shard_loss="fallback",
                fallback_nodes=1 << 16,
            )
            with ShardService(graph, config) as service:
                pairs = sample_pairs(graph, count=60, seed=6)
                answers = service.reachable_many(pairs)
        finally:
            chaos.clear()
        for (u, v), answer in zip(pairs, answers):
            if answer is not UNKNOWN:
                assert answer == oracle(u, v)
        assert service.stats.degraded_fallback > 0

    def test_unknown_loss_policy_blankets_subbatch(self):
        graph = random_dag(120, avg_degree=2.0, seed=23)
        oracle = reachability_oracle(graph)

        def die(op=None, **context):
            if op == "local_many":
                raise chaos.InjectedFault(
                    "local_many rejected", point="shard.worker.request"
                )

        chaos.install("shard.worker.request", die)
        try:
            config = ShardConfig(
                num_shards=2, supervise=False, on_shard_loss="unknown"
            )
            with ShardService(graph, config) as service:
                pairs = sample_pairs(graph, count=60, seed=6)
                answers = service.reachable_many(pairs)
        finally:
            chaos.clear()
        assert any(a is UNKNOWN for a in answers)
        for (u, v), answer in zip(pairs, answers):
            if answer is not UNKNOWN:
                assert answer == oracle(u, v)

    def test_kills_between_batches_never_produce_wrong_answers(self):
        import random

        graph = random_dag(150, avg_degree=2.0, seed=29)
        oracle = reachability_oracle(graph)
        rng = random.Random(0)
        config = ShardConfig(
            num_shards=2, supervise=False, fallback_nodes=1 << 16
        )
        wrong = 0
        with ShardService(graph, config) as service:
            for round_id in range(4):
                pids = [p for p in service.worker_pids() if p is not None]
                if pids and round_id:
                    chaos.kill_process(rng.choice(pids))
                pairs = sample_pairs(graph, count=40, seed=round_id)
                for (u, v), answer in zip(
                    pairs, service.reachable_many(pairs)
                ):
                    if answer is not UNKNOWN and answer != oracle(u, v):
                        wrong += 1
        assert wrong == 0, f"{wrong} wrong answers under SIGKILL chaos"
