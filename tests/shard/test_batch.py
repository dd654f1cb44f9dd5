"""The grouped shard batch path: one RPC per (shard, frame).

``ShardService.query_many`` groups surviving same-shard pairs per
owning shard and ships each group as chunked ``local_many`` frames;
cross-shard pairs travel as one ``route_out`` frame per source shard
and one ``route_in`` frame per target shard.  Contract: answers,
degradation and deadline semantics are identical to the per-pair loop,
the coordinator issues **at most one RPC per (shard, frame)**, and a
lost shard degrades only the pairs routed through it.
"""

import time

import numpy as np
import pytest

import repro
from repro.exceptions import QueryBudgetExceeded
from repro.graph.generators import crown_graph, random_dag, random_digraph
from repro.obs.slowlog import SlowQueryLog
from repro.resilience import UNKNOWN, QueryBudget, chaos
from repro.shard import ShardConfig, ShardService
from repro.shard.worker import PER_PAIR_FRAME, _handle
from tests.batch_cases import ACCEPTED, EMPTY, MALFORMED, N, PAIRS
from tests.conftest import all_pairs, reachability_oracle
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


    def test_cross_pairs_ride_one_frame_per_shard(self):
        graph = random_dag(80, avg_degree=2.0, seed=31)
        oracle = reachability_oracle(graph)
        pairs = all_pairs(graph)
        config = ShardConfig(
            num_shards=4, supervise=False, rpc_timeout_s=0.2,
            on_shard_loss="unknown",
        )
        with ShardService(graph, config) as service:
            spy = _RpcSpy(service)
            assert service.query_many(pairs) == [
                oracle(u, v) for u, v in pairs
            ]
            assert service.stats.cross_queries > 0
            for op in ("route_out", "route_in"):
                sent = [shard for shard, o in spy.calls if o == op]
                assert sent, op
                assert len(sent) == len(set(sent)), (op, sent)
            lost = 1
            service.halt_worker(lost)
            answers = service.query_many(pairs)
        scc, owner = service.condensation.scc_of, service.plan.owner_of
        for (u, v), answer in zip(pairs, answers):
            if answer is UNKNOWN:
                # Only a pair whose route touches the lost shard.
                assert lost in (owner[scc[u]], owner[scc[v]]), (u, v)
            else:
                assert answer == oracle(u, v), (u, v)
        assert any(answer is UNKNOWN for answer in answers)


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

    def test_slow_backbone_search_stays_within_the_deadline(
        self, monkeypatch
    ):
        # Every backbone search takes 25 ms and no clock interrupts it.
        # A cross-shard pair with >= 12 gateway products must still come
        # back UNKNOWN within about its own deadline, alone and in a batch.
        graph = random_dag(120, avg_degree=3.0, seed=1)
        oracle = reachability_oracle(graph)
        deadline_s, pause_s = 0.1, 0.025
        with ShardService(graph, FAST) as service:
            scc, plan = service.condensation.scc_of, service.plan
            owner = plan.owner_of

            def products(u, v):
                cu, cv = scc[u], scc[v]
                if (owner[cu] == owner[cv] or oracle(u, v)
                        or plan.cuts.classify_one(cu, cv) is not None):
                    return 0
                return (len(plan.shards[owner[cu]].out_gateways[cu])
                        * len(plan.shards[owner[cv]].in_gateways[cv]))

            pairs = [p for p in all_pairs(graph) if products(*p) >= 12][:4]
            assert len(pairs) == 4
            backbone = plan.backbone_index
            query, query_many = backbone.query, backbone.query_many

            def slow_query(u, v, budget=None):
                time.sleep(pause_s)
                return query(u, v, budget=budget)

            def slow_query_many(batch, budget=None):
                time.sleep(pause_s * len(batch))
                return query_many(batch, budget=budget)

            monkeypatch.setattr(backbone, "query", slow_query)
            monkeypatch.setattr(backbone, "query_many", slow_query_many)
            bound = deadline_s + 4 * pause_s
            start = time.monotonic()
            assert service.query(*pairs[0], deadline_ms=deadline_s * 1e3) is (
                UNKNOWN
            )
            assert time.monotonic() - start < bound
            start = time.monotonic()
            answers = service.query_many(pairs, deadline_ms=deadline_s * 1e3)
            assert time.monotonic() - start < len(pairs) * bound
            assert answers == [UNKNOWN] * len(pairs)
            assert service.stats.deadline_unknowns == 1 + len(pairs)

    def test_gateway_product_stops_at_first_hit(self, monkeypatch):
        # A cross-shard pair whose first gateway product is reachable on
        # the backbone costs one backbone search, however many remain.
        graph = random_dag(120, avg_degree=3.0, seed=1)
        oracle = reachability_oracle(graph)
        with ShardService(graph, FAST) as service:
            scc, plan = service.condensation.scc_of, service.plan
            owner, backbone = plan.owner_of, plan.backbone_index

            def first_hit(u, v):
                cu, cv = scc[u], scc[v]
                if (owner[cu] == owner[cv] or not oracle(u, v)
                        or cv in plan.shards[owner[cu]].out_neighbors[cu]
                        or plan.cuts.classify_one(cu, cv) is not None):
                    return False
                outs = plan.shards[owner[cu]].out_gateways[cu]
                ins = plan.shards[owner[cv]].in_gateways[cv]
                return (len(outs) * len(ins) >= 4
                        and backbone.query(outs[0], ins[0]) is True)

            pair = next(p for p in all_pairs(graph) if first_hit(*p))
            calls = []
            query, query_many = backbone.query, backbone.query_many

            def counted(b1, b2, budget=None):
                calls.append((b1, b2))
                return query(b1, b2, budget=budget)

            def counted_many(batch, budget=None):
                calls.extend(batch)
                return query_many(batch, budget=budget)

            monkeypatch.setattr(backbone, "query", counted)
            monkeypatch.setattr(backbone, "query_many", counted_many)
            assert service.query(*pair) is True
            assert service.query_many([pair, pair]) == [True, True]
        assert len(calls) == 3

    def test_small_and_large_frames_answer_alike(self):
        # A worker answers a frame of up to PER_PAIR_FRAME pairs with
        # per-pair index.query and a larger one with query_many: same
        # answers either way, with and without a per-pair allowance.
        graph = random_dag(150, avg_degree=2.0, seed=7)
        with ShardService(graph, FAST) as service:
            state = service.plan.shards[0]
            oracle = reachability_oracle(service.plan.dag)
            owned = state.owned
            pairs = [(u, v) for u in owned for v in owned][:8 * PER_PAIR_FRAME]
            for budget_ms in (None, 1000.0):
                large = _handle(state, "local_many", (pairs, budget_ms))
                small = [
                    answer
                    for begin in range(0, len(pairs), PER_PAIR_FRAME)
                    for answer in _handle(
                        state, "local_many",
                        (pairs[begin:begin + PER_PAIR_FRAME], budget_ms),
                    )
                ]
                assert large == small == [oracle(u, v) for u, v in pairs]
            assert _handle(state, "local_many", (pairs[:1], 0.0)) == [None]

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
