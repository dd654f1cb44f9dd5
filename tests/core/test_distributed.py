"""Distributed FELINE (the paper's announced extension) as run by
:mod:`repro.shard`: X-slab partitioning, answers on the whole DAG zoo at
several shard counts, and the cost counters a deployment tunes."""

import pytest

from repro.core.query import FelineIndex
from repro.exceptions import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import crown_graph, path_graph, random_dag
from repro.shard import ShardConfig, ShardService, build_shard_plan

from tests.conftest import all_pairs, reachability_oracle


def service(graph, num_shards):
    return ShardService(
        graph, ShardConfig(num_shards=num_shards, supervise=False)
    )


def run(graph, num_shards, pairs):
    """Answers and coordinator stats of one batch on a fresh service."""
    with service(graph, num_shards) as svc:
        answers = svc.reachable_many(pairs)
    return answers, svc.stats


class TestSetup:
    def test_invalid_shard_count(self, paper_dag):
        with pytest.raises(ReproError):
            service(paper_dag, 0)

    def test_shards_cover_all_vertices(self):
        plan = build_shard_plan(random_dag(200, avg_degree=2.0, seed=1), 5)
        assert sum(plan.shard_sizes()) == 200

    def test_slabs_are_contiguous_in_x(self):
        plan = build_shard_plan(random_dag(200, avg_degree=2.0, seed=1), 5)
        x = plan.coords.x
        for u in range(200):
            for v in range(200):
                if x[u] < x[v]:
                    assert plan.shard_of(u) <= plan.shard_of(v)

    def test_more_shards_than_vertices_clamped(self):
        with service(DiGraph(3, [(0, 1)]), 10) as svc:
            assert svc.num_shards == 3

    def test_balanced_sizes(self):
        sizes = build_shard_plan(
            random_dag(400, avg_degree=1.5, seed=2), 4
        ).shard_sizes()
        assert max(sizes) - min(sizes) <= 1


class TestCorrectness:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_matches_oracle_on_zoo(self, any_dag, num_shards):
        oracle = reachability_oracle(any_dag)
        pairs = all_pairs(any_dag)
        answers, _ = run(any_dag, num_shards, pairs)
        assert answers == [oracle(u, v) for u, v in pairs]

    def test_crown_cross_shard_correct(self):
        g = crown_graph(8)
        oracle = reachability_oracle(g)
        with service(g, 4) as svc:
            for u, v in all_pairs(g):
                assert svc.reachable(u, v) == oracle(u, v), (u, v)
        assert svc.stats.cross_queries > 0

    def test_single_shard_equals_plain_feline(self):
        g = random_dag(120, avg_degree=2.5, seed=3)
        pairs = all_pairs(g)[:4000]
        answers, _ = run(g, 1, pairs)
        assert answers == FelineIndex(g).build().query_many(pairs)


class TestCostModel:
    def test_negative_cuts_cost_no_messages(self):
        g = random_dag(300, avg_degree=1.0, seed=4)
        _, stats = run(g, 4, all_pairs(g)[:3000])
        # Sparse random pairs: the coordinator's dominance cut answers
        # most queries without any shard RPC.
        assert stats.negative_cuts > 0
        assert stats.local_queries + stats.cross_queries < stats.queries

    def test_single_shard_never_messages(self):
        g = random_dag(150, avg_degree=3.0, seed=5)
        _, stats = run(g, 1, all_pairs(g)[:3000])
        assert stats.cross_queries == 0

    def test_path_across_shards_messages(self):
        # Most crown pairs escape the coordinator's cuts; at five
        # shards some of them must cross a slab boundary.
        g = crown_graph(20)
        _, stats = run(g, 5, all_pairs(g))
        assert stats.cross_queries >= 1

    def test_expansion_counters_populated(self):
        g = random_dag(200, avg_degree=3.0, seed=6)
        _, stats = run(g, 3, all_pairs(g)[:5000])
        assert stats.local_queries > 0


class TestReprAndEdgeCases:
    def test_repr(self):
        with service(random_dag(50, avg_degree=1.0, seed=8), 2) as svc:
            assert "shards=2" in repr(svc)

    def test_reflexive_query(self):
        with service(random_dag(30, avg_degree=1.0, seed=9), 3) as svc:
            assert svc.reachable(5, 5)

    def test_positive_cut_avoids_search(self):
        with service(path_graph(40), 4) as svc:
            assert svc.reachable(0, 39)  # tree interval answers in O(1)
        assert svc.stats.positive_cuts == 1
        assert svc.stats.local_queries + svc.stats.cross_queries == 0
