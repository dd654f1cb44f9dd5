"""Property-based tests over whole indexes (hypothesis)."""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.chain_cover import (
    ChainCoverIndex,
    greedy_chain_decomposition,
)
from repro.baselines.grail import GrailIndex
from repro.core.analysis import dominance_pair_count
from repro.core.bidirectional import FelineBIndex
from repro.core.index import build_feline_index
from repro.graph.digraph import DiGraph
from repro.graph.transitive import count_reachable_pairs
from repro.graph.traversal import dfs_reachable

from tests.property.test_invariants import dags


class TestDominanceIdentity:
    @given(dags(max_vertices=20))
    @settings(max_examples=40, deadline=None)
    def test_dominance_counts_reachable_plus_false_positives(self, g):
        coords = build_feline_index(
            g, with_level_filter=False, with_positive_cut=False
        )
        from repro.core.analysis import count_false_positives

        assert dominance_pair_count(coords) == count_reachable_pairs(
            g
        ) + count_false_positives(g, coords)


class TestChainCoverProperties:
    @given(dags(max_vertices=18))
    @settings(max_examples=40, deadline=None)
    def test_query_matches_dfs(self, g):
        index = ChainCoverIndex(g).build()
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                assert index.query(u, v) == dfs_reachable(g, u, v)

    @given(dags(max_vertices=20))
    @settings(max_examples=40, deadline=None)
    def test_chain_count_at_most_vertices(self, g):
        _, _, k = greedy_chain_decomposition(g)
        assert 0 <= k <= g.num_vertices
        if g.num_vertices:
            assert k >= 1


class TestGrailProperties:
    @given(dags(max_vertices=16), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_containment_necessary_for_reachability(self, g, d):
        index = GrailIndex(g, num_labelings=d, seed=7).build()
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                if dfs_reachable(g, u, v):
                    assert all(
                        labels.contains(u, v) for labels in index.labelings
                    )

    @given(dags(max_vertices=14))
    @settings(max_examples=25, deadline=None)
    def test_query_matches_dfs(self, g):
        index = GrailIndex(g, num_labelings=2, seed=1).build()
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                assert index.query(u, v) == dfs_reachable(g, u, v)


class TestFelineBProperties:
    @given(dags(max_vertices=14))
    @settings(max_examples=25, deadline=None)
    def test_query_matches_dfs(self, g):
        index = FelineBIndex(g).build()
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                assert index.query(u, v) == dfs_reachable(g, u, v)

    @given(dags(max_vertices=16))
    @settings(max_examples=25, deadline=None)
    def test_both_dominance_directions_necessary(self, g):
        index = FelineBIndex(g).build()
        fwd, bwd = index.forward, index.backward
        for u, v in g.edges():
            assert fwd.x[u] <= fwd.x[v] and fwd.y[u] <= fwd.y[v]
            assert bwd.x[v] <= bwd.x[u] and bwd.y[v] <= bwd.y[u]


class TestEdgeStreamEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_incremental_equals_static_for_any_insertion_order(self, seed):
        from repro.core.incremental import IncrementalFelineIndex
        from repro.graph.generators import random_dag

        g = random_dag(25, avg_degree=2.0, seed=seed % 50)
        edges = list(g.edges())
        Random(seed).shuffle(edges)
        index = IncrementalFelineIndex(DiGraph(25, []))
        for u, v in edges:
            index.add_edge(u, v)
        for u in range(25):
            for v in range(25):
                assert index.query(u, v) == dfs_reachable(g, u, v)
