"""Unit tests for topological orderings."""

import pytest

from repro import Reachability
from repro.core.index import build_feline_index
from repro.exceptions import NotADAGError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph import toposort
from repro.graph.toposort import (
    dag_post_order_ranks,
    dfs_post_order_ranks,
    dfs_topological_order,
    is_topological_order,
    kahn_order,
    priority_kahn_order,
    ranks_from_order,
)


class TestKahn:
    def test_valid_order_on_zoo(self, any_dag):
        order = kahn_order(any_dag)
        assert is_topological_order(any_dag, order)

    def test_cycle_raises(self):
        g = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(NotADAGError) as excinfo:
            kahn_order(g)
        assert excinfo.value.cycle_hint in (0, 1, 2)

    def test_empty_graph(self):
        assert kahn_order(DiGraph(0, [])) == []


class TestPriorityKahn:
    def test_valid_order_on_zoo(self, any_dag):
        x_ranks = ranks_from_order(kahn_order(any_dag))
        order = priority_kahn_order(any_dag, key=lambda v: -x_ranks[v])
        assert is_topological_order(any_dag, order)

    def test_priority_respected_among_simultaneous_roots(self):
        # Two independent roots: priority alone decides who goes first.
        g = DiGraph(4, [(0, 2), (1, 3)])
        order = priority_kahn_order(g, key=lambda v: -v)
        assert order[0] == 1  # highest id = lowest key

    def test_ties_broken_deterministically(self):
        g = DiGraph(3, [])
        first = priority_kahn_order(g, key=lambda v: 0)
        second = priority_kahn_order(g, key=lambda v: 0)
        assert first == second

    def test_cycle_raises(self):
        g = DiGraph(2, [(0, 1), (1, 0)])
        with pytest.raises(NotADAGError):
            priority_kahn_order(g, key=lambda v: v)


class TestDFSOrders:
    def test_post_order_ranks_are_permutation(self, any_dag):
        ranks = dfs_post_order_ranks(any_dag)
        assert sorted(ranks) == list(range(any_dag.num_vertices))

    def test_post_order_respects_edges(self, any_dag):
        # In a DAG DFS, a target always finishes before its source.
        ranks = dfs_post_order_ranks(any_dag)
        for u, v in any_dag.edges():
            assert ranks[v] < ranks[u]

    def test_dfs_topological_order_valid(self, any_dag):
        order = dfs_topological_order(any_dag)
        assert is_topological_order(any_dag, order)

    def test_dfs_topological_order_cycle_raises(self):
        g = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(NotADAGError):
            dfs_topological_order(g)

    def test_root_order_changes_result(self):
        g = DiGraph(4, [(0, 2), (1, 2), (2, 3)])
        default = dfs_post_order_ranks(g)
        flipped = dfs_post_order_ranks(g, root_order=[1, 0, 2, 3])
        assert list(default) != list(flipped)

    def test_deep_path_no_recursion_error(self):
        n = 30000
        g = DiGraph(n, [(i, i + 1) for i in range(n - 1)])
        order = dfs_topological_order(g)
        assert order == list(range(n))


class TestDagPostOrder:
    def test_dag_gives_the_dfs_post_order(self, any_dag):
        assert dag_post_order_ranks(any_dag) == dfs_post_order_ranks(
            DiGraph(any_dag.num_vertices, list(any_dag.edges()))
        )

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1), (1, 2), (2, 0)], [(0, 1), (2, 2)], [(0, 1), (1, 0)]],
        ids=["triangle", "self-loop", "two-cycle"],
    )
    def test_cycle_or_self_loop_gives_none(self, edges):
        g = DiGraph(3, edges)
        assert dag_post_order_ranks(g) is None
        assert dag_post_order_ranks(g) is None

    def test_finished_dfs_is_shared_and_copied(self, monkeypatch):
        g = random_dag(200, avg_degree=2.0, seed=8)
        expected = list(dfs_post_order_ranks(DiGraph(200, list(g.edges()))))
        post = dag_post_order_ranks(g)
        post[0] = -1
        monkeypatch.setattr(toposort, "_dfs_post_order", None)  # no rerun
        assert list(dag_post_order_ranks(g)) == expected
        assert list(dfs_post_order_ranks(g)) == expected


class TestHelpers:
    def test_ranks_from_order_inverts(self):
        order = [2, 0, 1]
        ranks = ranks_from_order(order)
        assert list(ranks) == [1, 2, 0]

    def test_is_topological_order_rejects_non_permutation(self, paper_dag):
        assert not is_topological_order(paper_dag, [0] * 8)

    def test_is_topological_order_rejects_edge_violation(self):
        g = DiGraph(2, [(0, 1)])
        assert not is_topological_order(g, [1, 0])
        assert is_topological_order(g, [0, 1])


class TestArtifactCache:
    """The default-root orders are cached per graph; callers get copies."""

    @staticmethod
    def _fresh(graph):
        return DiGraph(graph.num_vertices, list(graph.edges()), name=graph.name)

    def test_mutating_a_returned_order_changes_nothing(self):
        g = random_dag(200, avg_degree=2.5, seed=5)
        expected = dfs_topological_order(self._fresh(g))
        first = dfs_topological_order(g)
        first.reverse()
        post = dfs_post_order_ranks(g)
        post[0] = -7
        assert dfs_topological_order(g) == expected
        assert list(dfs_post_order_ranks(g)) == list(
            dfs_post_order_ranks(self._fresh(g))
        )
        built = build_feline_index(g)
        reference = build_feline_index(self._fresh(g))
        assert built.x == reference.x and built.y == reference.y

    def test_reversal_does_not_see_the_forward_cache(self):
        g = random_dag(200, avg_degree=2.5, seed=6)
        forward = dfs_topological_order(g)
        rev = g.reversed()
        expected = dfs_topological_order(
            DiGraph(g.num_vertices, [(v, u) for u, v in g.edges()])
        )
        assert dfs_topological_order(rev) == expected != forward
        assert dfs_topological_order(g) == forward

    def test_root_order_calls_are_not_cached(self):
        g = random_dag(200, avg_degree=2.5, seed=7)
        expected = dfs_topological_order(self._fresh(g))
        roots = list(reversed(range(g.num_vertices)))
        custom = dfs_topological_order(g, root_order=roots)
        assert custom != expected
        assert is_topological_order(g, custom)
        assert dfs_topological_order(g) == expected
        assert dfs_topological_order(g, root_order=roots) == custom
        assert list(dfs_post_order_ranks(g, root_order=roots)) != list(
            dfs_post_order_ranks(g)
        )

    def test_cyclic_graph_raises_on_every_call(self):
        g = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
        for _ in range(2):
            with pytest.raises(NotADAGError, match=r"edge \(2, 0\)"):
                dfs_topological_order(g)

    def test_facade_built_twice_on_one_graph_is_identical(self):
        g = random_dag(400, avg_degree=3.0, seed=8)
        pairs = [(u, (u * 7 + 3) % 400) for u in range(400)]
        runs = []
        for _ in range(2):
            reach = Reachability(g, observers=4)
            answers = reach.reachable_many(pairs)
            coords = reach.index.coordinates
            layer = reach.index.observers
            runs.append((
                answers,
                reach.stats.as_dict(),
                coords.x, coords.y, coords.levels,
                coords.tree_intervals.start, coords.tree_intervals.post,
                [getattr(layer, f).tobytes() for f in ("t1", "t2", "fmax", "bmin",
                                                       "supports", "fwd_bits",
                                                       "bwd_bits")],
            ))
        assert runs[0] == runs[1]
