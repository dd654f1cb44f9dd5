"""Unit tests for level (depth) computation."""

import itertools

import pytest

from repro.core.index import build_feline_index
from repro.exceptions import NotADAGError
from repro.graph.digraph import DiGraph
from repro.graph import levels as levels_module
from repro.graph.generators import layered_dag, path_graph, random_dag
from repro.graph.levels import compute_levels, level_histogram, level_order
from repro.graph.traversal import dfs_reachable


class TestComputeLevels:
    def test_roots_are_level_zero(self, any_dag):
        levels = compute_levels(any_dag)
        for v in any_dag.roots():
            assert levels[v] == 0

    def test_level_is_one_plus_max_predecessor(self, any_dag):
        levels = compute_levels(any_dag)
        for v in range(any_dag.num_vertices):
            preds = list(any_dag.predecessors(v))
            if preds:
                assert levels[v] == 1 + max(levels[p] for p in preds)

    def test_level_filter_invariant(self, any_dag):
        """r(u, v) with u != v implies level(u) < level(v) — §3.4.2."""
        levels = compute_levels(any_dag)
        n = any_dag.num_vertices
        for u in range(n):
            for v in range(n):
                if u != v and dfs_reachable(any_dag, u, v):
                    assert levels[u] < levels[v]

    def test_path_graph_levels(self):
        g = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert list(compute_levels(g)) == [0, 1, 2, 3]

    def test_longest_path_not_shortest(self):
        # 0 -> 3 directly and via 1 -> 2: level of 3 is the LONGEST path.
        g = DiGraph(4, [(0, 3), (0, 1), (1, 2), (2, 3)])
        assert compute_levels(g)[3] == 3

    def test_cycle_raises(self):
        with pytest.raises(NotADAGError):
            compute_levels(DiGraph(2, [(0, 1), (1, 0)]))

    def test_empty_graph(self):
        assert list(compute_levels(DiGraph(0, []))) == []


class TestHistogram:
    def test_histogram_sums_to_vertex_count(self, any_dag):
        levels = compute_levels(any_dag)
        histogram = level_histogram(levels)
        assert sum(histogram) == any_dag.num_vertices

    def test_histogram_empty(self):
        assert level_histogram(compute_levels(DiGraph(0, []))) == []

    def test_histogram_path(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        assert level_histogram(compute_levels(g)) == [1, 1, 1]


class TestLevelCache:
    """Levels are cached per graph; callers get copies."""

    def test_mutating_returned_levels_changes_nothing(self):
        g = random_dag(300, avg_degree=2.5, seed=9)
        expected = list(compute_levels(DiGraph(300, list(g.edges()))))
        levels = compute_levels(g)
        levels[0] = 99
        order, bounds = level_order(g)
        order[:] = -1
        bounds[:] = 0
        assert list(compute_levels(g)) == expected
        order, bounds = level_order(g)
        assert order.tolist() == sorted(range(300), key=lambda v: (expected[v], v))
        assert bounds.tolist() == [0, *itertools.accumulate(level_histogram(expected))]
        assert list(build_feline_index(g).levels) == expected

    def test_reversal_does_not_see_the_forward_cache(self):
        g = DiGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert list(compute_levels(g)) == [0, 1, 2]
        assert list(compute_levels(g.reversed())) == [2, 1, 0]
        assert list(compute_levels(g)) == [0, 1, 2]

    def test_cyclic_graph_raises_on_every_call(self):
        g = DiGraph(4, [(0, 1), (1, 2), (2, 1), (3, 0)])
        for _ in range(2):
            with pytest.raises(NotADAGError, match="vertex 1 never became"):
                compute_levels(g)


def _deep_then_wide() -> DiGraph:
    # A 400-vertex chain feeding a wide random DAG: the peel goes per
    # vertex at the first narrow round and must still finish the rest.
    wide = random_dag(600, avg_degree=3.0, seed=5)
    edges = [(v, v + 1) for v in range(399)] + [(399, 400)]
    edges += [(u + 400, v + 400) for u, v in wide.edges()]
    return DiGraph(1000, edges)


def _wide_then_deep() -> DiGraph:
    wide = random_dag(600, avg_degree=3.0, seed=6)
    edges = list(wide.edges()) + [(v, v + 1) for v in range(599, 999)]
    return DiGraph(1000, edges)


class TestPeelSwitch:
    """The numpy peel and its per-vertex finish give the same levels."""

    GRAPHS = {
        "random": lambda: random_dag(500, avg_degree=4.0, seed=3),
        "path": lambda: path_graph(700),
        "layered": lambda: layered_dag(60, 8, 0.4, seed=2),
        "deep-then-wide": _deep_then_wide,
        "wide-then-deep": _wide_then_deep,
        "cyclic": lambda: DiGraph(
            600,
            list(random_dag(600, avg_degree=3.0, seed=7).edges())
            + [(550, 20), (420, 419)],
        ),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_levels_independent_of_the_switch_point(self, monkeypatch, name):
        outcomes = []
        for threshold in (0, levels_module.PEEL_MIN_WORK, 10**9):
            monkeypatch.setattr(levels_module, "PEEL_MIN_WORK", threshold)
            graph = self.GRAPHS[name]()
            try:
                outcomes.append(
                    (list(compute_levels(graph)), *map(list, level_order(graph)))
                )
            except NotADAGError as exc:
                outcomes.append((str(exc), exc.cycle_hint))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_levels_match_the_longest_path_definition(self):
        g = _deep_then_wide()
        levels = compute_levels(g)
        for v in range(g.num_vertices):
            preds = g.predecessors(v)
            expected = 1 + max(levels[u] for u in preds) if preds else 0
            assert levels[v] == expected
