"""Unit tests for the Y-ordering heuristics."""

import pytest

from repro.core.analysis import count_false_positives
from repro.core.heuristics import (
    available_heuristics,
    compute_y_order,
)
from repro.core.index import build_feline_index
from repro.exceptions import NotADAGError, ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.toposort import (
    dfs_topological_order,
    is_topological_order,
    kahn_order,
    priority_kahn_order,
    ranks_from_order,
)


class TestAvailability:
    def test_papers_heuristic_listed_first(self):
        assert available_heuristics()[0] == "max-x"

    def test_all_four_present(self):
        assert set(available_heuristics()) == {"max-x", "min-x", "fifo", "random"}

    def test_unknown_heuristic_rejected(self, paper_dag):
        x = ranks_from_order(dfs_topological_order(paper_dag))
        with pytest.raises(ReproError, match="unknown Y heuristic"):
            compute_y_order(paper_dag, x, heuristic="nope")


class TestValidity:
    @pytest.mark.parametrize("heuristic", ["max-x", "min-x", "fifo", "random"])
    def test_every_heuristic_gives_topological_order(self, any_dag, heuristic):
        x = ranks_from_order(
            dfs_topological_order(any_dag)
            if any_dag.num_vertices
            else []
        )
        order = compute_y_order(any_dag, x, heuristic=heuristic, seed=3)
        assert is_topological_order(any_dag, order)

    def test_random_heuristic_deterministic_per_seed(self, paper_dag):
        x = ranks_from_order(dfs_topological_order(paper_dag))
        a = compute_y_order(paper_dag, x, heuristic="random", seed=5)
        b = compute_y_order(paper_dag, x, heuristic="random", seed=5)
        assert a == b

    def test_random_heuristic_varies_with_seed(self):
        g = random_dag(100, avg_degree=1.5, seed=0)
        x = ranks_from_order(dfs_topological_order(g))
        a = compute_y_order(g, x, heuristic="random", seed=1)
        b = compute_y_order(g, x, heuristic="random", seed=2)
        assert a != b


    def test_max_x_on_cyclic_graph_raises_like_priority_kahn(self):
        g = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
        x = [4, 3, 2, 1, 0]
        with pytest.raises(NotADAGError) as ref:
            priority_kahn_order(g, key=lambda v: -x[v])
        with pytest.raises(NotADAGError) as got:
            compute_y_order(g, x, heuristic="max-x")
        assert str(got.value) == str(ref.value)
        assert got.value.cycle_hint == ref.value.cycle_hint == 1


class TestFifo:
    def test_fifo_is_first_in_first_out(self):
        # 0 frees 1 then 2; FIFO takes 1 next (and 3 last), LIFO takes 2.
        g = DiGraph(4, [(0, 1), (0, 2), (1, 3)])
        x = ranks_from_order(dfs_topological_order(g))
        assert compute_y_order(g, x, heuristic="fifo") == [0, 1, 2, 3]
        assert kahn_order(g) == [0, 2, 1, 3]

    def test_fifo_on_cyclic_graph_raises_like_kahn(self):
        g = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
        with pytest.raises(NotADAGError) as ref:
            kahn_order(g)
        with pytest.raises(NotADAGError) as got:
            compute_y_order(g, [0] * 5, heuristic="fifo")
        assert str(got.value) == str(ref.value)


class TestQuality:
    def test_max_x_not_worse_than_min_x_on_random_dags(self):
        """The paper's locally-optimal heuristic should produce no more
        false positives than the adversarial control, aggregated over a
        few random DAGs."""
        total_max_x = 0
        total_min_x = 0
        for seed in range(5):
            g = random_dag(60, avg_degree=1.5, seed=seed)
            for heuristic, bucket in (("max-x", "a"), ("min-x", "b")):
                coords = build_feline_index(
                    g,
                    y_heuristic=heuristic,
                    with_level_filter=False,
                    with_positive_cut=False,
                )
                fp = count_false_positives(g, coords)
                if heuristic == "max-x":
                    total_max_x += fp
                else:
                    total_min_x += fp
        assert total_max_x <= total_min_x

    def test_min_x_tends_to_copy_x(self):
        """min-x pops the lowest X rank first, making Y ≈ X, which turns
        the second dimension useless (dominance ≈ one ordering)."""
        g = random_dag(80, avg_degree=1.0, seed=1)
        coords = build_feline_index(
            g,
            y_heuristic="min-x",
            with_level_filter=False,
            with_positive_cut=False,
        )
        agreements = sum(
            1 for v in range(80) if coords.x[v] == coords.y[v]
        )
        assert agreements > 40  # Y mostly mirrors X
