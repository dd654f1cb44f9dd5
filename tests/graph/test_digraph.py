"""Unit tests for the CSR DiGraph representation."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.digraph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_vertices_without_edges(self):
        g = DiGraph(5, [])
        assert g.num_vertices == 5
        assert all(g.out_degree(v) == 0 for v in g.vertices())
        assert all(g.in_degree(v) == 0 for v in g.vertices())

    def test_simple_edges(self):
        g = DiGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.num_edges == 3
        assert sorted(g.successors(0)) == [1, 2]
        assert list(g.successors(1)) == [2]
        assert list(g.successors(2)) == []

    def test_predecessors_mirror_successors(self):
        g = DiGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert list(g.predecessors(0)) == []
        assert list(g.predecessors(1)) == [0]
        assert sorted(g.predecessors(2)) == [0, 1]

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(-1, [])

    def test_out_of_range_source_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(2, [(2, 0)])

    def test_out_of_range_target_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(2, [(0, 5)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(2, [(0, -1)])

    def test_endpoint_past_int64_is_an_out_of_range_error(self):
        message = rf"edge endpoint {2**70} out of range \[0, 3\)"
        with pytest.raises(GraphError, match=message):
            DiGraph(3, [(0, 2**70)])

    def test_first_bad_endpoint_reported_sources_before_targets(self):
        with pytest.raises(GraphError, match=r"endpoint 7 out of range \[0, 3\)"):
            DiGraph(3, [(0, 9), (7, 1), (1, 2**70)])
        with pytest.raises(GraphError, match=r"endpoint 9 out of range \[0, 3\)"):
            DiGraph(3, [(0, 9), (1, 2**70)])

    def test_duplicate_edges_kept(self):
        g = DiGraph(2, [(0, 1), (0, 1)])
        assert g.num_edges == 2
        assert list(g.successors(0)) == [1, 1]

    def test_self_loop_allowed_in_raw_graph(self):
        g = DiGraph(2, [(0, 0), (0, 1)])
        assert g.num_edges == 2
        assert 0 in g.successors(0)


class TestFactories:
    def test_from_edges_infers_vertex_count(self):
        g = DiGraph.from_edges([(0, 4), (2, 3)])
        assert g.num_vertices == 5

    def test_from_edges_empty(self):
        g = DiGraph.from_edges([])
        assert g.num_vertices == 0

    def test_from_edges_explicit_count(self):
        g = DiGraph.from_edges([(0, 1)], num_vertices=10)
        assert g.num_vertices == 10

    def test_from_arrays_matches_edge_constructor(self):
        rng = np.random.default_rng(3)
        sources = rng.integers(0, 40, size=300)
        targets = rng.integers(0, 40, size=300)
        edges = list(zip(sources.tolist(), targets.tolist()))
        expected = DiGraph(40, edges, name="g")
        for dtype in (np.int64, np.int32, np.uint16):
            g = DiGraph.from_arrays(
                40, sources.astype(dtype), targets.astype(dtype), name="g"
            )
            assert g.name == "g" and g.num_edges == 300
            for attr in ("out_indptr", "out_indices", "in_indptr", "in_indices"):
                assert getattr(g, attr) == getattr(expected, attr)
                assert getattr(g, attr).typecode == "l"

    def test_from_arrays_rejects_bad_input(self):
        with pytest.raises(GraphError, match=r"endpoint 5 out of range"):
            DiGraph.from_arrays(3, np.array([0, 5]), np.array([1, 9]))
        with pytest.raises(GraphError, match="equal length"):
            DiGraph.from_arrays(3, np.array([0, 1]), np.array([1]))
        with pytest.raises(GraphError, match="integers"):
            DiGraph.from_arrays(3, np.array([0.0]), np.array([1.0]))
        with pytest.raises(GraphError, match=">= 0"):
            DiGraph.from_arrays(-1, [], [])
        assert DiGraph.from_arrays(2, [], []).num_edges == 0

    def test_edge_arrays_follow_edges_order(self, paper_dag):
        sources, targets = paper_dag.edge_arrays()
        assert list(zip(sources.tolist(), targets.tolist())) == list(
            paper_dag.edges()
        )

    def test_from_adjacency(self):
        g = DiGraph.from_adjacency([[1, 2], [2], []])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert sorted(g.successors(0)) == [1, 2]


class TestAccessors:
    def test_edges_iteration_order_groups_by_source(self, paper_dag):
        edges = list(paper_dag.edges())
        assert len(edges) == paper_dag.num_edges
        sources = [u for u, _ in edges]
        assert sources == sorted(sources)

    def test_has_edge(self, paper_dag):
        assert paper_dag.has_edge(0, 2)
        assert not paper_dag.has_edge(2, 0)
        assert not paper_dag.has_edge(0, 7)

    def test_roots_and_leaves(self, paper_dag):
        assert sorted(paper_dag.roots()) == [0, 1]
        assert sorted(paper_dag.leaves()) == [6, 7]

    def test_degrees(self, paper_dag):
        assert paper_dag.out_degree(0) == 2
        assert paper_dag.in_degree(7) == 2
        assert paper_dag.in_degree(0) == 0

    def test_len_is_vertex_count(self, paper_dag):
        assert len(paper_dag) == 8

    def test_repr_mentions_counts(self, paper_dag):
        text = repr(paper_dag)
        assert "|V|=8" in text and "|E|=8" in text


class TestReversed:
    def test_reversal_flips_edges(self, paper_dag):
        rev = paper_dag.reversed()
        assert sorted(rev.edges()) == sorted(
            (v, u) for u, v in paper_dag.edges()
        )

    def test_reversal_swaps_roots_and_leaves(self, paper_dag):
        rev = paper_dag.reversed()
        assert sorted(rev.roots()) == sorted(paper_dag.leaves())
        assert sorted(rev.leaves()) == sorted(paper_dag.roots())

    def test_double_reversal_is_identity(self, paper_dag):
        twice = paper_dag.reversed().reversed()
        assert sorted(twice.edges()) == sorted(paper_dag.edges())

    def test_reversal_shares_no_copy_cost(self, paper_dag):
        rev = paper_dag.reversed()
        # CSR arrays are shared views, not copies.
        assert rev.out_indptr is paper_dag.in_indptr
        assert rev.in_indices is paper_dag.out_indices


class TestMemory:
    def test_memory_bytes_positive(self, paper_dag):
        assert paper_dag.memory_bytes() > 0

    def test_memory_grows_with_edges(self):
        small = DiGraph(10, [(0, 1)])
        large = DiGraph(10, [(i, j) for i in range(5) for j in range(5, 10)])
        assert large.memory_bytes() > small.memory_bytes()
