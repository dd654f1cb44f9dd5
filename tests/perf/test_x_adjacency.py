"""Tests for the X-sorted adjacency the FELINE pruned DFS walks.

:class:`~repro.core.index.XSortedAdjacency` reorders every out-row of
the DAG by ``X`` rank so the search cuts the children past ``X[v]`` with
one bisect.  These tests pin the builder's contract (each row is a
permutation of the CSR row, keys are the children's ``X`` in
non-decreasing order), its edge cases, that the DAG's own CSR and the
index size are untouched, and the meaning of ``stats.pruned`` it
introduces: child edges cut per expansion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import create_index
from repro.core.index import XSortedAdjacency, build_feline_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import crown_graph, random_dag
from repro.graph.scc import condense
from repro.perf.kernels import available_backends

from tests.conftest import assert_index_matches_oracle


def _cyclic_condensed() -> DiGraph:
    g = random_dag(80, avg_degree=2.5, seed=4)
    edges = list(g.edges())
    # Back edges fold some vertices into non-trivial SCCs; a duplicated
    # edge checks that ties keep both copies.
    edges += [(v, u) for u, v in edges[::9]] + [edges[0]]
    return condense(DiGraph(g.num_vertices, edges)).dag


GRAPHS = {
    "empty": lambda: DiGraph(0, []),
    "single": lambda: DiGraph(1, []),
    "edgeless": lambda: DiGraph(7, []),
    "crown": lambda: crown_graph(5),
    "random": lambda: random_dag(120, avg_degree=3.0, seed=8),
    "condensed-cyclic": _cyclic_condensed,
}


def _assert_sorted_rows(graph: DiGraph, adjacency: XSortedAdjacency, x):
    csr = graph.csr()
    indptr = csr.out_indptr
    x = np.asarray(x, dtype=np.int64)
    assert len(adjacency.indices) == len(adjacency.keys) == graph.num_edges
    assert np.array_equal(adjacency.indices_np, np.asarray(adjacency.indices))
    assert np.array_equal(adjacency.keys_np, np.asarray(adjacency.keys))
    for w in range(graph.num_vertices):
        lo, hi = int(indptr[w]), int(indptr[w + 1])
        row = adjacency.indices_np[lo:hi]
        keys = adjacency.keys_np[lo:hi]
        assert sorted(row.tolist()) == sorted(csr.out_indices[lo:hi].tolist())
        assert np.array_equal(keys, x[row])
        assert np.all(np.diff(keys) >= 0)


class TestBuilder:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_rows_are_x_sorted_permutations(self, name):
        graph = GRAPHS[name]()
        coords = build_feline_index(graph)
        adjacency = XSortedAdjacency.build(graph, coords.views.x)
        _assert_sorted_rows(graph, adjacency, coords.x)

    def test_kahn_x_order_sorts_by_that_x(self):
        graph = random_dag(90, avg_degree=3.0, seed=2)
        index = create_index("feline", graph, x_order="kahn").build()
        dfs_x = build_feline_index(graph).x
        assert list(index.coordinates.x) != list(dfs_x)
        _assert_sorted_rows(graph, index.adjacency, index.coordinates.x)

    def test_feline_b_sorts_by_the_forward_x(self):
        graph = random_dag(90, avg_degree=3.0, seed=5)
        index = create_index("feline-b", graph).build()
        _assert_sorted_rows(graph, index.adjacency, index.forward.x)

    def test_feline_i_sorts_the_reversed_graph(self):
        graph = random_dag(90, avg_degree=3.0, seed=5)
        inner = create_index("feline-i", graph).build()._inner
        _assert_sorted_rows(inner.graph, inner.adjacency, inner.coordinates.x)

    @pytest.mark.parametrize("method", ["feline", "feline-b", "feline-i"])
    def test_csr_and_index_size_untouched(self, method):
        graph = random_dag(90, avg_degree=3.0, seed=6)
        out_indices = list(graph.out_indices)
        index = create_index(method, graph).build()
        assert list(graph.out_indices) == out_indices
        if method == "feline-b":
            coords = [index.forward, index.backward]
        else:
            coords = [index.coordinates]
        assert index.index_size_bytes() == sum(
            c.memory_bytes() for c in coords
        )

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("method", ["feline", "feline-b", "feline-i"])
    def test_searches_on_edge_case_graphs_match_oracle(self, name, method):
        graph = GRAPHS[name]()
        for kernel in available_backends():
            index = create_index(method, graph)
            index.set_kernel(kernel)
            assert_index_matches_oracle(index.build(), graph)


def _negative_search_counts(graph, coords, u, v):
    """Reference ``(expanded, pruned)`` of a search that finds no path.

    An unreachable target makes the DFS exhaust its region ``R`` (every
    vertex reachable from ``u`` through admissible vertices), whatever
    the child order.  ``pruned`` is then the X-cut edges out of ``R``
    plus the distinct X-admissible children failing the ``Y`` or level
    bound.
    """
    x, y, levels = coords.x, coords.y, coords.levels

    def admissible(c):
        return (
            x[c] <= x[v] and y[c] <= y[v]
            and (levels is None or levels[c] < levels[v])
        )

    region, frontier = {u}, [u]
    while frontier:
        w = frontier.pop()
        for c in graph.successors(w):
            if c not in region and admissible(c):
                region.add(c)
                frontier.append(c)
    children = [c for w in region for c in graph.successors(w)]
    x_cut = sum(1 for c in children if x[c] > x[v])
    failing = {c for c in children if x[c] <= x[v] and not admissible(c)}
    return len(region), x_cut + len(failing)


class TestPrunedCountsCutEdges:
    """``pruned`` counts child edges cut per expansion: the X-cut
    suffix of every expanded vertex plus the first-seen prefix children
    failing another bound."""

    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("filters", [True, False])
    def test_negative_searches_match_reference(self, kernel, filters):
        graph = random_dag(70, avg_degree=3.0, seed=12)
        index = create_index(
            "feline", graph,
            use_level_filter=filters, use_positive_cut=filters,
        )
        index.set_kernel(kernel)
        index.build()
        stats = index.stats
        checked = 0
        for u in range(graph.num_vertices):
            for v in range(graph.num_vertices):
                searches, expanded, pruned = (
                    stats.searches, stats.expanded, stats.pruned
                )
                if index.query(u, v) or stats.searches == searches:
                    continue
                assert (
                    stats.expanded - expanded, stats.pruned - pruned
                ) == _negative_search_counts(graph, index.coordinates, u, v)
                checked += 1
        assert checked > 50
