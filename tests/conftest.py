"""Shared fixtures and helpers for the whole test suite."""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    citation_dag,
    complete_dag,
    crown_graph,
    diamond_graph,
    layered_dag,
    ontology_dag,
    path_graph,
    random_dag,
    tree_like_dag,
)
from repro.graph.transitive import transitive_closure_bitsets

# ---------------------------------------------------------------------------
# Reference graphs
# ---------------------------------------------------------------------------
# The paper's Figure 2 DAG: vertices a..h = 0..7.
#   a -> c, a -> d;  c -> e;  d -> e;  e -> h;  b -> f, b -> g;  f -> h
# (Reconstructed from the §3.2 prose — the figure image is not part of
# the text; the reconstruction is consistent with the worked example's
# X ordering, roots {a, b}, and Y prefix {b, g, f}.)
PAPER_FIG2_EDGES = [
    (0, 2), (0, 3), (2, 4), (3, 4), (4, 7), (1, 5), (1, 6), (5, 7),
]


_SESSION_CACHE: str | None = None


def pytest_configure(config):
    """Build the C search library into a per-session cache directory
    (inherited by every subprocess a test starts), so a run neither
    reuses nor leaves behind an object in the user's cache."""
    global _SESSION_CACHE
    _SESSION_CACHE = tempfile.mkdtemp(prefix="repro-test-cache-")
    os.environ["XDG_CACHE_HOME"] = _SESSION_CACHE


def pytest_unconfigure(config):
    if _SESSION_CACHE is not None:
        shutil.rmtree(_SESSION_CACHE, ignore_errors=True)


@pytest.fixture
def paper_dag() -> DiGraph:
    """The small DAG from the paper's Figure 2 (8 vertices)."""
    return DiGraph(8, PAPER_FIG2_EDGES, name="paper-fig2")


@pytest.fixture
def diamond() -> DiGraph:
    return diamond_graph()


def dag_zoo() -> list[DiGraph]:
    """A diverse set of DAGs for cross-method agreement tests."""
    return [
        DiGraph(1, [], name="single"),
        DiGraph(3, [], name="edgeless"),
        path_graph(12),
        diamond_graph(),
        DiGraph(8, PAPER_FIG2_EDGES, name="paper-fig2"),
        crown_graph(3),
        crown_graph(5),
        complete_dag(8),
        layered_dag(5, 6, edge_probability=0.4, seed=3),
        random_dag(60, avg_degree=1.0, seed=1),
        random_dag(80, avg_degree=3.0, seed=2),
        tree_like_dag(70, extra_edge_fraction=0.1, seed=4),
        ontology_dag(60, num_roots=3, seed=5),
        citation_dag(50, avg_out_degree=3.0, seed=6),
        tree_like_dag(40, seed=7).reversed(),
    ]


def dag_ids() -> list[str]:
    return [g.name for g in dag_zoo()]


@pytest.fixture(params=dag_zoo(), ids=dag_ids())
def any_dag(request) -> DiGraph:
    """Parametrized over the whole DAG zoo."""
    return request.param


# ---------------------------------------------------------------------------
# Ground-truth helpers
# ---------------------------------------------------------------------------
def reachability_oracle(graph: DiGraph):
    """An exact ``r(u, v)`` callable from the transitive closure."""
    closure = transitive_closure_bitsets(graph)

    def oracle(u: int, v: int) -> bool:
        return bool((closure[u] >> v) & 1)

    return oracle


def all_pairs(graph: DiGraph) -> list[tuple[int, int]]:
    """Every ordered vertex pair (for exhaustive small-graph checks)."""
    n = graph.num_vertices
    return [(u, v) for u in range(n) for v in range(n)]


def assert_index_matches_oracle(index, graph: DiGraph, pairs=None) -> None:
    """Assert a built index answers every pair like the exact oracle."""
    oracle = reachability_oracle(graph)
    pairs = pairs if pairs is not None else all_pairs(graph)
    for u, v in pairs:
        expected = oracle(u, v)
        actual = index.query(u, v)
        assert actual == expected, (
            f"{index.method_name} wrong on r({u}, {v}) in {graph.name}: "
            f"got {actual}, expected {expected}"
        )
