"""Property tests: the array-native set-up stages are bit-identical to
their reference loops (``tests/property/legacy_setup.py``).

Covered stages: CSR construction, condensation (DAG shortcut and
Tarjan), levels, the DFS topological order, the ``max-x`` Y order and
the observer build, on graphs with cycles, self loops and duplicate
edges, plus the empty graph, a single vertex, a 5k-vertex path, a
1000-level layered DAG, a chain into a hub and wide hubs — each of the
fixed graphs also with the levels peel and the observer sweeps forced
onto their per-level and their per-vertex paths.

The sequential passes are pinned one by one on raw and condensed
graphs: the cursor DFS (default roots, a shuffled root order, and
stopping at the first cycle), the LIFO Kahn order, ``max-x`` on
topological ranks (the LIFO pass over X-sorted rows) and on any other
ranks (the heap), and the spanning forest's ``parent``/``children``
with its min-post labels, on deep paths, wide hubs and many-rooted
forests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.heuristics import compute_y_order
from repro.core.index import XSortedAdjacency, build_feline_index
from repro.graph.digraph import DiGraph
from repro.graph import levels as levels_module
from repro.graph.generators import layered_dag, path_graph, random_dag
from repro.graph.levels import compute_levels
from repro.graph.scc import condense
from repro.graph.spanning import (
    extract_spanning_forest,
    minpost_intervals_tree,
)
from repro.graph.toposort import (
    dag_post_order_ranks,
    dfs_post_order_ranks,
    dfs_topological_order,
    kahn_order,
    ranks_from_order,
)
from repro.perf.observers import _LevelSweep, build_observers

from tests.property import legacy_setup as legacy

OBSERVER_FIELDS = ("t1", "t2", "fmax", "bmin", "supports", "fwd_bits", "bwd_bits")


def _csr(graph: DiGraph) -> list[list[int]]:
    return [
        list(graph.out_indptr), list(graph.out_indices),
        list(graph.in_indptr), list(graph.in_indices),
    ]


def _outcome(fn, *args):
    """The result, or the exception's type and text."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return "error", type(exc), str(exc)


@st.composite
def edge_lists(draw, max_vertices=30):
    """``(n, edges)``: any edges — cycles, self loops, duplicates — or,
    half the time, forward edges only (a DAG, possibly with repeats)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n == 0:
        return 0, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if draw(st.booleans()):
        pair = pair.filter(lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p)))
    return n, draw(st.lists(pair, max_size=4 * n))


PATH_5K = (5000, [(v, v + 1) for v in range(4999)])
HUBS = (
    403,
    [(0, v) for v in range(1, 201)]
    + [(v, 201) for v in range(1, 201)]
    + [(201, v) for v in range(202, 403)]
    + [(0, 201), (0, 201)],
)
DEEP_LAYERED = (
    3000,
    list(layered_dag(1000, 3, 0.6, seed=4).edges()),
)
CHAIN_INTO_HUB = (
    1200,
    [(v, v + 1) for v in range(999)]
    + [(999, v) for v in range(1000, 1200)]
    + [(v, 1199) for v in range(1000, 1199)],
)


def _check_setup(n, edges, k=4):
    sources = [u for u, _ in edges]
    targets = [v for _, v in edges]
    graph = DiGraph(n, edges, name="g")
    out_ref = legacy.csr_from_edges(n, sources, targets)
    in_ref = legacy.csr_from_edges(n, targets, sources)
    assert _csr(graph) == [list(a) for a in (*out_ref, *in_ref)]
    from_arrays = DiGraph.from_arrays(
        n, np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64)
    )
    assert _csr(from_arrays) == _csr(graph)

    cond = condense(graph)
    scc_of, members, dag = legacy.condense(graph)
    assert list(cond.scc_of) == list(scc_of)
    assert cond.members == members
    assert _csr(cond.dag) == _csr(dag)
    assert cond.dag.name == dag.name

    # Cyclic inputs must fail identically; calls repeat (cache hits).
    for subject in (graph, cond.dag):
        for _ in range(2):
            assert _outcome(compute_levels, subject) == _outcome(
                legacy.compute_levels, subject
            )
            assert _outcome(dfs_topological_order, subject) == _outcome(
                legacy.dfs_topological_order, subject
            )

    x_ranks = ranks_from_order(dfs_topological_order(cond.dag))
    assert x_ranks == legacy.ranks_from_order(dfs_topological_order(cond.dag))
    assert compute_y_order(cond.dag, x_ranks, "max-x") == legacy.max_x_order(
        cond.dag, x_ranks
    )

    layer = build_observers(cond.dag, k=k)
    for field, reference in zip(
        OBSERVER_FIELDS, legacy.build_observers(cond.dag, k=k)
    ):
        got = getattr(layer, field)
        assert got.dtype == reference.dtype, field
        assert np.array_equal(got, reference), field


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.integers(0, 6))
@example((0, []), 3)
@example((1, []), 3)
@example((1, [(0, 0)]), 1)
@example(PATH_5K, 8)
@example(HUBS, 8)
@example(DEEP_LAYERED, 8)
@example(CHAIN_INTO_HUB, 8)
def test_setup_stages_match_reference_loops(graph_edges, k):
    n, edges = graph_edges
    _check_setup(n, edges, k=k)


def test_observer_pool_past_one_word_matches_reference():
    # 20 supports x 4 candidates = 80 candidates: two uint64 words a row.
    graph = random_dag(400, avg_degree=3.0, seed=11)
    _check_setup(graph.num_vertices, list(graph.edges()), k=20)


@pytest.mark.parametrize("factor", [1, 16])
def test_observer_candidate_factors_match_reference(factor):
    graph = random_dag(300, avg_degree=2.0, seed=factor)
    layer = build_observers(graph, k=8, candidate_factor=factor)
    reference = legacy.build_observers(graph, k=8, candidate_factor=factor)
    for field, expected in zip(OBSERVER_FIELDS, reference):
        assert np.array_equal(getattr(layer, field), expected), field


@pytest.mark.parametrize(
    "graph_edges",
    [HUBS, PATH_5K, DEEP_LAYERED, CHAIN_INTO_HUB],
    ids=["hubs", "path", "deep-layered", "chain-into-hub"],
)
@pytest.mark.parametrize("mode", ["per-level", "per-vertex"])
def test_both_sweep_modes_match_reference(monkeypatch, graph_edges, mode):
    # Force the levels peel and the observer sweeps onto one path each.
    threshold = 0 if mode == "per-level" else 10**9
    monkeypatch.setattr(levels_module, "PEEL_MIN_WORK", threshold)
    monkeypatch.setattr(_LevelSweep, "SWEEP_MIN_WORK", threshold)
    n, edges = graph_edges
    _check_setup(n, edges, k=20)


# -- the sequential passes ---------------------------------------------
MANY_ROOTS = (
    300,
    [(v, v + 100) for v in range(200)] + [(v, v + 1) for v in range(250, 299)],
)


def _check_forest(graph, root_order):
    forest = extract_spanning_forest(graph, root_order=root_order)
    parent, children = legacy.spanning_forest(graph, root_order=root_order)
    assert forest.parent == parent
    assert forest.children == children
    labels = minpost_intervals_tree(forest)
    start, post = legacy.minpost_intervals_tree(parent, children)
    assert labels.start == start
    assert labels.post == post


def _check_passes(n, edges, seed):
    graph = DiGraph(n, edges)
    shuffled = np.random.default_rng(seed).permutation(n).tolist()
    for subject in (graph, condense(graph).dag):
        m = subject.num_vertices
        roots = shuffled if subject is graph else None
        assert dfs_post_order_ranks(subject) == legacy.dfs_post_order_ranks(
            subject
        )
        assert dfs_post_order_ranks(
            subject, root_order=roots
        ) == legacy.dfs_post_order_ranks(subject, root_order=roots)
        assert dag_post_order_ranks(subject) == legacy.dag_post_order_ranks(
            subject
        )
        assert _outcome(kahn_order, subject) == _outcome(
            legacy.kahn_order, subject
        )
        _check_forest(subject, None)
        _check_forest(subject, roots)

        # max-x: any ranks at all, then the topological ones.
        rng = np.random.default_rng(seed + 1)
        for x in (
            rng.permutation(m).tolist(),
            rng.integers(0, 3, size=m).tolist(),
        ):
            assert _outcome(compute_y_order, subject, x, "max-x") == _outcome(
                legacy.priority_kahn_order, subject, lambda v: -x[v]
            )
        if legacy.dag_post_order_ranks(subject) is None:
            continue
        for order in (dfs_topological_order(subject), kahn_order(subject)):
            _check_forest(subject, order)
            x = ranks_from_order(order)
            expected = legacy.max_x_order(subject, x)
            assert compute_y_order(subject, x, "max-x") == expected
            adjacency = XSortedAdjacency.build(
                subject, np.asarray(x, dtype=np.int64)
            )
            assert compute_y_order(
                subject, x, "max-x", adjacency=adjacency
            ) == expected


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.integers(0, 2**16))
@example((0, []), 0)
@example((1, [(0, 0)]), 0)
@example((3, [(0, 1), (0, 1), (1, 2), (0, 2), (0, 2)]), 0)
@example((4, [(0, 1), (1, 2), (2, 1), (2, 3)]), 1)
@example(PATH_5K, 2)
@example(HUBS, 3)
@example(DEEP_LAYERED, 4)
@example(CHAIN_INTO_HUB, 5)
@example(MANY_ROOTS, 6)
def test_sequential_passes_match_reference_loops(graph_edges, seed):
    n, edges = graph_edges
    _check_passes(n, edges, seed)


def test_feline_filters_on_a_deep_path_match_reference():
    # Deeper than any recursion limit: the forest is one 20k-vertex chain.
    graph = path_graph(20_000)
    coords = build_feline_index(graph)
    parent, children = legacy.spanning_forest(
        graph, dfs_topological_order(graph)
    )
    start, post = legacy.minpost_intervals_tree(parent, children)
    assert coords.tree_intervals.start == start
    assert coords.tree_intervals.post == post
