"""The compiled set-up passes against their python loops.

The DFS post-order, the LIFO Kahn order, the spanning forest traversal
and the min-post labels run in C where the search library loads
(``repro.perf.kernels.c_post_order`` and its siblings) and fall back
to the python loops otherwise.  Each test runs a pass on both routes,
on a fresh graph each time (the default-root orders are cached on the
graph), and compares results or the exception's type, text and
payload.  The python route is forced by marking the library as
unavailable for the duration of a call.  Without a compiler both
routes are the python loop and the tests still pin its behaviour.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.index import XSortedAdjacency
from repro.exceptions import InvalidVertexError, NotADAGError
from repro.graph.digraph import DiGraph
from repro.graph.generators import path_graph
from repro.graph.scc import condense, is_dag
from repro.graph.spanning import (
    extract_spanning_forest,
    minpost_intervals_tree,
)
from repro.graph.toposort import (
    _dfs_post_order,
    dag_post_order_ranks,
    dfs_post_order_ranks,
    dfs_topological_order,
    kahn_order,
    lifo_kahn_order,
    ranks_from_order,
)
from repro.perf import kernels

REPO = Path(__file__).resolve().parents[2]

needs_c = pytest.mark.skipif(
    kernels.c_fallback_reason() is not None,
    reason="the C search library does not build here",
)


@contextmanager
def python_route():
    """Run the set-up passes on their python loops."""
    saved = kernels._c_state
    kernels._c_state = (None, "forced")
    try:
        yield
    finally:
        kernels._c_state = saved


def _outcome(fn):
    """``fn()``'s result, or its exception's type, text and payload."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        payload = getattr(exc, "vertex", getattr(exc, "cycle_hint", None))
        return "error", type(exc), str(exc), payload


def both_routes(n, edges, run):
    """``run(graph)`` on a fresh graph on the default route and on the
    python route; asserts the outcomes are equal and returns it."""
    native = _outcome(lambda: run(DiGraph(n, edges)))
    with python_route():
        reference = _outcome(lambda: run(DiGraph(n, edges)))
    assert native == reference
    return native


def _forest(graph, roots=None):
    forest = extract_spanning_forest(graph, root_order=roots)
    labels = minpost_intervals_tree(forest)
    return (
        forest.parent, forest.order, forest.child_indptr.tolist(),
        forest.child_indices.tolist(), forest.children,
        labels.start, labels.post,
    )


def _x_sorted_kahn(graph, x):
    """LIFO Kahn over rows sorted by ``x``, roots pushed in ascending
    ``x`` (FELINE's ``Y`` on a topological ``x``)."""
    x = np.asarray(x, dtype=np.int64)
    adjacency = XSortedAdjacency.build(graph, x)
    by_rank = np.empty(len(x), dtype=np.int64)
    by_rank[x] = np.arange(len(x), dtype=np.int64)
    return lifo_kahn_order(graph, adjacency.indices, root_order=by_rank)


@st.composite
def edge_lists(draw, max_vertices=40):
    """``(n, edges)``: any edges (cycles, self loops, repeats) or, half
    the time, forward edges only."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n == 0:
        return 0, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if draw(st.booleans()):
        pair = pair.filter(lambda p: p[0] != p[1]).map(
            lambda p: (min(p), max(p))
        )
    return n, draw(st.lists(pair, max_size=4 * n))


@st.composite
def graphs_with_roots(draw):
    """``(n, edges, roots)``: roots permuted, repeated or partial."""
    n, edges = draw(edge_lists())
    if n == 0:
        return n, edges, []
    kind = draw(st.sampled_from(["permuted", "repeated"]))
    if kind == "permuted":
        roots = draw(st.permutations(range(n)))
    else:
        roots = draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
    return n, edges, list(roots)


DIAMOND = (4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (0, 3)])
SELF_LOOP = (3, [(0, 1), (1, 1), (1, 2)])
CYCLE = (4, [(0, 1), (1, 2), (2, 1), (2, 3)])


@settings(max_examples=150, deadline=None)
@given(graphs_with_roots())
@example((0, [], []))
@example((1, [], [0]))
@example((1, [(0, 0)], [0, 0]))
@example((*DIAMOND, [3, 3, 0, 0, 2]))
@example((*SELF_LOOP, [2, 1, 0]))
@example((*CYCLE, [1, 1, 3]))
def test_dfs_post_order_routes_agree(case):
    n, edges, roots = case
    both_routes(n, edges, dfs_post_order_ranks)
    both_routes(n, edges, lambda g: dfs_post_order_ranks(g, root_order=roots))
    both_routes(n, edges, lambda g: _dfs_post_order(g, roots, True))
    both_routes(n, edges, dag_post_order_ranks)
    both_routes(n, edges, dfs_topological_order)


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.randoms(use_true_random=False))
@example((0, []), None)
@example((1, []), None)
@example((1, [(0, 0)]), None)
@example(DIAMOND, None)
@example(SELF_LOOP, None)
@example(CYCLE, None)
def test_lifo_kahn_routes_agree(graph_edges, rng):
    n, edges = graph_edges
    both_routes(n, edges, kahn_order)
    # Rows sorted by the DFS order where it is topological, else by a
    # random permutation, which also reorders the roots.
    x = list(range(n))
    if rng is not None:
        rng.shuffle(x)
    both_routes(n, edges, lambda g: _x_sorted_kahn(g, x))
    if dag_post_order_ranks(DiGraph(n, edges)) is not None:
        topo = ranks_from_order(dfs_topological_order(DiGraph(n, edges)))
        both_routes(n, edges, lambda g: _x_sorted_kahn(g, topo))


@pytest.mark.parametrize("n, edges", [SELF_LOOP, CYCLE], ids=["loop", "cycle"])
def test_kahn_routes_name_the_same_stuck_vertex(n, edges):
    outcome = both_routes(n, edges, kahn_order)
    assert outcome[:2] == ("error", NotADAGError)
    assert outcome[3] == 1
    assert "vertex 1 never became a root" in outcome[2]


@settings(max_examples=150, deadline=None)
@given(graphs_with_roots())
@example((0, [], []))
@example((1, [], [0, 0]))
@example((1, [(0, 0)], [0]))
@example((*DIAMOND, [3, 3, 0, 0, 2]))
@example((*SELF_LOOP, [2, 1, 0]))
@example((*CYCLE, [1, 1, 3]))
def test_spanning_forest_routes_agree(case):
    n, edges, roots = case
    both_routes(n, edges, _forest)
    both_routes(n, edges, lambda g: _forest(g, roots))
    if dag_post_order_ranks(DiGraph(n, edges)) is not None:
        both_routes(n, edges, lambda g: _forest(g, dfs_topological_order(g)))


@settings(max_examples=60, deadline=None)
@given(edge_lists())
@example((0, []))
@example((1, [(0, 0)]))
@example(CYCLE)
def test_is_dag_is_the_dfs_that_stops_at_a_cycle(graph_edges):
    n, edges = graph_edges
    graph = DiGraph(n, edges)
    assert is_dag(graph) == (dag_post_order_ranks(graph) is not None)
    # The Kahn peel the old is_dag ran consumes every vertex iff acyclic.
    peeled = _outcome(lambda: kahn_order(DiGraph(n, edges)))
    assert is_dag(graph) == (peeled[0] == "ok")
    assert both_routes(n, edges, is_dag) == ("ok", is_dag(graph))


def test_deep_path_runs_without_recursion():
    # 200,000 vertices in one chain: one DFS path and one forest branch.
    n = 200_000
    edges = list(path_graph(n).edges())

    def passes(graph):
        post = dfs_post_order_ranks(graph)
        return (post, kahn_order(graph), _forest(graph, list(range(n))))

    _, (post, order, forest) = both_routes(n, edges, passes)
    assert post.tolist() == list(range(n - 1, -1, -1))
    assert order == list(range(n))
    start, end = forest[-2:]
    assert start.tolist() == [0] * n
    assert end.tolist() == list(range(n - 1, -1, -1))


@pytest.mark.parametrize("roots", [[-1], [0, 5], [2, -7, 9], [5, 1]])
def test_roots_out_of_range_raise_before_any_work(roots):
    n, edges = 5, [(0, 1), (1, 2), (3, 4)]
    expected = next(r for r in roots if not 0 <= r < n)
    for run in (
        lambda g: dfs_post_order_ranks(g, root_order=roots),
        lambda g: dfs_post_order_ranks(g, root_order=np.array(roots)),
        lambda g: extract_spanning_forest(g, root_order=roots),
    ):
        outcome = both_routes(n, edges, run)
        assert outcome[:2] == ("error", InvalidVertexError)
        assert outcome[3] == expected


def test_a_repeated_kahn_root_is_pushed_once():
    # A repeated root is pushed at its first place only, so the order is
    # the one without the repeat, on both routes (it used to be emitted
    # twice and end in a bare StopIteration).
    def kahn(roots):
        return lambda g: lifo_kahn_order(g, g.out_indices, np.array(roots))

    assert both_routes(2, [(0, 1)], kahn([0, 0])) == ("ok", [0, 1])
    edges = [(0, 1), (2, 3)]
    for repeated, once in (([0, 2, 0], [0, 2]), ([3, 2, 0, 2], [3, 2, 0])):
        assert both_routes(4, edges, kahn(repeated)) == both_routes(
            4, edges, kahn(once)
        )


@needs_c
def test_the_passes_run_in_c_where_the_library_loads():
    graph = DiGraph(*DIAMOND)
    roots = np.array([3, 0, 0], dtype=np.int64)
    assert kernels.c_post_order(graph, None, False) is not None
    assert kernels.c_post_order(graph, roots, True) is not None
    assert kernels.c_lifo_kahn(graph, graph.out_indices, None) is not None
    assert kernels.c_spanning_forest(graph, roots) is not None


@needs_c
def test_the_wrappers_decline_what_c_cannot_read():
    graph = DiGraph(*DIAMOND)
    rows = np.asarray(graph.out_indices, dtype=np.int64)
    for indices in (
        rows.astype(np.int32),          # dtype
        np.repeat(rows, 2)[::2],        # not C-contiguous
        rows[:-1],                      # length
        np.where(rows == 3, 7, rows),   # a child outside 0..n-1
    ):
        assert kernels.c_lifo_kahn(graph, indices, None) is None
        with python_route():
            expected = _outcome(lambda: lifo_kahn_order(graph, indices))
        assert _outcome(lambda: lifo_kahn_order(graph, indices)) == expected
    for roots in (np.array([0, 1], dtype=np.int32), np.array([0, 4])):
        assert kernels.c_post_order(graph, roots, False) is None
        assert kernels.c_spanning_forest(graph, roots) is None
    # Kahn's roots are range-checked only in C, which declines them.
    assert kernels.c_lifo_kahn(graph, graph.out_indices, np.array([9])) is None
    forest = extract_spanning_forest(graph)
    values = np.ones(5, dtype=np.int64)
    for name in ("subtree_sizes", "subtree_bases"):
        bad_parent = np.array([-2, 0, 0, 1], dtype=np.int64)
        assert kernels.c_subtree_pass(
            name, forest.order, bad_parent, values
        ) is None
        assert kernels.c_subtree_pass(
            name, [0, 1, 9], forest.parent, values
        ) is None
        assert kernels.c_subtree_pass(
            name, forest.order, forest.parent, values[:-1]
        ) is None


def test_a_forest_c_cannot_read_takes_the_python_loops():
    # A parent of -2 is no vertex: C declines both min-post passes, and
    # the python loops index it as they always have.  The bad parent is
    # the last visited vertex's, so a pass that wrote bases before it
    # declined would show.
    def labels(graph):
        forest = extract_spanning_forest(graph)
        parent = forest.parent[:]
        parent[forest.order[-1]] = -2
        tree = minpost_intervals_tree(replace(forest, parent=parent))
        return tree.start, tree.post

    both_routes(6, [(0, 1), (1, 2), (3, 4), (4, 5)], labels)


def test_dag_members_are_built_on_first_read():
    graph = DiGraph(*DIAMOND)
    cond = condense(graph)
    assert cond.tarjan_members is None
    assert "members" not in vars(cond)
    assert cond.num_components == 4
    assert cond.members == [[0], [2], [1], [3]]
    assert [cond.scc_of[v] for (v,) in cond.members] == [0, 1, 2, 3]
    cyclic = condense(DiGraph(*CYCLE))
    assert cyclic.members is cyclic.tarjan_members
    assert cyclic.num_components == len(cyclic.members) == 3


def test_setup_without_a_compiler_takes_the_python_route(tmp_path):
    # An empty cache and CC=false: the library cannot build, and every
    # set-up artifact must still match the golden digests.
    probe = (
        "import json\n"
        "from repro.perf.kernels import c_fallback_reason\n"
        "from tests.integration.test_setup_golden import "
        "CASES, GOLDEN, setup_digests\n"
        "from pathlib import Path\n"
        "bad = [case for case in sorted(CASES)\n"
        "       if setup_digests(Path(%r), *CASES[case]) != GOLDEN[case]]\n"
        "print(json.dumps([c_fallback_reason(), bad]))\n"
    ) % str(tmp_path)
    env = dict(
        os.environ, CC="false", XDG_CACHE_HOME=str(tmp_path / "cache"),
        PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]),
    )
    env.pop("REPRO_KERNEL", None)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=REPO,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    reason, mismatched = json.loads(proc.stdout.splitlines()[-1])
    assert reason == "compile-failed"
    assert mismatched == []
