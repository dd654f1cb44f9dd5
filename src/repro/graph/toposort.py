"""Topological orderings of DAGs.

FELINE's index is a *pair* of topological orderings, so this module is the
heart of the substrate:

* :func:`kahn_order` — classic Kahn peeling with a LIFO worklist,
  O(|V| + |E|); :func:`lifo_kahn_order` is the same pass over
  caller-ordered rows and roots, :func:`fifo_kahn_order` the FIFO one.
* :func:`dfs_post_order_ranks` — ranks from an iterative DFS post-order
  (reversed post-order is a topological order); this is the ``X`` ordering
  used by FELINE's Algorithm 1 in the paper's running example.
* :func:`priority_kahn_order` — Kahn peeling where the next root is chosen
  by a caller-supplied priority via a heap; Algorithm 1's ``Y`` ordering is
  ``priority_kahn_order(g, key=lambda v: -X[v])`` (largest ``X`` rank
  first), the Kornaropoulos locally-optimal heuristic.

Why Algorithm 1 needs no heap: when ``X`` is a topological order, the
max-``X`` priority pass *is* a LIFO pass whose rows are sorted by ``X``
and whose roots are pushed in ascending ``X``.  Every root a pop frees
is a child of the popped vertex ``u``, so it ranks above ``u`` — and
``u`` ranked above every root still waiting.  Pushing the freed roots in
ascending ``X`` therefore keeps the worklist sorted, and its top is
always the max-``X`` root the heap would have popped.
:func:`repro.core.heuristics.compute_y_order` runs it that way.

All functions raise :class:`~repro.exceptions.NotADAGError` when the graph
has a cycle, identifying one offending vertex.

Terminology: an *order* is a list ``order[rank] = vertex``; *ranks* is the
inverse array ``ranks[vertex] = rank``.  :func:`ranks_from_order` converts.

The default-root DFS post-order and the topological order built from it
are computed once per graph and cached on it (:meth:`DiGraph.artifact`):
FELINE, the observer layer, GRAIL, FERRARI and the condensation all ask
for them.  Every call returns a fresh copy, so callers may mutate it; a
call with an explicit ``root_order`` is computed afresh.

The DFS post-order and the LIFO Kahn peel run in C where the search
library of :mod:`repro.perf.kernels` loads, step for step the python
loops here, which stay the reference and run wherever it does not.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Callable, Sequence
from typing import NoReturn

import numpy as np

from repro.exceptions import InvalidVertexError, NotADAGError
from repro.graph.digraph import DiGraph, long_array

__all__ = [
    "kahn_order",
    "lifo_kahn_order",
    "fifo_kahn_order",
    "priority_kahn_order",
    "dfs_post_order_ranks",
    "dag_post_order_ranks",
    "dfs_topological_order",
    "ranks_from_order",
    "is_topological_order",
]


def ranks_from_order(order: Sequence[int]) -> array:
    """Invert an order list into a rank array (``ranks[v] = position``)."""
    positions = np.asarray(order, dtype=np.int64)
    ranks = np.zeros(len(positions), dtype=np.int64)
    ranks[positions] = np.arange(len(positions), dtype=np.int64)
    return long_array(ranks)


def is_topological_order(graph: DiGraph, order: Sequence[int]) -> bool:
    """Whether ``order`` is a valid topological order of ``graph``.

    Used pervasively by the test suite as the specification every ordering
    function must satisfy.
    """
    if sorted(order) != list(range(graph.num_vertices)):
        return False
    ranks = ranks_from_order(order)
    return all(ranks[u] < ranks[v] for u, v in graph.edges())


def _raise_stuck(indegree: Sequence[int]) -> NoReturn:
    stuck = next(v for v, d in enumerate(indegree) if d > 0)
    raise NotADAGError(
        f"graph has a cycle (vertex {stuck} never became a root)",
        cycle_hint=stuck,
    )


def kahn_order(graph: DiGraph) -> list[int]:
    """Kahn's algorithm with a LIFO worklist, O(|V| + |E|).

    Any peeling discipline yields a valid topological order; LIFO keeps
    memory locality and matches the paper's generic
    ``TopologicalOrdering(V, E)`` step.  Roots start in id order and rows
    in edge order: :func:`lifo_kahn_order` over the graph's own CSR.
    """
    return lifo_kahn_order(graph, graph.out_indices)


def lifo_kahn_order(
    graph: DiGraph, indices: array, root_order: np.ndarray | None = None
) -> list[int]:
    """Kahn peeling with a LIFO worklist over reordered out-rows.

    ``indices`` holds ``graph``'s out-rows, each permuted in place (row
    ``u`` spans ``out_indptr[u] : out_indptr[u + 1]``); a popped vertex
    frees its children in that order.  The initial roots are pushed in
    ``root_order`` (vertex ids, default ascending), so the last of them
    pops first.  With rows and roots sorted by a topological rank ``X``
    the result is the max-``X`` priority order (see the module notes).
    Raises :class:`NotADAGError` naming the lowest stuck vertex.  The
    peel is compiled where the C library loads
    (:func:`repro.perf.kernels.c_lifo_kahn`); rows or roots it declines
    take the python loop.
    """
    from repro.perf.kernels import c_lifo_kahn

    peeled = c_lifo_kahn(graph, indices, root_order)
    if peeled is None:
        peeled = _python_lifo_kahn(graph, indices, root_order)
    order, indegree = peeled
    if len(order) != graph.num_vertices:
        _raise_stuck(indegree)
    return order


def _python_lifo_kahn(
    graph: DiGraph, indices: array, root_order: np.ndarray | None
) -> tuple[list[int], list[int]]:
    """The peel of :func:`lifo_kahn_order` in python: the order and the
    indegrees it left (some positive when stuck on a cycle)."""
    indptr = graph.out_indptr
    indegree = np.diff(graph.csr().in_indptr)
    if root_order is None:
        worklist = np.flatnonzero(indegree == 0).tolist()
    else:
        worklist = root_order[indegree[root_order] == 0].tolist()
    indegree = indegree.tolist()
    order: list[int] = []
    pop, push, emit = worklist.pop, worklist.append, order.append
    while worklist:
        u = pop()
        emit(u)
        for w in indices[indptr[u]:indptr[u + 1]]:
            indegree[w] -= 1
            if not indegree[w]:
                push(w)
    return order, indegree


def fifo_kahn_order(graph: DiGraph) -> list[int]:
    """Kahn's algorithm with a FIFO queue: roots in id order first, then
    each vertex in the order the peeling frees it.  O(|V| + |E|)."""
    indptr, indices = graph.out_indptr, graph.out_indices
    indegree = np.diff(graph.csr().in_indptr)
    # ``order`` is the queue: iterated while freed roots are appended.
    order = np.flatnonzero(indegree == 0).tolist()
    indegree = indegree.tolist()
    for u in order:
        for w in indices[indptr[u]:indptr[u + 1]]:
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    if len(order) != graph.num_vertices:
        _raise_stuck(indegree)
    return order


def priority_kahn_order(
    graph: DiGraph, key: Callable[[int], int]
) -> list[int]:
    """Kahn peeling that always pops the current root minimising ``key``.

    This is the particular case of Kahn's algorithm FELINE's Algorithm 1
    uses for the ``Y`` coordinates: with ``key = lambda v: -x_rank[v]`` the
    root with the *highest* ``X`` rank is selected at every step, which
    Kornaropoulos proved locally optimal for minimising falsely implied
    paths.  Complexity O(|V| log |V| + |E|) — the heap term the paper cites.
    """
    n = graph.num_vertices
    indegree = np.diff(graph.csr().in_indptr).tolist()
    heap = [(key(v), v) for v in range(n) if indegree[v] == 0]
    heapq.heapify(heap)
    indptr, indices = graph.out_indptr, graph.out_indices
    order: list[int] = []
    while heap:
        _, u = heapq.heappop(heap)
        order.append(u)
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            indegree[w] -= 1
            if indegree[w] == 0:
                heapq.heappush(heap, (key(w), w))
    if len(order) != n:
        _raise_stuck(indegree)
    return order


def dfs_post_order_ranks(
    graph: DiGraph, root_order: Sequence[int] | None = None
) -> array:
    """Post-order DFS finish ranks, iterative, O(|V| + |E|).

    ``ranks[v]`` is the position of ``v`` in DFS post-order.  The *reverse*
    of a post-order is a topological order, so
    ``n - 1 - ranks[v]`` gives topological ranks — see
    :func:`dfs_topological_order`.

    ``root_order`` optionally fixes the order in which DFS roots are tried
    (GRAIL's randomized labellings shuffle it; FELINE uses the default);
    a root outside ``0 .. n-1`` raises :class:`InvalidVertexError`
    before any work.  The default-root ranks are cached on ``graph``;
    the result is a copy.
    """
    if root_order is not None:
        return _dfs_post_order(graph, root_order)
    return _default_post_order(graph)[:]


def dag_post_order_ranks(graph: DiGraph) -> array | None:
    """The default-root post-order ranks if ``graph`` is a DAG, else ``None``.

    The DFS stops at the first edge back into its own path (a cycle or a
    self loop), so a cyclic graph pays only for the DFS up to there.  A
    DFS that finishes is the one :func:`dfs_post_order_ranks` would run
    and is cached for it.  The answer is cached on ``graph``; the ranks
    returned are a copy.
    """

    def build() -> array | None:
        post = _dfs_post_order(graph, None, stop_at_cycle=True)
        if post is not None:
            graph.artifact("dfs_post_order", lambda: post)
        return post

    post = graph.artifact("dag_post_order", build)
    return None if post is None else post[:]


def _default_post_order(graph: DiGraph) -> array:
    """The cached default-root post-order ranks (shared; do not mutate)."""
    return graph.artifact(
        "dfs_post_order", lambda: _dfs_post_order(graph, None)
    )


def checked_roots(root_order: Sequence[int], n: int):
    """``root_order`` as an ``int64`` array once every id in it lies in
    ``0 .. n-1``; :class:`InvalidVertexError` names the first that does
    not.  A sequence of anything but integers comes back as given."""
    roots = np.asarray(root_order)
    if roots.ndim != 1:
        return root_order
    if roots.size == 0:
        return np.zeros(0, dtype=np.int64)
    if roots.dtype.kind not in "iu":
        return root_order
    outside = (roots < 0) | (roots >= n)
    if outside.any():
        raise InvalidVertexError(int(roots[outside.argmax()]), n)
    return np.ascontiguousarray(roots, dtype=np.int64)


def _dfs_post_order(
    graph: DiGraph,
    root_order: Sequence[int] | None,
    stop_at_cycle: bool = False,
) -> array | None:
    """The DFS post-order ranks, or ``None`` when ``stop_at_cycle`` and
    an edge leads back into the DFS path.  Compiled where the C library
    loads (:func:`repro.perf.kernels.c_post_order`), else the python
    loop."""
    from repro.perf.kernels import c_post_order

    if root_order is not None:
        root_order = checked_roots(root_order, graph.num_vertices)
    done = c_post_order(graph, root_order, stop_at_cycle)
    if done is None:
        if isinstance(root_order, np.ndarray):
            root_order = root_order.tolist()
        return _python_post_order(graph, root_order, stop_at_cycle)
    ranks, cyclic = done
    return None if cyclic else ranks


def _python_post_order(
    graph: DiGraph,
    root_order: Sequence[int] | None,
    stop_at_cycle: bool,
) -> array | None:
    """:func:`_dfs_post_order` in python: the reference loop."""
    n = graph.num_vertices
    indptr, indices = graph.out_indptr, graph.out_indices
    cursor = array("l", indptr)  # cursor[v]: v's next edge to try
    # 0 unseen, 2 finished; 1 on the DFS path, kept apart only when a
    # cycle must stop the search (else entered vertices go straight to 2).
    entered = 1 if stop_at_cycle else 2
    state = bytearray(n)
    ranks = array("l", bytes(n * cursor.itemsize))
    counter = 0
    for root in root_order if root_order is not None else range(n):
        if state[root]:
            continue
        state[root] = entered
        path: list[int] = []  # the ancestors of v, root first
        push, pop = path.append, path.pop
        v = root
        while True:
            pos, end = cursor[v], indptr[v + 1]
            while pos < end:
                w = indices[pos]
                pos += 1
                if state[w] != 2:
                    if state[w]:
                        return None  # w is on the path: a cycle
                    cursor[v] = pos
                    state[w] = entered
                    push(v)
                    v = w
                    break
            else:
                state[v] = 2
                ranks[v] = counter
                counter += 1
                if not path:
                    break
                v = pop()
    return ranks


def dfs_topological_order(
    graph: DiGraph, root_order: Sequence[int] | None = None
) -> list[int]:
    """A topological order from reversed DFS post-order.

    Raises :class:`NotADAGError` on cyclic input, naming the first edge
    (in :meth:`DiGraph.edges` order) that goes against the post-order —
    one vectorized sweep over every edge, O(|V| + |E|).  The default-root
    order is cached on ``graph``; the result is a fresh list.
    """
    if root_order is not None:
        post = dfs_post_order_ranks(graph, root_order=root_order)
        return _checked_reverse_post_order(graph, post).tolist()
    order = graph.artifact(
        "dfs_topological_order",
        lambda: _checked_reverse_post_order(graph, _default_post_order(graph)),
    )
    return order.tolist()


def _checked_reverse_post_order(graph: DiGraph, post: array) -> np.ndarray:
    """Reverse post-order as an ``int64`` array, or :class:`NotADAGError`.

    A DFS post-order reversal is topological iff the graph is acyclic;
    every edge ``(u, v)`` must finish ``v`` before ``u``.
    """
    n = graph.num_vertices
    ranks = np.asarray(post, dtype=np.int64)
    sources, targets = graph.edge_arrays()
    backward = ranks[sources] <= ranks[targets]
    if backward.any():
        i = int(backward.argmax())
        u, v = int(sources[i]), int(targets[i])
        raise NotADAGError(
            f"graph has a cycle (edge ({u}, {v}) violates post-order)",
            cycle_hint=u,
        )
    order = np.empty(n, dtype=np.int64)
    order[n - 1 - ranks] = np.arange(n, dtype=np.int64)
    return order
