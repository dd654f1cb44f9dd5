"""Vertex levels (depths) — the *level filter* substrate.

The level of a vertex (paper §3.4.2, after Bender et al.) is its longest
distance from any root: ``l_v = 0`` if ``v`` has no predecessors, otherwise
``l_v = 1 + max(l_u for u -> v)``.  Levels induce the topological order, so
``r(u, v) ∧ u ≠ v ⇒ l_u < l_v`` — a second constant-time negative cut used
by FELINE, GRAIL and FERRARI.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.exceptions import NotADAGError
from repro.graph.digraph import DiGraph, long_array

__all__ = [
    "compute_levels",
    "level_order",
    "edge_positions",
    "level_histogram",
]

# A numpy peel round costs tens of microseconds however narrow it is; a
# per-vertex step costs a fraction of a microsecond.  Once a round would
# carry fewer vertices plus edges than this (a chain, the thin tail of a
# deep DAG), the peel finishes vertex by vertex.  128 is the measured
# break-even on layered DAGs.
PEEL_MIN_WORK = 128


def compute_levels(graph: DiGraph) -> array:
    """Longest-path-from-root depth of every vertex, O(|V| + |E| log |E|).

    A level-synchronous Kahn peel in numpy: round ``l`` removes every
    current root at once, and those roots are exactly the vertices of
    level ``l`` (a vertex becomes a root one round after its deepest
    predecessor).  One round per level, so the Python overhead is per
    level, not per vertex — until a round gets narrower than
    ``PEEL_MIN_WORK`` vertices plus edges, when a LIFO Kahn pass peels
    the rest one vertex at a time, so deep DAGs do not pay per level.
    Raises :class:`NotADAGError` on cyclic input, naming the smallest
    vertex left with predecessors.

    The levels are cached on ``graph``; the result is a copy.
    """
    levels, _, _ = _cached(graph)
    return long_array(levels)


def level_order(graph: DiGraph) -> tuple[np.ndarray, np.ndarray]:
    """The vertices sorted by level, then id, and the level boundaries.

    Returns ``(order, bounds)`` (``int64`` copies of the cached arrays):
    level ``l`` is ``order[bounds[l]:bounds[l + 1]]``, and
    ``len(bounds) - 1`` is the number of levels.  ``order`` is a
    topological order.
    """
    _, order, bounds = _cached(graph)
    return order.copy(), bounds.copy()


def edge_positions(
    indptr: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of the edges of ``vertices``, vertex by vertex.

    Returns ``(positions, starts)``: ``positions`` concatenates each
    vertex's ``indptr[v] .. indptr[v+1]`` range and ``starts[i]`` is where
    vertex ``i``'s run begins — the offsets ``np.ufunc.reduceat`` takes
    (only meaningful for vertices with at least one edge).
    """
    first = indptr[vertices]
    counts = indptr[vertices + 1] - first
    starts = np.zeros(len(vertices), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    positions = np.repeat(first - starts, counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )
    return positions, starts


def _cached(graph: DiGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cached ``(levels, order, bounds)`` of ``graph`` (shared)."""
    return graph.artifact("levels", lambda: _peel(graph))


def _peel(graph: DiGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = graph.num_vertices
    views = graph.csr()
    indptr, indices = views.out_indptr, views.out_indices
    indegree = np.diff(views.in_indptr)
    levels = np.zeros(n, dtype=np.int64)
    placed = depth = 0
    frontier = np.flatnonzero(indegree == 0)
    while len(frontier):
        positions, _ = edge_positions(indptr, frontier)
        if len(frontier) + len(positions) < PEEL_MIN_WORK:
            placed += _peel_per_vertex(graph, levels, indegree, frontier, depth)
            break
        levels[frontier] = depth
        placed += len(frontier)
        depth += 1
        touched, hits = np.unique(indices[positions], return_counts=True)
        indegree[touched] -= hits
        frontier = touched[indegree[touched] == 0]
    if placed != n:
        stuck = int(np.flatnonzero(indegree > 0)[0])
        raise NotADAGError(
            f"graph has a cycle (vertex {stuck} never became a root)",
            cycle_hint=stuck,
        )
    order = np.argsort(levels, kind="stable")
    bounds = np.zeros(1, dtype=np.int64)
    if n:
        bounds = np.concatenate((bounds, np.cumsum(np.bincount(levels))))
    return levels, order, bounds


def _peel_per_vertex(
    graph: DiGraph,
    levels: np.ndarray,
    indegree: np.ndarray,
    roots: np.ndarray,
    depth: int,
) -> int:
    """Finish the peel from ``roots`` (all at level ``depth``) with a
    LIFO Kahn pass; updates ``levels`` and ``indegree`` in place and
    returns how many vertices it removed.  Every vertex still waiting
    has a predecessor at level ``depth`` or deeper, so relaxing only the
    edges of vertices removed here gives its longest-path level."""
    level = levels.tolist()
    remaining = indegree.tolist()
    worklist = roots.tolist()
    for v in worklist:
        level[v] = depth
    indptr, indices = graph.out_indptr, graph.out_indices
    placed = 0
    while worklist:
        u = worklist.pop()
        placed += 1
        below = level[u] + 1
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            if below > level[w]:
                level[w] = below
            remaining[w] -= 1
            if remaining[w] == 0:
                worklist.append(w)
    levels[:] = level
    indegree[:] = remaining
    return placed


def level_histogram(levels: array) -> list[int]:
    """Count of vertices per level; ``histogram[l]`` vertices at level l."""
    if not levels:
        return []
    histogram = [0] * (max(levels) + 1)
    for level in levels:
        histogram[level] += 1
    return histogram
