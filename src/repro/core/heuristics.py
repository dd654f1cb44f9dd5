"""Y-coordinate ordering heuristics for FELINE's index (ablation points).

Algorithm 1 computes the second topological ordering ``Y`` by repeatedly
deleting a current root, always the one with the **largest X rank** — the
Kornaropoulos heuristic, locally optimal for minimising falsely implied
paths.  To let the ablation benchmarks quantify that design choice, this
module exposes the paper's heuristic plus three controls:

========= =============================================================
``max-x``  the paper's choice: pop the root maximising ``X`` rank
``min-x``  adversarial control: pop the root *minimising* ``X`` rank,
           which tends to make ``Y`` correlate with ``X`` and so prunes
           almost nothing
``fifo``   plain Kahn order, ignoring ``X`` (a "no heuristic" control)
``random`` roots popped uniformly at random (seeded)
========= =============================================================

All heuristics return a valid topological order — Theorem 1 soundness
never depends on the heuristic, only the *false-positive rate* does.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from random import Random

import numpy as np

from repro.exceptions import NotADAGError, ReproError
from repro.graph.digraph import DiGraph
from repro.graph.toposort import kahn_order, priority_kahn_order

__all__ = ["Y_HEURISTICS", "compute_y_order", "available_heuristics"]


def _max_x(graph: DiGraph, x_ranks: Sequence[int], seed: int) -> list[int]:
    # ``priority_kahn_order(graph, key=lambda v: -x_ranks[v])``, with a
    # heap of plain ints ``-x_ranks[v]`` mapped back through a rank ->
    # vertex table.  ``x_ranks`` is a permutation (the ranks of the ``X``
    # order), so no two keys tie and the pop order is identical.
    n = graph.num_vertices
    ranks = np.asarray(x_ranks, dtype=np.int64)
    vertex_at = np.empty(n, dtype=np.int64)
    vertex_at[ranks] = np.arange(n, dtype=np.int64)
    vertex_at = vertex_at.tolist()
    keys = (-ranks).tolist()
    in_indptr = graph.in_indptr
    indegree = [in_indptr[v + 1] - in_indptr[v] for v in range(n)]
    heap = [keys[v] for v in range(n) if indegree[v] == 0]
    heapq.heapify(heap)
    indptr, indices = graph.out_indptr, graph.out_indices
    heappop, heappush = heapq.heappop, heapq.heappush
    order: list[int] = []
    while heap:
        u = vertex_at[-heappop(heap)]
        order.append(u)
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            indegree[w] -= 1
            if indegree[w] == 0:
                heappush(heap, keys[w])
    if len(order) != n:
        stuck = next(v for v in range(n) if indegree[v] > 0)
        raise NotADAGError(
            f"graph has a cycle (vertex {stuck} never became a root)",
            cycle_hint=stuck,
        )
    return order


def _min_x(graph: DiGraph, x_ranks: Sequence[int], seed: int) -> list[int]:
    return priority_kahn_order(graph, key=lambda v: x_ranks[v])


def _fifo(graph: DiGraph, x_ranks: Sequence[int], seed: int) -> list[int]:
    return kahn_order(graph)


def _random(graph: DiGraph, x_ranks: Sequence[int], seed: int) -> list[int]:
    rng = Random(seed)
    noise = [rng.random() for _ in range(graph.num_vertices)]
    return priority_kahn_order(graph, key=lambda v: noise[v])


Y_HEURISTICS: dict[str, Callable[[DiGraph, Sequence[int], int], list[int]]] = {
    "max-x": _max_x,
    "min-x": _min_x,
    "fifo": _fifo,
    "random": _random,
}


def available_heuristics() -> list[str]:
    """Names of the Y-ordering heuristics, paper's first."""
    return list(Y_HEURISTICS)


def compute_y_order(
    graph: DiGraph,
    x_ranks: Sequence[int],
    heuristic: str = "max-x",
    seed: int = 0,
) -> list[int]:
    """The ``Y`` topological order under the named heuristic.

    ``x_ranks[v]`` must be the ``X`` coordinate of ``v`` from the first
    ordering; only ``max-x`` / ``min-x`` read it.
    """
    try:
        func = Y_HEURISTICS[heuristic]
    except KeyError:
        known = ", ".join(Y_HEURISTICS)
        raise ReproError(
            f"unknown Y heuristic {heuristic!r}; known: {known}"
        ) from None
    return func(graph, x_ranks, seed)
