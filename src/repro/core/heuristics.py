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
``fifo``   plain FIFO Kahn order, ignoring ``X`` (a "no heuristic"
           control)
``random`` roots popped uniformly at random (seeded)
========= =============================================================

``max-x`` needs no heap.  ``X`` is a topological order, so every root a
pop frees ranks above the popped vertex, which ranked above every root
still waiting.  A LIFO worklist that starts with the roots in ascending
``X`` and takes each freed root in ascending ``X`` (rows sorted by ``X``,
as :class:`~repro.core.index.XSortedAdjacency` holds them) therefore
stays sorted, and its top is always the max-``X`` root — so ``max-x`` is
:func:`~repro.graph.toposort.lifo_kahn_order` over those rows, the same
routine as the observers' ``t2``.  Ranks that are not a topological
permutation of the graph take the heap
(:func:`~repro.graph.toposort.priority_kahn_order`), which defines the
order in general.

All heuristics return a valid topological order — Theorem 1 soundness
never depends on the heuristic, only the *false-positive rate* does.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from random import Random
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.toposort import (
    fifo_kahn_order,
    lifo_kahn_order,
    priority_kahn_order,
)

if TYPE_CHECKING:
    from repro.core.index import XSortedAdjacency

__all__ = ["Y_HEURISTICS", "compute_y_order", "available_heuristics"]


def _is_topological_permutation(graph: DiGraph, x: np.ndarray) -> bool:
    """Whether ``x`` ranks ``graph``'s vertices ``0 .. n-1`` with every
    edge going up."""
    n = graph.num_vertices
    if len(x) != n:
        return False
    if n:
        if x.min() < 0 or x.max() >= n:
            return False
        hit = np.zeros(n, dtype=bool)
        hit[x] = True
        if not hit.all():
            return False
    sources, targets = graph.edge_arrays()
    return bool((x[sources] < x[targets]).all())


def _max_x(
    graph: DiGraph,
    x_ranks: Sequence[int],
    seed: int,
    adjacency: XSortedAdjacency | None,
) -> list[int]:
    # ``priority_kahn_order(graph, key=lambda v: -x_ranks[v])``, as a
    # LIFO pass when ``x_ranks`` is a topological permutation (see the
    # module notes).
    x = np.asarray(x_ranks, dtype=np.int64)
    if not _is_topological_permutation(graph, x):
        return priority_kahn_order(graph, key=lambda v: -x_ranks[v])
    if adjacency is None:
        from repro.core.index import XSortedAdjacency

        adjacency = XSortedAdjacency.build(graph, x)
    by_rank = np.empty(len(x), dtype=np.int64)
    by_rank[x] = np.arange(len(x), dtype=np.int64)
    return lifo_kahn_order(graph, adjacency.indices, root_order=by_rank)


def _min_x(
    graph: DiGraph,
    x_ranks: Sequence[int],
    seed: int,
    adjacency: XSortedAdjacency | None,
) -> list[int]:
    return priority_kahn_order(graph, key=lambda v: x_ranks[v])


def _fifo(
    graph: DiGraph,
    x_ranks: Sequence[int],
    seed: int,
    adjacency: XSortedAdjacency | None,
) -> list[int]:
    return fifo_kahn_order(graph)


def _random(
    graph: DiGraph,
    x_ranks: Sequence[int],
    seed: int,
    adjacency: XSortedAdjacency | None,
) -> list[int]:
    rng = Random(seed)
    noise = [rng.random() for _ in range(graph.num_vertices)]
    return priority_kahn_order(graph, key=lambda v: noise[v])


Y_HEURISTICS: dict[
    str,
    Callable[[DiGraph, Sequence[int], int, XSortedAdjacency | None], list[int]],
] = {
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
    adjacency: XSortedAdjacency | None = None,
) -> list[int]:
    """The ``Y`` topological order under the named heuristic.

    ``x_ranks[v]`` must be the ``X`` coordinate of ``v`` from the first
    ordering; only ``max-x`` / ``min-x`` read it.  ``adjacency`` is the
    graph's :class:`~repro.core.index.XSortedAdjacency` over the same
    ``X`` when the caller already has one; ``max-x`` walks it (and
    builds it when it is not given).
    """
    try:
        func = Y_HEURISTICS[heuristic]
    except KeyError:
        known = ", ".join(Y_HEURISTICS)
        raise ReproError(
            f"unknown Y heuristic {heuristic!r}; known: {known}"
        ) from None
    return func(graph, x_ranks, seed, adjacency)
