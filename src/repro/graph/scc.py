"""Strongly connected components and DAG condensation.

The paper (like every reachability index it compares against) assumes the
input has first been turned acyclic: every strongly connected component of
``G`` is folded into one vertex of the condensation ``G'``, and reachability
between ``u`` and ``v`` in ``G`` equals reachability between ``scc(u)`` and
``scc(v)`` in ``G'``.

:func:`strongly_connected_components` is Tarjan's algorithm, implemented
iteratively (an explicit stack of frames) so that deep graphs — e.g. long
paths in the Uniprot stand-ins — do not hit Python's recursion limit.
:func:`condense` builds the condensation DAG plus the ``scc`` mapping.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.graph.digraph import DiGraph, long_array
from repro.graph.toposort import dag_post_order_ranks

__all__ = ["strongly_connected_components", "condense", "Condensation", "is_dag"]


def strongly_connected_components(graph: DiGraph) -> list[list[int]]:
    """Tarjan's SCC algorithm, iterative, O(|V| + |E|).

    Returns the components as lists of vertex ids.  Components are emitted
    in *reverse topological order* of the condensation (a property of
    Tarjan's algorithm this library relies on in :func:`condense`).
    """
    n = graph.num_vertices
    indptr = graph.out_indptr
    indices = graph.out_indices

    UNVISITED = -1
    index_of = array("l", [UNVISITED] * n)
    lowlink = array("l", [0] * n)
    on_stack = bytearray(n)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    # Explicit DFS: each frame is (vertex, next edge offset to scan).
    call_stack: list[tuple[int, int]] = []
    for root in range(n):
        if index_of[root] != UNVISITED:
            continue
        call_stack.append((root, indptr[root]))
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while call_stack:
            v, edge_pos = call_stack[-1]
            if edge_pos < indptr[v + 1]:
                call_stack[-1] = (v, edge_pos + 1)
                w = indices[edge_pos]
                if index_of[w] == UNVISITED:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    call_stack.append((w, indptr[w]))
                elif on_stack[w]:
                    if index_of[w] < lowlink[v]:
                        lowlink[v] = index_of[w]
            else:
                call_stack.pop()
                if call_stack:
                    parent = call_stack[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
                if lowlink[v] == index_of[v]:
                    component: list[int] = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


@dataclass(frozen=True)
class Condensation:
    """Result of folding every SCC of a graph into one vertex.

    Attributes
    ----------
    dag:
        The condensation graph (always a DAG, self loops removed,
        duplicate edges merged).
    scc_of:
        ``scc_of[v]`` is the condensation vertex holding original vertex
        ``v`` — the function ``scc : V -> V'`` from the paper.
    members:
        ``members[c]`` lists the original vertices folded into
        condensation vertex ``c``.  Tarjan's lists on a cyclic input
        (``tarjan_members``); on a DAG each vertex sits alone, and the
        lists are built from ``scc_of`` on first read.
    """

    dag: DiGraph
    scc_of: array
    tarjan_members: list[list[int]] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def members(self) -> list[list[int]]:
        if self.tarjan_members is not None:
            return self.tarjan_members
        n = len(self.scc_of)
        order = np.empty(n, dtype=np.int64)
        order[np.asarray(self.scc_of, dtype=np.int64)] = np.arange(
            n, dtype=np.int64
        )
        return [[v] for v in order.tolist()]

    @property
    def num_components(self) -> int:
        """Number of strongly connected components."""
        return self.dag.num_vertices


def condense(graph: DiGraph) -> Condensation:
    """Fold every SCC of ``graph`` into a single vertex.

    The returned DAG numbers components in *topological order* (component 0
    has no predecessors among components), which several downstream
    algorithms exploit for cache-friendly sweeps.

    A plain DFS (the one Tarjan's algorithm would follow: same roots,
    same edge order) runs first and stops at the first edge back into its
    own path (:func:`dag_post_order_ranks`).  When it finishes, the input
    is a DAG with no self loop, Tarjan would emit each vertex alone in
    post-order, and ``scc_of[v] = n - 1 - post[v]`` directly; the
    post-order stays cached on ``graph``.  Otherwise Tarjan runs.  Either
    way the edges are relabelled and deduplicated (first occurrence kept,
    input order preserved) in numpy, so the result is identical on both
    paths.
    """
    n = graph.num_vertices
    post = dag_post_order_ranks(graph)
    if post is not None:
        components = None
        num_components = n
        scc = n - 1 - np.asarray(post, dtype=np.int64)
        scc_of = long_array(scc)
    else:
        components = strongly_connected_components(graph)
        # Tarjan emits components in reverse topological order; flip them.
        components.reverse()
        num_components = len(components)
        scc_of = array("l", [0] * n)
        for cid, component in enumerate(components):
            for v in component:
                scc_of[v] = cid
        scc = np.asarray(scc_of, dtype=np.int64)

    sources, targets = graph.edge_arrays()
    cu, cv = scc[sources], scc[targets]
    crossing = cu != cv
    cu, cv = cu[crossing], cv[crossing]
    keys = cu * num_components + cv
    by_key = np.argsort(keys, kind="stable")
    sorted_keys = keys[by_key]
    is_first = np.ones(len(keys), dtype=bool)
    is_first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    first = np.sort(by_key[is_first])

    name = f"{graph.name}-condensed" if graph.name else "condensed"
    dag = DiGraph.from_arrays(num_components, cu[first], cv[first], name=name)
    return Condensation(dag=dag, scc_of=scc_of, tarjan_members=components)


def is_dag(graph: DiGraph) -> bool:
    """Whether ``graph`` is acyclic (no directed cycle, no self loop).

    The DFS of :func:`dag_post_order_ranks` stops at the first edge back
    into its own path, which a cycle or a self loop always gives.
    """
    return dag_post_order_ranks(graph) is not None
