"""Reference loops for the set-up stages, kept to pin bit-identity.

Each function here is the plain per-vertex / per-edge Python version of
a set-up stage whose library implementation is vectorized or cached:
the counting-sort CSR, the condensation (built from
:func:`~repro.graph.scc.strongly_connected_components`), the level
peel, the DFS post-order (also stopping at the first cycle), the LIFO
Kahn order, the heap-driven priority Kahn order behind ``max-x``, the
spanning forest with its min-post labels and the observer build.
``tests/property/test_setup_identity.py`` checks the library against
them on arbitrary graphs.
"""

from __future__ import annotations

from array import array

import heapq

import numpy as np

from repro.exceptions import NotADAGError
from repro.graph.digraph import DiGraph
from repro.graph.scc import strongly_connected_components


def csr_from_edges(num_vertices, sources, targets):
    """Counting pass, prefix sum, placement pass: (indptr, indices)."""
    counts = array("l", [0] * (num_vertices + 1))
    for s in sources:
        counts[s + 1] += 1
    indptr = counts
    for v in range(1, num_vertices + 1):
        indptr[v] += indptr[v - 1]
    indices = array("l", [0] * len(targets))
    cursor = array("l", indptr[:num_vertices])
    for s, t in zip(sources, targets):
        pos = cursor[s]
        indices[pos] = t
        cursor[s] = pos + 1
    return indptr, indices


def ranks_from_order(order):
    ranks = array("l", [0] * len(order))
    for rank, v in enumerate(order):
        ranks[v] = rank
    return ranks


def dfs_post_order_ranks(graph: DiGraph, root_order=None) -> array:
    n = graph.num_vertices
    indptr, indices = graph.out_indptr, graph.out_indices
    visited = bytearray(n)
    ranks = array("l", [0] * n)
    counter = 0
    for root in root_order if root_order is not None else range(n):
        if visited[root]:
            continue
        visited[root] = 1
        stack = [(root, indptr[root])]
        while stack:
            v, edge_pos = stack[-1]
            if edge_pos < indptr[v + 1]:
                stack[-1] = (v, edge_pos + 1)
                w = indices[edge_pos]
                if not visited[w]:
                    visited[w] = 1
                    stack.append((w, indptr[w]))
            else:
                stack.pop()
                ranks[v] = counter
                counter += 1
    return ranks


def dag_post_order_ranks(graph: DiGraph, root_order=None):
    """The post-order ranks, or ``None`` at the first edge back into the
    DFS path (a cycle or a self loop)."""
    n = graph.num_vertices
    indptr, indices = graph.out_indptr, graph.out_indices
    state = bytearray(n)  # 0 unseen, 1 on the DFS path, 2 finished
    ranks = array("l", [0] * n)
    counter = 0
    for root in root_order if root_order is not None else range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, indptr[root])]
        while stack:
            v, edge_pos = stack[-1]
            if edge_pos < indptr[v + 1]:
                stack[-1] = (v, edge_pos + 1)
                w = indices[edge_pos]
                if not state[w]:
                    state[w] = 1
                    stack.append((w, indptr[w]))
                elif state[w] == 1:
                    return None
            else:
                stack.pop()
                state[v] = 2
                ranks[v] = counter
                counter += 1
    return ranks


def _stuck(indegree):
    stuck = next(v for v in range(len(indegree)) if indegree[v] > 0)
    raise NotADAGError(
        f"graph has a cycle (vertex {stuck} never became a root)",
        cycle_hint=stuck,
    )


def kahn_order(graph: DiGraph) -> list[int]:
    """Kahn with a LIFO worklist, roots in id order, rows in edge order."""
    n = graph.num_vertices
    in_indptr = graph.in_indptr
    indegree = array("l", [in_indptr[v + 1] - in_indptr[v] for v in range(n)])
    worklist = [v for v in range(n) if indegree[v] == 0]
    indptr, indices = graph.out_indptr, graph.out_indices
    order = []
    while worklist:
        u = worklist.pop()
        order.append(u)
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            indegree[w] -= 1
            if indegree[w] == 0:
                worklist.append(w)
    if len(order) != n:
        _stuck(indegree)
    return order


def priority_kahn_order(graph: DiGraph, key) -> list[int]:
    """Kahn that always pops the root minimising ``(key(v), v)``."""
    n = graph.num_vertices
    in_indptr = graph.in_indptr
    indegree = array("l", [in_indptr[v + 1] - in_indptr[v] for v in range(n)])
    heap = [(key(v), v) for v in range(n) if indegree[v] == 0]
    heapq.heapify(heap)
    indptr, indices = graph.out_indptr, graph.out_indices
    order = []
    while heap:
        _, u = heapq.heappop(heap)
        order.append(u)
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            indegree[w] -= 1
            if indegree[w] == 0:
                heapq.heappush(heap, (key(w), w))
    if len(order) != n:
        _stuck(indegree)
    return order


def spanning_forest(graph: DiGraph, root_order=None):
    """``(parent, children)``: each popped vertex claims its unclaimed
    children, pushed last edge first."""
    n = graph.num_vertices
    indptr, indices = graph.out_indptr, graph.out_indices
    parent = array("l", [-1] * n)
    visited = bytearray(n)
    children = [[] for _ in range(n)]
    for root in root_order if root_order is not None else range(n):
        if visited[root]:
            continue
        visited[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for k in range(indptr[u + 1] - 1, indptr[u] - 1, -1):
                w = indices[k]
                if not visited[w]:
                    visited[w] = 1
                    parent[w] = u
                    children[u].append(w)
                    stack.append(w)
    for child_list in children:
        child_list.reverse()
    return parent, children


def minpost_intervals_tree(parent, children):
    """``(start, post)``: forest post-order, roots in id order; ``start``
    is the least ``start`` among the children (own rank at a leaf)."""
    n = len(parent)
    post = array("l", [0] * n)
    start = array("l", [0] * n)
    counter = 0
    for root in (v for v in range(n) if parent[v] == -1):
        stack = [(root, 0)]
        while stack:
            v, child_pos = stack[-1]
            kids = children[v]
            if child_pos < len(kids):
                stack[-1] = (v, child_pos + 1)
                stack.append((kids[child_pos], 0))
            else:
                stack.pop()
                post[v] = counter
                start[v] = min(start[c] for c in kids) if kids else counter
                counter += 1
    return start, post


def dfs_topological_order(graph: DiGraph, root_order=None) -> list[int]:
    n = graph.num_vertices
    post = dfs_post_order_ranks(graph, root_order=root_order)
    order = [0] * n
    for v in range(n):
        order[n - 1 - post[v]] = v
    for u, v in graph.edges():
        if post[u] <= post[v]:
            raise NotADAGError(
                f"graph has a cycle (edge ({u}, {v}) violates post-order)",
                cycle_hint=u,
            )
    return order


def compute_levels(graph: DiGraph) -> array:
    n = graph.num_vertices
    in_indptr = graph.in_indptr
    indegree = array("l", [in_indptr[v + 1] - in_indptr[v] for v in range(n)])
    levels = array("l", [0] * n)
    worklist = [v for v in range(n) if indegree[v] == 0]
    indptr, indices = graph.out_indptr, graph.out_indices
    processed = 0
    while worklist:
        u = worklist.pop()
        processed += 1
        next_level = levels[u] + 1
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            if next_level > levels[w]:
                levels[w] = next_level
            indegree[w] -= 1
            if indegree[w] == 0:
                worklist.append(w)
    if processed != n:
        stuck = next(v for v in range(n) if indegree[v] > 0)
        raise NotADAGError(
            f"graph has a cycle (vertex {stuck} never became a root)",
            cycle_hint=stuck,
        )
    return levels


def condense(graph: DiGraph):
    """``(scc_of, members, dag edges, dag name)`` via Tarjan + a tuple set."""
    components = strongly_connected_components(graph)
    components.reverse()
    scc_of = array("l", [0] * graph.num_vertices)
    for cid, component in enumerate(components):
        for v in component:
            scc_of[v] = cid
    seen = set()
    edges = []
    for u, v in graph.edges():
        key = (scc_of[u], scc_of[v])
        if key[0] == key[1] or key in seen:
            continue
        seen.add(key)
        edges.append(key)
    name = f"{graph.name}-condensed" if graph.name else "condensed"
    return scc_of, components, DiGraph(len(components), edges, name=name)


def max_x_order(graph: DiGraph, x_ranks) -> list[int]:
    return priority_kahn_order(graph, key=lambda v: -x_ranks[v])


def _reach_matrix(graph: DiGraph, candidates, forward: bool):
    n = graph.num_vertices
    matrix = np.zeros((n, len(candidates)), dtype=bool)
    matrix[candidates, np.arange(len(candidates))] = True
    order = dfs_topological_order(graph)
    if forward:
        indptr, indices = graph.in_indptr, graph.in_indices
    else:
        order = list(reversed(order))
        indptr, indices = graph.out_indptr, graph.out_indices
    for v in order:
        lo, hi = indptr[v], indptr[v + 1]
        if hi > lo:
            neighbors = np.asarray(indices[lo:hi], dtype=np.int64)
            matrix[v] |= matrix[neighbors].any(axis=0)
    return matrix


def build_observers(graph: DiGraph, k: int = 8, candidate_factor: int = 4):
    """The observer arrays ``(t1, t2, fmax, bmin, supports, fwd, bwd)``."""
    n = graph.num_vertices
    order = dfs_topological_order(graph)
    t1 = np.asarray(ranks_from_order(order), dtype=np.int64)
    t2 = np.asarray(ranks_from_order(kahn_order(graph)), dtype=np.int64)
    fmax = t1.copy()
    bmin = t1.copy()
    out_indptr, out_indices = graph.out_indptr, graph.out_indices
    in_indptr, in_indices = graph.in_indptr, graph.in_indices
    for v in reversed(order):
        best = fmax[v]
        for e in range(out_indptr[v], out_indptr[v + 1]):
            best = max(best, fmax[out_indices[e]])
        fmax[v] = best
    for v in order:
        best = bmin[v]
        for e in range(in_indptr[v], in_indptr[v + 1]):
            best = min(best, bmin[in_indices[e]])
        bmin[v] = best
    k_eff = min(k, n)
    if k_eff:
        out_deg = np.diff(np.asarray(out_indptr, dtype=np.int64))
        in_deg = np.diff(np.asarray(in_indptr, dtype=np.int64))
        attractiveness = (in_deg + 1) * (out_deg + 1)
        pool = min(n, max(k_eff * max(candidate_factor, 1), k_eff))
        candidates = np.argsort(-attractiveness, kind="stable")[:pool]
        desc = _reach_matrix(graph, candidates, forward=True)
        anc = _reach_matrix(graph, candidates, forward=False)
        num_desc = desc.sum(axis=0, dtype=np.int64)
        num_anc = anc.sum(axis=0, dtype=np.int64)
        score = (
            num_anc * num_desc
            + num_desc * (n - num_desc)
            + num_anc * (n - num_anc)
        )
        chosen = np.argsort(-score, kind="stable")[:k_eff]
        supports = candidates[chosen].astype(np.int64)
        fwd_bits = np.packbits(desc[:, chosen], axis=1, bitorder="little")
        bwd_bits = np.packbits(anc[:, chosen], axis=1, bitorder="little")
    else:
        supports = np.zeros(0, dtype=np.int64)
        fwd_bits = np.zeros((n, 0), dtype=np.uint8)
        bwd_bits = np.zeros((n, 0), dtype=np.uint8)
    return t1, t2, fmax, bmin, supports, fwd_bits, bwd_bits
