"""Spanning forests and min-post interval labelling (positive-cut filter).

Several reachability indexes (GRAIL, FERRARI, FELINE) extract a spanning
forest of the DAG and label it with *min-post* intervals: each vertex ``u``
gets ``I_u = [s_u, e_u]`` where ``e_u = post(u)`` is its post-order rank in
the forest and ``s_u`` is the minimum ``s`` among its tree children (its own
post-order rank at a leaf).  On tree edges the containment ``I_v ⊆ I_u``
*proves* reachability ``r(u, v)`` — the *positive-cut filter* of the paper's
§3.4.1 — while nothing can be concluded for non-tree paths.

GRAIL generalises the same labelling to the whole DAG (children = all DAG
successors, visited in random order), where containment becomes a *negative*
cut instead; :func:`minpost_intervals_dag` provides that variant.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from random import Random

import numpy as np

from repro.graph.digraph import DiGraph, long_array
from repro.graph.toposort import checked_roots

__all__ = [
    "SpanningForest",
    "extract_spanning_forest",
    "minpost_intervals_tree",
    "minpost_intervals_dag",
    "IntervalLabels",
]


@dataclass(frozen=True)
class SpanningForest:
    """A spanning forest of a DAG.

    ``parent[v]`` is the tree parent of ``v`` (-1 at a forest root);
    ``children[v]`` lists tree children.  The forest covers every vertex.
    ``order`` lists the vertices parents first (the traversal's visit
    order); ``child_indptr``/``child_indices`` are ``children`` as an
    ``int64`` CSR, from which ``children`` is built on first read.
    """

    parent: array
    order: list[int] = field(repr=False, compare=False)
    child_indptr: np.ndarray = field(repr=False, compare=False)
    child_indices: np.ndarray = field(repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> list[list[int]]:
        """``children[v]``: the tree children of ``v``, in edge order."""
        kids = self.child_indices.tolist()
        bounds = self.child_indptr.tolist()
        return [kids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def tree_roots(self) -> list[int]:
        """The forest's root vertices."""
        return [v for v in range(len(self.parent)) if self.parent[v] == -1]


@dataclass(frozen=True)
class IntervalLabels:
    """Min-post interval labels ``I_v = [start[v], post[v]]``.

    ``contains(u, v)`` tests ``I_v ⊆ I_u``:

    * on labels from :func:`minpost_intervals_tree` this is a *positive*
      cut (containment proves reachability along tree edges);
    * on labels from :func:`minpost_intervals_dag` this is a *negative*
      cut (non-containment disproves reachability) — GRAIL's usage.
    """

    start: array
    post: array

    def contains(self, u: int, v: int) -> bool:
        """Whether ``I_v ⊆ I_u``."""
        return self.start[u] <= self.start[v] and self.post[v] <= self.post[u]

    def memory_bytes(self) -> int:
        """Approximate footprint of the two label arrays."""
        return self.start.itemsize * len(self.start) + self.post.itemsize * len(
            self.post
        )


def extract_spanning_forest(
    graph: DiGraph, root_order: Sequence[int] | None = None
) -> SpanningForest:
    """DFS spanning forest: first DFS discovery edge to each vertex wins.

    The paper notes the forest "may be performed by the topological
    ordering in line 2" of Algorithm 1 — i.e. it falls out of the same DFS
    that produces the ``X`` coordinates, and that is exactly what FELINE's
    builder does by passing the DFS root order used for ``X``.

    A popped vertex claims its unclaimed children, pushed last edge
    first so they pop in edge order.  The traversal records only
    ``parent`` and the visit order; the children follow from ``parent``
    in numpy.  The traversal is compiled where the C library loads
    (:func:`repro.perf.kernels.c_spanning_forest`).  A root outside
    ``0 .. n-1`` raises :class:`~repro.exceptions.InvalidVertexError`
    before any work.
    """
    from repro.perf.kernels import c_spanning_forest

    if root_order is not None:
        root_order = checked_roots(root_order, graph.num_vertices)
    traversed = c_spanning_forest(graph, root_order)
    if traversed is None:
        if isinstance(root_order, np.ndarray):
            root_order = root_order.tolist()
        traversed = _python_traversal(graph, root_order)
    parent, order = traversed
    child_indptr, child_indices = _tree_children(graph, parent)
    return SpanningForest(parent, order, child_indptr, child_indices)


def _python_traversal(
    graph: DiGraph, root_order: Sequence[int] | None
) -> tuple[array, list[int]]:
    """The traversal of :func:`extract_spanning_forest` in python:
    ``parent`` and the visit order."""
    n = graph.num_vertices
    indptr, indices = graph.out_indptr, graph.out_indices
    m = len(indices)
    # Row u reversed is reverse_indices[m - indptr[u + 1] : m - indptr[u]].
    reverse_indices = indices[::-1]
    parent = array("l", [-1]) * n
    visited = bytearray(n)
    order: list[int] = []
    visit = order.append
    for root in root_order if root_order is not None else range(n):
        if visited[root]:
            continue
        visited[root] = 1
        stack = [root]
        push, pop = stack.append, stack.pop
        while stack:
            u = pop()
            visit(u)
            for w in reverse_indices[m - indptr[u + 1]:m - indptr[u]]:
                if not visited[w]:
                    visited[w] = 1
                    parent[w] = u
                    push(w)
    return parent, order


def _tree_children(graph: DiGraph, parent: array):
    """``(indptr, indices)`` of the tree children, grouped by parent.

    The tree edges are the out-edges ``(u, w)`` with ``parent[w] == u``,
    kept in edge order.  A duplicated tree edge counts once, at its last
    copy: that is the copy the traversal's reversed row met first.
    """
    n = graph.num_vertices
    csr = graph.csr()
    targets = csr.out_indices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.out_indptr))
    parents = np.asarray(parent, dtype=np.int64)
    tree = np.flatnonzero(parents[targets] == rows)
    if len(tree) != np.count_nonzero(parents >= 0):
        _, first_from_end = np.unique(targets[tree][::-1], return_index=True)
        tree = tree[np.sort(len(tree) - 1 - first_from_end)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[tree], minlength=n), out=indptr[1:])
    return indptr, targets[tree]


def minpost_intervals_tree(forest: SpanningForest) -> IntervalLabels:
    """Min-post labels over a spanning forest (positive-cut filter).

    Post-order of the forest, roots in id order and children in
    ``children`` order.  A subtree is a run of post-order ranks ending
    at its root, so ``start[v] = base[v]`` and ``post[v] = base[v] +
    size[v] - 1``, where ``base[v]`` is the first rank of ``v``'s
    subtree: its parent's ``base`` plus the sizes of its earlier
    siblings (earlier roots, for a root).  One pass up ``order`` sums
    subtree sizes, one cumsum gives the sibling offsets and one pass
    down ``order`` the bases.  O(|V|).  The two passes are compiled
    where the C library loads (:func:`repro.perf.kernels.c_subtree_pass`).
    """
    from repro.perf.kernels import _i64_run, c_subtree_pass

    n = forest.num_vertices
    order = forest.order
    order_i64 = _i64_run(order)
    # Slot n (reached as index -1) absorbs what the roots pass up.
    size = c_subtree_pass(
        "subtree_sizes", order_i64, forest.parent,
        np.ones(n + 1, dtype=np.int64),
    )
    if size is None:
        parent = forest.parent.tolist()
        size = [1] * (n + 1)
        for v in reversed(order):
            size[parent[v]] += size[v]
    size = np.array(size[:n], dtype=np.int64)

    # Offsets within each sibling run: an exclusive cumsum of the sizes,
    # restarted at each parent's first child; the roots form one run.
    kids, bounds = forest.child_indices, forest.child_indptr
    offset = np.zeros(n + 1, dtype=np.int64)
    if len(kids):
        before = np.cumsum(size[kids]) - size[kids]
        first = np.repeat(bounds[:-1], np.diff(bounds))
        offset[kids] = before - before[first]
    roots = np.flatnonzero(np.asarray(forest.parent) < 0)
    offset[roots] = np.cumsum(size[roots]) - size[roots]

    base = c_subtree_pass("subtree_bases", order_i64, forest.parent, offset)
    if base is None:
        parent = forest.parent.tolist()
        base = offset.tolist()
        for v in order:
            base[v] += base[parent[v]]
    start = np.array(base[:n], dtype=np.int64)
    return IntervalLabels(
        start=long_array(start), post=long_array(start + size - 1)
    )


def minpost_intervals_dag(
    graph: DiGraph, rng: Random | None = None
) -> IntervalLabels:
    """GRAIL-style min-post labels computed over the *whole DAG*.

    One randomized DFS traversal: successors are visited in random order
    (when ``rng`` is given), ``post[v]`` is the DFS finish rank and
    ``start[v] = min(start of any successor, own post rank)`` — so ``I_v``
    covers the interval of everything reachable from ``v`` in this
    traversal, making non-containment a sound negative cut.
    """
    n = graph.num_vertices
    indptr, indices = graph.out_indptr, graph.out_indices
    post = array("l", [0] * n)
    start = array("l", [0] * n)
    visited = bytearray(n)
    counter = 0

    roots = [v for v in range(n) if graph.in_indptr[v] == graph.in_indptr[v + 1]]
    if not roots:  # fully covered by cycles should not happen on DAGs,
        roots = list(range(n))  # but stay safe for arbitrary inputs
    if rng is not None:
        rng.shuffle(roots)

    for root in roots + list(range(n)):
        if visited[root]:
            continue
        visited[root] = 1
        succ_of_root = list(indices[indptr[root] : indptr[root + 1]])
        if rng is not None:
            rng.shuffle(succ_of_root)
        stack: list[tuple[int, list[int], int]] = [(root, succ_of_root, 0)]
        while stack:
            v, succ, pos = stack[-1]
            if pos < len(succ):
                stack[-1] = (v, succ, pos + 1)
                w = succ[pos]
                if not visited[w]:
                    visited[w] = 1
                    succ_w = list(indices[indptr[w] : indptr[w + 1]])
                    if rng is not None:
                        rng.shuffle(succ_w)
                    stack.append((w, succ_w, 0))
            else:
                stack.pop()
                low = counter
                for w in succ:
                    if start[w] < low:
                        low = start[w]
                start[v] = low
                post[v] = counter
                counter += 1
    return IntervalLabels(start=start, post=post)
