"""FELINE index construction — the paper's Algorithm 1.

The index assigns each vertex ``v`` a coordinate ``i(v) = (X_v, Y_v)`` in
the plane, where

* ``X`` is any topological ordering of the DAG (we use reversed DFS
  post-order, matching the paper's running example; a ``kahn`` variant is
  available), and
* ``Y`` is a second topological ordering produced by the Kornaropoulos
  heuristic: Kahn peeling that always deletes the current root with the
  **largest X rank** (see :mod:`repro.core.heuristics`).

Soundness (Theorem 1): for any two vertices, ``r(u, v)`` implies
``X_u ≤ X_v ∧ Y_u ≤ Y_v`` — both orderings are topological, so every edge
strictly increases both coordinates.  Because coordinates are permutations,
for distinct vertices the inequalities are strict.

The optional *positive-cut* (min-post intervals over a spanning forest,
§3.4.1) and *level* (§3.4.2) filters are built here too, since the paper
folds both into Algorithm 1's construction pass.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.core.heuristics import compute_y_order
from repro.exceptions import ReproError
from repro.graph.digraph import DiGraph, long_array
from repro.graph.levels import compute_levels
from repro.graph.spanning import (
    IntervalLabels,
    extract_spanning_forest,
    minpost_intervals_tree,
)
from repro.graph.toposort import (
    dfs_topological_order,
    kahn_order,
    ranks_from_order,
)
from repro.obs.metrics import get_registry

__all__ = [
    "FelineCoordinates",
    "FelineCoordinateViews",
    "XSortedAdjacency",
    "build_feline_index",
    "build_feline_with_adjacency",
]


@dataclass(frozen=True)
class FelineCoordinateViews:
    """Numpy views of a :class:`FelineCoordinates` instance.

    ``x``/``y`` (and ``levels``/``start``/``post`` when the filters are
    on) are ``int64`` views of the underlying ``array`` storage — created
    once and cached on the owning coordinates (which are frozen, so the
    views can never go stale).  The batch engine's cut tables read these
    instead of converting per call.
    """

    x: np.ndarray
    y: np.ndarray
    levels: np.ndarray | None
    start: np.ndarray | None
    post: np.ndarray | None


@dataclass(frozen=True)
class FelineCoordinates:
    """The FELINE index: per-vertex plane coordinates plus optional filters.

    Attributes
    ----------
    x, y:
        ``x[v]``, ``y[v]`` are the coordinates ``i(v)``; each array is a
        permutation of ``0 .. n-1``.
    levels:
        Vertex depths for the level filter, or ``None`` when disabled.
    tree_intervals:
        Min-post labels over a spanning forest for the positive-cut
        filter, or ``None`` when disabled.
    """

    x: array
    y: array
    levels: array | None
    tree_intervals: IntervalLabels | None

    @property
    def num_vertices(self) -> int:
        return len(self.x)

    def dominates(self, u: int, v: int) -> bool:
        """Whether ``i(u) ≼ i(v)`` (``v`` in the upper-right quadrant).

        By Theorem 1 a *false* result disproves ``r(u, v)`` in O(1) — the
        negative cut.
        """
        return self.x[u] <= self.x[v] and self.y[u] <= self.y[v]

    def coordinate(self, v: int) -> tuple[int, int]:
        """``i(v)`` as an ``(x, y)`` pair — e.g. for Figure 12 plots."""
        return self.x[v], self.y[v]

    @cached_property
    def views(self) -> FelineCoordinateViews:
        """Cached numpy views of the coordinate (and filter) arrays.

        Computed on first access, then the identical
        :class:`FelineCoordinateViews` object forever (the dataclass is
        frozen, so there is nothing to invalidate).  Zero-copy where the
        storage itemsize already matches ``int64``.
        """
        from repro.perf.cut_table import view_i64

        intervals = self.tree_intervals
        return FelineCoordinateViews(
            x=view_i64(self.x),
            y=view_i64(self.y),
            levels=view_i64(self.levels) if self.levels is not None else None,
            start=view_i64(intervals.start) if intervals is not None else None,
            post=view_i64(intervals.post) if intervals is not None else None,
        )

    def shared_arrays(self, prefix: str) -> dict:
        """The cached views as ``{prefix}.<field>`` arrays for a
        :class:`~repro.perf.shm.SharedIndexPages` arena (absent filters
        are left out)."""
        return {
            f"{prefix}.{name}": arr
            for name, arr in vars(self.views).items()
            if arr is not None
        }

    def adopt_views(self, pages, prefix: str) -> FelineCoordinateViews:
        """Re-point the cached views at the arena copies written from
        :meth:`shared_arrays`; returns the previous views for
        :meth:`restore_views`."""
        views = self.views
        # cached_property storage — assign through __dict__ (the
        # dataclass is frozen; cached_property itself does the same).
        self.__dict__["views"] = FelineCoordinateViews(**{
            name: pages.view(f"{prefix}.{name}") if arr is not None else None
            for name, arr in vars(views).items()
        })
        return views

    def restore_views(self, views: FelineCoordinateViews) -> None:
        """Undo :meth:`adopt_views`."""
        self.__dict__["views"] = views

    def memory_bytes(self) -> int:
        """Index footprint: coordinates plus whichever filters are on."""
        total = self.x.itemsize * len(self.x) + self.y.itemsize * len(self.y)
        if self.levels is not None:
            total += self.levels.itemsize * len(self.levels)
        if self.tree_intervals is not None:
            total += self.tree_intervals.memory_bytes()
        return total


@dataclass(frozen=True)
class XSortedAdjacency:
    """The DAG's out-CSR with every row's children ordered by ``X`` rank.

    The pruned DFS (paper Algorithm 3) drops every child ``w`` with
    ``X[w] > X[v]``.  With each row sorted by ``X`` those children form
    the row's suffix, so one ``bisect_right`` over ``keys`` cuts them
    all and only the prefix needs per-child checks.  ``indices[k]`` is
    a child and ``keys[k] == X[indices[k]]``; row ``w`` spans the
    graph's own ``out_indptr[w] : out_indptr[w + 1]``, whose CSR is left
    untouched.

    A search structure, not index data: derived at build and load time
    (one argsort, 16 bytes per edge), never persisted, and not counted
    by ``index_size_bytes``.  ``indices``/``keys`` are the ``array``
    storage the python loop indexes; ``indices_np``/``keys_np`` the
    ``int64`` views the numpy and numba tiers read (swapped for
    shared-memory copies by :meth:`adopt`).
    """

    indices: array
    keys: array
    indices_np: np.ndarray
    keys_np: np.ndarray

    @classmethod
    def build(cls, graph: DiGraph, x: np.ndarray) -> "XSortedAdjacency":
        """Sort ``graph``'s out-rows by ``x`` (an ``int64`` rank view)."""
        from repro.perf.cut_table import view_i64

        csr = graph.csr()
        n = graph.num_vertices
        children = csr.out_indices
        keys = x[children]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.out_indptr))
        # Ranks are below n, so row·n + X orders by row, then by X (exact
        # while n² < 2**63).  Only a duplicated edge ties, and its copies
        # are the same child.
        order = np.argsort(rows * n + keys)
        indices = long_array(children[order])
        keys = long_array(keys[order])
        return cls(indices, keys, view_i64(indices), view_i64(keys))

    def shared_arrays(self, prefix: str) -> dict:
        """The numpy views as named arrays for a shared-pages arena."""
        return {
            f"{prefix}.adj_indices": self.indices_np,
            f"{prefix}.adj_keys": self.keys_np,
        }

    def adopt(self, pages, prefix: str) -> "XSortedAdjacency":
        """The same adjacency with its numpy views on the arena copies
        written from :meth:`shared_arrays`."""
        return replace(
            self,
            indices_np=pages.view(f"{prefix}.adj_indices"),
            keys_np=pages.view(f"{prefix}.adj_keys"),
        )


def build_feline_index(
    graph: DiGraph,
    y_heuristic: str = "max-x",
    x_order: str = "dfs",
    with_level_filter: bool = True,
    with_positive_cut: bool = True,
    seed: int = 0,
) -> FelineCoordinates:
    """Run Algorithm 1 on ``graph`` (must be a DAG).

    Parameters
    ----------
    graph:
        The input DAG.
    y_heuristic:
        Root-selection rule for the ``Y`` ordering; ``"max-x"`` is the
        paper's locally-optimal heuristic (see
        :mod:`repro.core.heuristics` for the ablation alternatives).
    x_order:
        ``"dfs"`` (reversed DFS post-order; also yields the spanning
        forest for the positive cut, as the paper suggests) or ``"kahn"``.
    with_level_filter, with_positive_cut:
        Build the §3.4 filters.  The paper's evaluated configuration has
        both on; the filter ablation bench turns them off.
    seed:
        Only used by randomized ablation heuristics.

    Raises
    ------
    NotADAGError
        If ``graph`` has a directed cycle.
    """
    return build_feline_with_adjacency(
        graph,
        y_heuristic=y_heuristic,
        x_order=x_order,
        with_level_filter=with_level_filter,
        with_positive_cut=with_positive_cut,
        seed=seed,
    )[0]


def build_feline_with_adjacency(
    graph: DiGraph,
    y_heuristic: str = "max-x",
    x_order: str = "dfs",
    with_level_filter: bool = True,
    with_positive_cut: bool = True,
    seed: int = 0,
) -> tuple[FelineCoordinates, XSortedAdjacency]:
    """:func:`build_feline_index` plus the graph's
    :class:`XSortedAdjacency` over the new ``X``.

    The rows are sorted once, before ``Y``: the ``max-x`` pass walks
    them, and the pruned DFS of the index being built walks them after.
    """
    registry = get_registry()
    with registry.phase("feline.build", "x-order"):
        if x_order == "dfs":
            order_x = dfs_topological_order(graph)
        elif x_order == "kahn":
            order_x = kahn_order(graph)
        else:
            raise ReproError(
                f"unknown x_order {x_order!r}; use 'dfs' or 'kahn'"
            )
        x_ranks = ranks_from_order(order_x)
        adjacency = XSortedAdjacency.build(
            graph, np.asarray(x_ranks, dtype=np.int64)
        )

    with registry.phase("feline.build", "y-heuristic", heuristic=y_heuristic):
        order_y = compute_y_order(
            graph, x_ranks, heuristic=y_heuristic, seed=seed,
            adjacency=adjacency,
        )
        y_ranks = ranks_from_order(order_y)

    levels = None
    if with_level_filter:
        with registry.phase("feline.build", "level-filter"):
            levels = compute_levels(graph)

    tree_intervals = None
    if with_positive_cut:
        # Reuse the X ordering's DFS as the spanning-forest traversal (the
        # paper: the tree "may be performed by the topological ordering in
        # line 2").  Seeding the forest DFS with the X order keeps the two
        # structures consistent.
        with registry.phase("feline.build", "positive-cut-forest"):
            forest = extract_spanning_forest(graph, root_order=order_x)
            tree_intervals = minpost_intervals_tree(forest)

    coordinates = FelineCoordinates(
        x=x_ranks, y=y_ranks, levels=levels, tree_intervals=tree_intervals
    )
    return coordinates, adjacency
