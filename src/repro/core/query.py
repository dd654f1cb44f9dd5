"""FELINE query answering — the paper's Algorithms 2 and 3.

A query ``r(u, v)`` runs the two-step process of §3:

1. **Constant-time cuts.**  ``u == v`` answers positively (reflexivity);
   ``i(u) ⋠ i(v)`` answers negatively (Theorem 1 contrapositive — the
   *negative cut*); with the optional filters, ``l_u ≥ l_v`` answers
   negatively (*level filter*) and tree-interval containment answers
   positively (*positive-cut filter*) — Algorithm 3's lines 1–2 and 6,
   encoded in :class:`FelineCutTable` and run by the base class's query
   chain.
2. **Refined online search.**  Otherwise an iterative DFS from ``u``
   expands only vertices ``w`` with ``i(w) ≼ i(v)`` — the per-dimension
   bounds checks that let FELINE discard branches GRAIL (no bound) and
   FERRARI (one-dimensional bound) keep exploring (Figures 5–7).  The
   DFS walks an X-sorted adjacency, so the ``X`` bound is one bisect
   per expanded vertex and cuts the children past it as a block;
   ``stats.pruned`` counts child edges cut per expansion (that block,
   plus first-seen children failing the ``Y`` or level bound).

The visited set is a *timestamped* array reused across queries, so a query
costs O(vertices actually expanded), never O(|V|) — essential when a
workload issues hundreds of thousands of queries.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.baselines.base import ReachabilityIndex, register_index
from repro.core.index import (
    FelineCoordinates,
    XSortedAdjacency,
    build_feline_with_adjacency,
)
from repro.graph.digraph import DiGraph
from repro.perf.cut_table import CutTable

__all__ = ["FelineIndex", "FelineCutTable"]


class FelineCutTable(CutTable):
    """FELINE's O(1) cuts over the cached coordinate views (one pair:
    over the coordinates' ``array`` storage).

    Negative: dominance fails in either dimension, or the level filter
    fires.  Positive: dominance holds, levels pass, and the min-post
    tree interval of ``v`` is contained in ``u``'s.
    """

    def __init__(self, coordinates: FelineCoordinates) -> None:
        views = coordinates.views
        self.x = views.x
        self.y = views.y
        self.levels = views.levels
        self.start = views.start
        self.post = views.post
        self.coordinates = coordinates

    def classify(self, sources, targets):
        dominated = (self.x[sources] <= self.x[targets]) & (
            self.y[sources] <= self.y[targets]
        )
        levels = self.levels
        if levels is not None:
            dominated &= levels[sources] < levels[targets]
        negative = ~dominated
        if self.start is not None:
            positive = (
                dominated
                & (self.start[sources] <= self.start[targets])
                & (self.post[targets] <= self.post[sources])
            )
        else:
            positive = np.zeros(len(sources), dtype=bool)
        return positive, negative

    def classify_one(self, u, v):
        coords = self.coordinates
        x, y = coords.x, coords.y
        if x[u] > x[v] or y[u] > y[v]:
            return "negative-cut"
        levels = coords.levels
        if levels is not None and levels[u] >= levels[v]:
            return "level-filter"
        intervals = coords.tree_intervals
        if intervals is not None and intervals.contains(u, v):
            return "positive-cut"
        return None


class FelineIndex(ReachabilityIndex):
    """The FELINE reachability index (coordinates + filters + pruned DFS).

    Parameters
    ----------
    graph:
        The input DAG.
    y_heuristic, x_order, seed:
        Passed to :func:`repro.core.index.build_feline_index`; the
        defaults are the paper's evaluated configuration.
    use_level_filter, use_positive_cut:
        Enable the §3.4 filters (both on in the paper's experiments).

    Examples
    --------
    >>> from repro.graph.generators import diamond_graph
    >>> index = FelineIndex(diamond_graph()).build()
    >>> index.query(0, 3)
    True
    >>> index.query(1, 2)
    False
    """

    method_name = "feline"

    def __init__(
        self,
        graph: DiGraph,
        y_heuristic: str = "max-x",
        x_order: str = "dfs",
        use_level_filter: bool = True,
        use_positive_cut: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(graph)
        self._y_heuristic = y_heuristic
        self._x_order = x_order
        self._use_level_filter = use_level_filter
        self._use_positive_cut = use_positive_cut
        self._seed = seed
        self.coordinates: FelineCoordinates | None = None
        # The search side: the X-sorted adjacency the pruned DFS walks
        # and the bound search tier (repro.perf.kernels.FelineSearch).
        self.adjacency: XSortedAdjacency | None = None
        self._dfs = None
        # Timestamped visited marks: _visited[w] == _stamp ⇔ w seen in the
        # current query's search.
        self._visited = array("l", [0] * graph.num_vertices)
        self._stamp = 0

    # ------------------------------------------------------------------
    def _build(self) -> None:
        self.attach_coordinates(
            *build_feline_with_adjacency(
                self.graph,
                y_heuristic=self._y_heuristic,
                x_order=self._x_order,
                with_level_filter=self._use_level_filter,
                with_positive_cut=self._use_positive_cut,
                seed=self._seed,
            )
        )

    def attach_coordinates(
        self,
        coordinates: FelineCoordinates,
        adjacency: XSortedAdjacency | None = None,
    ) -> None:
        """Install built or loaded coordinates with the X-sorted adjacency
        the pruned DFS walks (see :class:`XSortedAdjacency`), derived here
        unless the builder hands over its own."""
        self.coordinates = coordinates
        if adjacency is None:
            adjacency = XSortedAdjacency.build(
                self.graph, coordinates.views.x
            )
        self.adjacency = adjacency

    def index_size_bytes(self) -> int:
        if self.coordinates is None:
            return 0
        return self.coordinates.memory_bytes()

    def _make_cut_table(self) -> FelineCutTable:
        return FelineCutTable(self.coordinates)

    def _search_pair(self, u: int, v: int) -> bool:
        coords = self.coordinates
        return self._search(u, v, coords.x[v], coords.y[v])

    def _bind_kernel(self) -> None:
        from repro.perf import kernels

        self._dfs = kernels.bind_feline_search(
            self, self.adjacency, self.coordinates
        )

    def _shared_arrays(self) -> dict:
        arrays = super()._shared_arrays()
        arrays.update(self.coordinates.shared_arrays("feline"))
        arrays.update(self.adjacency.shared_arrays("feline"))
        return arrays

    def _adopt_shared_arrays(self, pages) -> None:
        super()._adopt_shared_arrays(pages)
        originals = self._shared_originals
        originals["feline"] = self.coordinates.adopt_views(pages, "feline")
        originals["adjacency"] = self.adjacency
        self.adjacency = self.adjacency.adopt(pages, "feline")

    def _restore_shared_arrays(self) -> None:
        super()._restore_shared_arrays()
        originals = self._shared_originals or {}
        if "feline" in originals:
            self.coordinates.restore_views(originals["feline"])
            self.adjacency = originals["adjacency"]

    # ------------------------------------------------------------------
    def _explain_details(self, u: int, v: int, explanation) -> None:
        """FELINE provenance: coordinates, levels, intervals consulted.

        The cut table names the coordinate cut (``i(u) ⋠ i(v)``,
        Theorem 1, ``negative-cut``) apart from the level filter
        (``l_u ≥ l_v``, §3.4.2, ``level-filter``) — the
        :class:`QueryStats` counters lump both as ``negative_cuts``.
        """
        coords = self.coordinates
        details = explanation.details
        details["i(u)"] = coords.coordinate(u)
        details["i(v)"] = coords.coordinate(v)
        levels = coords.levels
        if levels is not None:
            details["level(u)"] = levels[u]
            details["level(v)"] = levels[v]
        if explanation.cut == "negative-cut":
            details["dominates"] = False
        elif explanation.cut == "positive-cut":
            intervals = coords.tree_intervals
            details["interval(u)"] = (intervals.start[u], intervals.post[u])
            details["interval(v)"] = (intervals.start[v], intervals.post[v])

    def _search(self, u: int, v: int, xv: int, yv: int) -> bool:
        """One pruned DFS from ``u`` restricted to ``{w : i(w) ≼ i(v)}``.

        Runs on the bound tier (:mod:`repro.perf.kernels`; every tier
        is bit-identical in answers, stats and budget semantics) and
        honours the active :class:`~repro.resilience.budget.SearchGuard`
        (one step per expanded vertex).  ``stats.pruned`` counts child
        edges cut per expansion: the children past the ``X`` bisect,
        plus the first-seen children failing the ``Y`` or level bound.
        """
        return self._dfs.search(u, v, xv, yv)


register_index(FelineIndex)
