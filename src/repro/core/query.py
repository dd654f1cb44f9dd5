"""FELINE query answering — the paper's Algorithms 2 and 3.

A query ``r(u, v)`` runs the two-step process of §3:

1. **Constant-time cuts.**  ``u == v`` answers positively (reflexivity);
   ``i(u) ⋠ i(v)`` answers negatively (Theorem 1 contrapositive — the
   *negative cut*); with the optional filters, ``l_u ≥ l_v`` answers
   negatively (*level filter*) and tree-interval containment answers
   positively (*positive-cut filter*) — Algorithm 3's lines 1–2 and 6,
   declared as rank rows (:func:`feline_rows`) and run by the base
   class's query chain.
2. **Refined online search.**  Otherwise an iterative DFS from ``u``
   expands only vertices ``w`` with ``i(w) ≼ i(v)`` — the per-dimension
   bounds checks that let FELINE discard branches GRAIL (no bound) and
   FERRARI (one-dimensional bound) keep exploring (Figures 5–7).  The
   DFS is the rows' search (:meth:`~repro.perf.cut_table.RankCuts.search`)
   over an X-sorted adjacency with ``X`` as the key row, so the ``X``
   bound is one bisect per expanded vertex and cuts the children past it
   as a block;
   ``stats.pruned`` counts child edges cut per expansion (that block,
   plus first-seen children failing the ``Y`` or level bound).

The visited set is a *timestamped* array reused across queries, so a query
costs O(vertices actually expanded), never O(|V|) — essential when a
workload issues hundreds of thousands of queries.
"""

from __future__ import annotations

from repro.baselines.base import RankSearchIndex, register_index
from repro.core.index import (
    FelineCoordinates,
    XSortedAdjacency,
    build_feline_with_adjacency,
)
from repro.graph.digraph import DiGraph
from repro.perf.cut_table import RankCuts, RankRow, filter_rows

__all__ = ["FelineIndex", "feline_rows"]


def feline_rows(coordinates: FelineCoordinates) -> list[RankRow]:
    """FELINE's cuts over the coordinates' cached views: dominance
    ``i(u) ≼ i(v)`` in ``X`` and ``Y`` (the negative cut), then the
    §3.4 filters that are on."""
    views = coordinates.views
    return [
        RankRow("negative-cut", views.x),
        RankRow("negative-cut", views.y),
        *filter_rows(views.levels, views),
    ]


class FelineIndex(RankSearchIndex):
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
        # The X-sorted adjacency the pruned DFS walks.
        self.adjacency: XSortedAdjacency | None = None

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

    def _make_cut_table(self) -> RankCuts:
        # X is the key row the adjacency is sorted by.
        return RankCuts(feline_rows(self.coordinates), key=0)

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


register_index(FelineIndex)
