"""FELINE-K — the k-dimensional generalisation of the dominance drawing.

The paper notes (§3.1) that problematic graphs exist "for the
construction of any nD index with n arbitrarily large", i.e. the
2-dimensional drawing is a *choice*, not a limit: any number of
topological orderings yields a sound index, with

    r(u, v)  ⇒  rank_i(u) ≤ rank_i(v)   for every ordering i,

so each extra dimension can only remove falsely implied paths (the
dominance set is the intersection over dimensions) at the price of one
more integer per vertex and one more comparison per cut/prune.  This is
FELINE's analogue of GRAIL's ``d`` parameter, and the dimension-sweep
ablation quantifies the diminishing returns that made the authors stop
at two.

Dimension recipe: dimension 0 is the DFS-based ``X``; dimension 1 the
Kornaropoulos ``max-x`` ``Y`` (so ``dimensions=2`` is *exactly* FELINE);
further dimensions are priority-Kahn orderings seeded with random
priorities (distinct seeds), each a valid topological order.
"""

from __future__ import annotations

from array import array

from repro.baselines.base import RankSearchIndex, register_index
from repro.core.heuristics import compute_y_order
from repro.perf.cut_table import RankCuts, RankRow, filter_rows, view_i64
from repro.graph.digraph import DiGraph
from repro.graph.levels import compute_levels
from repro.graph.spanning import (
    IntervalLabels,
    extract_spanning_forest,
    minpost_intervals_tree,
)
from repro.graph.toposort import dfs_topological_order, ranks_from_order

__all__ = ["MultiDimFelineIndex"]


class MultiDimFelineIndex(RankSearchIndex):
    """FELINE with ``dimensions`` topological orderings (default 3).

    ``dimensions=2`` reproduces plain FELINE; higher values trade index
    size for pruning power.  The §3.4 filters are shared unchanged.
    """

    method_name = "feline-k"

    def __init__(
        self,
        graph: DiGraph,
        dimensions: int = 3,
        use_level_filter: bool = True,
        use_positive_cut: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(graph)
        if dimensions < 2:
            raise ValueError(f"dimensions must be >= 2, got {dimensions}")
        self.dimensions = dimensions
        self._use_level_filter = use_level_filter
        self._use_positive_cut = use_positive_cut
        self._seed = seed
        self.ranks: list[array] = []
        self.levels: array | None = None
        self.tree_intervals: IntervalLabels | None = None

    # ------------------------------------------------------------------
    def _build(self) -> None:
        graph = self.graph
        order_x = dfs_topological_order(graph)
        x_ranks = ranks_from_order(order_x)
        dims = [x_ranks]
        dims.append(
            ranks_from_order(
                compute_y_order(graph, x_ranks, heuristic="max-x")
            )
        )
        for extra in range(self.dimensions - 2):
            order = compute_y_order(
                graph, x_ranks, heuristic="random", seed=self._seed + extra + 1
            )
            dims.append(ranks_from_order(order))
        self.ranks = dims

        if self._use_level_filter:
            self.levels = compute_levels(graph)
        if self._use_positive_cut:
            forest = extract_spanning_forest(graph, root_order=order_x)
            self.tree_intervals = minpost_intervals_tree(forest)

    def index_size_bytes(self) -> int:
        total = sum(r.itemsize * len(r) for r in self.ranks)
        if self.levels is not None:
            total += self.levels.itemsize * len(self.levels)
        if self.tree_intervals is not None:
            total += self.tree_intervals.memory_bytes()
        return total

    # ------------------------------------------------------------------
    def dominates(self, u: int, v: int) -> bool:
        """Whether ``u``'s rank ≤ ``v``'s in *every* dimension."""
        return all(r[u] <= r[v] for r in self.ranks)

    def _make_cut_table(self) -> RankCuts:
        rows = [RankRow("negative-cut", view_i64(r)) for r in self.ranks]
        return RankCuts(rows + filter_rows(self.levels, self.tree_intervals))

    def _explain_details(self, u: int, v: int, explanation) -> None:
        """Per-dimension coordinates, and whether dominance failed."""
        details = explanation.details
        details["i(u)"] = tuple(r[u] for r in self.ranks)
        details["i(v)"] = tuple(r[v] for r in self.ranks)
        if self.levels is not None:
            details["level(u)"] = self.levels[u]
            details["level(v)"] = self.levels[v]
        if explanation.cut == "negative-cut":
            details["dominates"] = False


register_index(MultiDimFelineIndex)
