"""GRAIL — Graph Reachability indexing via rAndomized Interval Labeling.

Yildirim, Chaoji & Zaki (VLDB 2010), the paper's main competitor.  The
index is ``d`` independent min-post interval labellings of the whole DAG,
each from a DFS that visits successors in a different random order.  For
every labelling ``i`` and every reachable pair, ``I_v ⊆ I_u`` must hold, so
*non*-containment in any labelling is a constant-time negative cut; when
all ``d`` labellings contain, GRAIL falls back to a DFS whose branches are
pruned by the same containment test (plus the shared positive-cut and
level filters of §3.4).

Crucially — and this is FELINE's Figure 5/7 argument — the DFS has *no
bound tied to the target's position*: a false-positive query keeps
expanding until the pruned region is exhausted, which is why GRAIL loses
on query time despite an index ``d`` times larger.
"""

from __future__ import annotations

from random import Random

from repro.baselines.base import RankSearchIndex, register_index
from repro.graph.digraph import DiGraph
from repro.graph.levels import compute_levels
from repro.graph.spanning import (
    IntervalLabels,
    extract_spanning_forest,
    minpost_intervals_dag,
    minpost_intervals_tree,
)
from repro.perf.cut_table import RankCuts, RankRow, filter_rows, view_i64

__all__ = ["GrailIndex"]

from array import array


class GrailIndex(RankSearchIndex):
    """GRAIL with ``d`` randomized interval labellings plus both filters.

    Parameters
    ----------
    graph:
        The input DAG.
    num_labelings:
        ``d``, the number of randomized traversals (the paper's plots use
        d = 3 and d = 5; GRAIL's authors recommend 2–5).
    use_level_filter, use_positive_cut:
        The §3.4 filters, both on in the paper's "fully optimized"
        configuration.
    seed:
        Seeds the ``d`` random traversal orders.
    """

    method_name = "grail"

    def __init__(
        self,
        graph: DiGraph,
        num_labelings: int = 3,
        use_level_filter: bool = True,
        use_positive_cut: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(graph)
        if num_labelings < 1:
            raise ValueError(f"num_labelings must be >= 1, got {num_labelings}")
        self.num_labelings = num_labelings
        self._use_level_filter = use_level_filter
        self._use_positive_cut = use_positive_cut
        self._seed = seed
        self.labelings: list[IntervalLabels] = []
        self.levels: array | None = None
        self.tree_intervals: IntervalLabels | None = None

    # ------------------------------------------------------------------
    def _build(self) -> None:
        rng = Random(self._seed)
        self.labelings = [
            minpost_intervals_dag(self.graph, rng=Random(rng.random()))
            for _ in range(self.num_labelings)
        ]
        if self._use_level_filter:
            self.levels = compute_levels(self.graph)
        if self._use_positive_cut:
            forest = extract_spanning_forest(self.graph)
            self.tree_intervals = minpost_intervals_tree(forest)

    def index_size_bytes(self) -> int:
        total = sum(labels.memory_bytes() for labels in self.labelings)
        if self.levels is not None:
            total += self.levels.itemsize * len(self.levels)
        if self.tree_intervals is not None:
            total += self.tree_intervals.memory_bytes()
        return total

    # ------------------------------------------------------------------
    def _make_cut_table(self) -> RankCuts:
        # Per labelling, I_v ⊆ I_u: start[u] ≤ start[v] ∧ post[v] ≤ post[u].
        rows = []
        for labels in self.labelings:
            rows.append(RankRow("negative-cut", view_i64(labels.start)))
            rows.append(
                RankRow("negative-cut", view_i64(labels.post), reverse=True)
            )
        return RankCuts(rows + filter_rows(self.levels, self.tree_intervals))

    def _explain_details(self, u: int, v: int, explanation) -> None:
        """The d interval labels consulted, and whether containment
        failed."""
        details = explanation.details
        details["labels(u)"] = tuple(
            (labels.start[u], labels.post[u]) for labels in self.labelings
        )
        details["labels(v)"] = tuple(
            (labels.start[v], labels.post[v]) for labels in self.labelings
        )
        if self.levels is not None:
            details["level(u)"] = self.levels[u]
            details["level(v)"] = self.levels[v]
        if explanation.cut == "negative-cut":
            details["containment"] = False


register_index(GrailIndex)
