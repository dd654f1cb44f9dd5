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

import numpy as np

from repro.baselines.base import ReachabilityIndex, register_index
from repro.graph.digraph import DiGraph
from repro.graph.levels import compute_levels
from repro.graph.spanning import (
    IntervalLabels,
    extract_spanning_forest,
    minpost_intervals_dag,
    minpost_intervals_tree,
)
from repro.perf.cut_table import CutTable, view_i64

__all__ = ["GrailIndex", "GrailCutTable"]

from array import array


class GrailCutTable(CutTable):
    """GRAIL cuts: ``d``-labelling non-containment, levels, tree interval.

    The ``d`` labellings stack into two ``(d, n)`` matrices, so the
    whole-batch negative cut is two broadcasted comparisons per
    labelling.
    """

    def __init__(self, index: "GrailIndex") -> None:
        self.starts = np.stack(
            [view_i64(labels.start) for labels in index.labelings]
        )
        self.posts = np.stack(
            [view_i64(labels.post) for labels in index.labelings]
        )
        self.labelings = index.labelings
        self.level_array = index.levels
        self.tree_intervals = index.tree_intervals
        self.levels = (
            view_i64(index.levels) if index.levels is not None else None
        )
        intervals = index.tree_intervals
        if intervals is not None:
            self.start = view_i64(intervals.start)
            self.post = view_i64(intervals.post)
        else:
            self.start = self.post = None

    def classify(self, sources, targets):
        negative = np.any(
            (self.starts[:, sources] > self.starts[:, targets])
            | (self.posts[:, targets] > self.posts[:, sources]),
            axis=0,
        )
        levels = self.levels
        if levels is not None:
            negative |= levels[sources] >= levels[targets]
        if self.start is not None:
            positive = (
                ~negative
                & (self.start[sources] <= self.start[targets])
                & (self.post[targets] <= self.post[sources])
            )
        else:
            positive = np.zeros(len(sources), dtype=bool)
        return positive, negative

    def classify_one(self, u, v):
        for labels in self.labelings:
            if labels.start[u] > labels.start[v] or labels.post[v] > labels.post[u]:
                return "negative-cut"
        levels = self.level_array
        if levels is not None and levels[u] >= levels[v]:
            return "level-filter"
        intervals = self.tree_intervals
        if intervals is not None and intervals.contains(u, v):
            return "positive-cut"
        return None


class GrailIndex(ReachabilityIndex):
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
        self._visited = array("l", [0] * graph.num_vertices)
        self._stamp = 0

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
    def _contains_all(self, u: int, v: int) -> bool:
        """Whether every labelling has ``I_v ⊆ I_u`` (no negative cut)."""
        for labels in self.labelings:
            if labels.start[u] > labels.start[v] or labels.post[v] > labels.post[u]:
                return False
        return True

    def _make_cut_table(self) -> GrailCutTable:
        return GrailCutTable(self)

    def _search_pair(self, u: int, v: int) -> bool:
        return self._search(u, v)

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

    def _search(self, u: int, v: int) -> bool:
        """DFS pruned by interval containment (no target-position bound)."""
        indptr = self.graph.out_indptr
        indices = self.graph.out_indices
        levels = self.levels
        intervals = self.tree_intervals
        level_v = levels[v] if levels is not None else 0
        stats = self.stats
        contains_all = self._contains_all
        guard = self._guard

        self._stamp += 1
        stamp = self._stamp
        visited = self._visited
        visited[u] = stamp
        stack = [u]
        while stack:
            w = stack.pop()
            stats.expanded += 1
            if guard is not None:
                guard.step()
            for k in range(indptr[w], indptr[w + 1]):
                child = indices[k]
                if child == v:
                    return True
                if visited[child] == stamp:
                    continue
                visited[child] = stamp
                if not contains_all(child, v):
                    stats.pruned += 1
                    continue
                if levels is not None and levels[child] >= level_v:
                    stats.pruned += 1
                    continue
                if intervals is not None and intervals.contains(child, v):
                    return True
                stack.append(child)
        return False


register_index(GrailIndex)
