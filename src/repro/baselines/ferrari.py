"""FERRARI — Flexible and Efficient Reachability Range Assignment.

Seufert, Anand, Bedathur & Weikum (ICDE 2013).  Like GRAIL, FERRARI labels
vertices with intervals over a post-order numbering, but instead of ``d``
independent single intervals it keeps, per vertex, a *set* of at most ``k``
intervals covering the ids of its reachable set:

* processing vertices in reverse topological order, a vertex's interval
  set is the coalesced union of its successors' sets plus its own id;
* when a set exceeds the size budget ``k``, adjacent intervals with the
  smallest gaps are merged into **approximate** intervals (a merge may
  cover ids that are *not* reachable), while untouched intervals stay
  **exact**;
* a query probes ``id(v)`` in ``S(u)`` by binary search: not covered ⇒
  *false* in O(log k); covered by an exact interval ⇒ *true* in O(log k);
  covered only approximately ⇒ DFS.

The DFS applies FERRARI's distinguishing prune, the **topological-rank
bound**: any vertex that can still reach ``v`` must finish after ``v`` in
the post-order DFS, so a branch whose post id is below ``id(v)`` is dead —
the one-dimensional version of FELINE's two-dimensional bound (Figure 7).
The shared level and positive-cut filters of §3.4 are applied as in the
paper's "fully optimized" configuration.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

import numpy as np

from repro.baselines.base import ReachabilityIndex, register_index
from repro.graph.digraph import DiGraph
from repro.graph.levels import compute_levels
from repro.graph.spanning import (
    IntervalLabels,
    extract_spanning_forest,
    minpost_intervals_tree,
)
from repro.graph.toposort import dfs_post_order_ranks, kahn_order
from repro.perf.cut_table import (
    CutTable,
    segment_keys,
    segmented_arrays,
    view_i64,
)

__all__ = [
    "FerrariIndex",
    "FerrariCutTable",
    "IntervalSet",
    "merge_interval_lists",
    "restrict_to_budget",
]


class FerrariCutTable(CutTable):
    """FERRARI cuts: batched interval-set probes via segmented bisect.

    All per-vertex interval sets concatenate into one flat array whose
    keys ``vertex * n + lo`` are globally sorted, so a whole batch of
    ``probe(id(v)) ∈ S(u)`` lookups is a single ``searchsorted``.
    Classification order: not covered ⇒ negative; exactly covered ⇒
    positive (before the level filter); approximately covered ⇒ level
    filter then tree interval then search.  FERRARI reports its level
    filter as ``negative-cut``, like its interval-set miss.
    """

    def __init__(self, index: "FerrariIndex") -> None:
        n = index.graph.num_vertices
        self.n = n
        self.ids = view_i64(index.ids)
        sets = index.interval_sets
        los_flat, indptr = segmented_arrays([s.los for s in sets])
        his_flat, _ = segmented_arrays([s.his for s in sets])
        self.keys = segment_keys(los_flat, indptr, n)
        self.indptr = indptr
        self.his = his_flat
        payload = b"".join(bytes(s.exact) for s in sets)
        self.exact = np.frombuffer(payload, dtype=np.uint8)
        self.levels = (
            view_i64(index.levels) if index.levels is not None else None
        )
        intervals = index.tree_intervals
        if intervals is not None:
            self.start = view_i64(intervals.start)
            self.post = view_i64(intervals.post)
        else:
            self.start = self.post = None
        self.id_array = index.ids
        self.interval_sets = sets
        self.level_array = index.levels
        self.tree_intervals = intervals

    def classify(self, sources, targets):
        target_ids = self.ids[targets]
        probe = np.searchsorted(
            self.keys, sources * np.int64(self.n) + target_ids, side="right"
        ) - 1
        valid = probe >= self.indptr[sources]
        safe = np.maximum(probe, 0)
        covered = valid & (self.his[safe] >= target_ids)
        exact = covered & (self.exact[safe] != 0)
        approximate = covered & ~exact
        if self.levels is not None:
            level_fail = self.levels[sources] >= self.levels[targets]
        else:
            level_fail = np.zeros(len(sources), dtype=bool)
        negative = ~covered | (approximate & level_fail)
        positive = exact
        if self.start is not None:
            positive = positive | (
                approximate
                & ~level_fail
                & (self.start[sources] <= self.start[targets])
                & (self.post[targets] <= self.post[sources])
            )
        return positive, negative

    def classify_one(self, u, v):
        coverage = self.interval_sets[u].probe(self.id_array[v])
        if coverage == 0:
            return "negative-cut"
        if coverage == 2:
            return "positive-cut"
        levels = self.level_array
        if levels is not None and levels[u] >= levels[v]:
            return "level-filter"
        intervals = self.tree_intervals
        if intervals is not None and intervals.contains(u, v):
            return "positive-cut"
        return None


class IntervalSet:
    """A sorted set of disjoint id intervals with exact/approximate flags.

    Stored as three parallel arrays (``los``, ``his``, ``exact``) so a
    million-vertex index stays compact.  ``probe(id)`` returns:

    * ``0`` — id not covered (reachability disproved),
    * ``1`` — id covered by an approximate interval (search needed),
    * ``2`` — id covered by an exact interval (reachability proved).
    """

    __slots__ = ("los", "his", "exact")

    def __init__(self, los: array, his: array, exact: bytearray) -> None:
        self.los = los
        self.his = his
        self.exact = exact

    def __len__(self) -> int:
        return len(self.los)

    def probe(self, vertex_id: int) -> int:
        """Coverage of ``vertex_id``: 0 = no, 1 = approximate, 2 = exact."""
        pos = bisect_right(self.los, vertex_id) - 1
        if pos < 0 or self.his[pos] < vertex_id:
            return 0
        return 2 if self.exact[pos] else 1

    def intervals(self) -> list[tuple[int, int, bool]]:
        """The intervals as ``(lo, hi, exact)`` tuples (for tests/reports)."""
        return [
            (self.los[i], self.his[i], bool(self.exact[i]))
            for i in range(len(self.los))
        ]

    def memory_bytes(self) -> int:
        return (
            self.los.itemsize * len(self.los)
            + self.his.itemsize * len(self.his)
            + len(self.exact)
        )


def merge_interval_lists(
    lists: list[list[tuple[int, int, bool]]],
) -> list[tuple[int, int, bool]]:
    """Coalesce several sorted interval lists into one disjoint sorted list.

    Overlapping or adjacent (gap 0) intervals fuse; the fusion is exact
    only when *every* fused part is exact — merging an approximate
    interval can only widen over-approximation, never fix it.
    """
    items = sorted(interval for lst in lists for interval in lst)
    merged: list[tuple[int, int, bool]] = []
    for lo, hi, exact in items:
        if merged and lo <= merged[-1][1] + 1:
            prev_lo, prev_hi, prev_exact = merged[-1]
            if hi > prev_hi or exact != prev_exact:
                merged[-1] = (prev_lo, max(prev_hi, hi), prev_exact and exact)
        else:
            merged.append((lo, hi, exact))
    return merged


def restrict_to_budget(
    intervals: list[tuple[int, int, bool]], budget: int
) -> list[tuple[int, int, bool]]:
    """Shrink an interval list to at most ``budget`` entries.

    Repeatedly fuses the adjacent pair with the smallest id gap — the
    merge that over-approximates the least — marking the result
    approximate.  O(n²) in the worst case but n is only ever slightly
    above ``budget`` because callers merge then immediately restrict.
    """
    intervals = list(intervals)
    while len(intervals) > budget:
        best = min(
            range(len(intervals) - 1),
            key=lambda i: intervals[i + 1][0] - intervals[i][1],
        )
        lo = intervals[best][0]
        hi = intervals[best + 1][1]
        intervals[best : best + 2] = [(lo, hi, False)]
    return intervals


class FerrariIndex(ReachabilityIndex):
    """FERRARI with a per-vertex interval budget plus the §3.4 filters.

    Parameters
    ----------
    graph:
        The input DAG.
    max_intervals:
        The budget ``k`` (FERRARI's ``d``); the original paper evaluates
        k ∈ {2..5}-ish budgets — the cited complexity is O(|E|·k²)
        construction, O(log k) to O(|V|+|E|) query.
    use_level_filter, use_positive_cut:
        The shared filters, both on in the paper's configuration.
    """

    method_name = "ferrari"

    def __init__(
        self,
        graph: DiGraph,
        max_intervals: int = 3,
        use_level_filter: bool = True,
        use_positive_cut: bool = True,
    ) -> None:
        super().__init__(graph)
        if max_intervals < 1:
            raise ValueError(f"max_intervals must be >= 1, got {max_intervals}")
        self.max_intervals = max_intervals
        self._use_level_filter = use_level_filter
        self._use_positive_cut = use_positive_cut
        self.ids: array | None = None  # post-order id of each vertex
        self.interval_sets: list[IntervalSet] = []
        self.levels: array | None = None
        self.tree_intervals: IntervalLabels | None = None
        self._visited = array("l", [0] * graph.num_vertices)
        self._stamp = 0

    # ------------------------------------------------------------------
    def _build(self) -> None:
        graph = self.graph
        n = graph.num_vertices
        ids = dfs_post_order_ranks(graph)
        self.ids = ids
        order = kahn_order(graph)
        indptr, indices = graph.out_indptr, graph.out_indices

        budget = self.max_intervals
        sets: list[IntervalSet | None] = [None] * n
        for u in reversed(order):
            own = (ids[u], ids[u], True)
            child_lists = [
                sets[indices[k]].intervals()
                for k in range(indptr[u], indptr[u + 1])
            ]
            merged = merge_interval_lists(child_lists + [[own]])
            if len(merged) > budget:
                merged = restrict_to_budget(merged, budget)
            los = array("l", [lo for lo, _, _ in merged])
            his = array("l", [hi for _, hi, _ in merged])
            exact = bytearray(1 if ex else 0 for _, _, ex in merged)
            sets[u] = IntervalSet(los, his, exact)
        self.interval_sets = sets

        if self._use_level_filter:
            self.levels = compute_levels(graph)
        if self._use_positive_cut:
            forest = extract_spanning_forest(graph)
            self.tree_intervals = minpost_intervals_tree(forest)

    def index_size_bytes(self) -> int:
        total = sum(s.memory_bytes() for s in self.interval_sets)
        if self.ids is not None:
            total += self.ids.itemsize * len(self.ids)
        if self.levels is not None:
            total += self.levels.itemsize * len(self.levels)
        if self.tree_intervals is not None:
            total += self.tree_intervals.memory_bytes()
        return total

    # ------------------------------------------------------------------
    def _make_cut_table(self) -> FerrariCutTable:
        return FerrariCutTable(self)

    def _search_pair(self, u: int, v: int) -> bool:
        return self._search(u, v, self.ids[v])

    def _search(self, u: int, v: int, target_id: int) -> bool:
        """DFS pruned by interval probes and the topological-rank bound."""
        indptr = self.graph.out_indptr
        indices = self.graph.out_indices
        ids = self.ids
        interval_sets = self.interval_sets
        levels = self.levels
        level_v = levels[v] if levels is not None else 0
        stats = self.stats
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
                # Topological-rank bound: anything that still reaches v
                # must finish after v in post-order.
                if ids[child] < target_id:
                    stats.pruned += 1
                    continue
                coverage = interval_sets[child].probe(target_id)
                if coverage == 0:
                    stats.pruned += 1
                    continue
                if coverage == 2:
                    return True
                if levels is not None and levels[child] >= level_v:
                    stats.pruned += 1
                    continue
                stack.append(child)
        return False


register_index(FerrariIndex)
