"""Nuutila's INTERVAL — compressed transitive closure as interval lists.

The method (Nuutila 1995; engineered with PWAH compression by van Schaik &
de Moor, SIGMOD 2011) materialises every vertex's full successor set, but
numbers vertices so contiguous id segments compress into intervals: the set
``{1,2,3,4,6,7,8,9,11,12}`` becomes ``[1,4], [6,9], [11,12]`` — the paper's
own example.  Queries binary-search the target id in the source's interval
list, O(log I); the index is *self-sufficient* (the graph can be dropped).

The vertex numbering is a reverse DFS post-order, which makes each
vertex's own subtree a single contiguous run — the best case for interval
compression.  Sets are built in one reverse-topological sweep, unioning
successor interval lists.

Cost: the closure is still materialised, so construction is
O(|V| · |E|)-ish in time and can be **quadratic in space** — exactly why
the paper reports INTERVAL failing on the large synthetic graphs.  A
``memory_budget_bytes`` cap reproduces that failure mode deterministically:
construction raises :class:`IndexBuildError` (reason ``"memory-budget"``)
once the interval storage outgrows the budget.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

import numpy as np

from repro.baselines import pwah
from repro.baselines.base import ReachabilityIndex, register_index
from repro.exceptions import IndexBuildError
from repro.graph.digraph import DiGraph
from repro.graph.toposort import dfs_post_order_ranks, kahn_order
from repro.perf.cut_table import (
    CutTable,
    segment_keys,
    segmented_arrays,
    view_i64,
)

__all__ = ["NuutilaIntervalIndex", "IntervalCutTable", "union_intervals"]


class IntervalCutTable(CutTable):
    """INTERVAL probes, batched: one segmented bisect decides every pair.

    The batch pass is built from the interval arrays regardless of
    ``query_mode`` — the PWAH stream encodes the very same sets, so
    answers (and the positive/negative counter split) are identical in
    both modes; a scalar pair probes the stream in ``"pwah"`` mode.  The
    closure is materialized, so no pair ever needs a search.
    """

    def __init__(self, index: "NuutilaIntervalIndex") -> None:
        n = index.graph.num_vertices
        self.n = n
        self.ids = view_i64(index.ids)
        los_flat, indptr = segmented_arrays(index.lists_lo)
        his_flat, _ = segmented_arrays(index.lists_hi)
        self.keys = segment_keys(los_flat, indptr, n)
        self.indptr = indptr
        self.his = his_flat
        self.id_array = index.ids
        self.lists_lo = index.lists_lo
        self.lists_hi = index.lists_hi
        # A scalar pair in "pwah" mode probes the compressed stream.
        self.pwah_words = (
            index.pwah_words if index._query_mode == "pwah" else None
        )

    def classify(self, sources, targets):
        target_ids = self.ids[targets]
        probe = np.searchsorted(
            self.keys, sources * np.int64(self.n) + target_ids, side="right"
        ) - 1
        valid = probe >= self.indptr[sources]
        positive = valid & (
            self.his[np.maximum(probe, 0)] >= target_ids
        )
        return positive, ~positive

    def classify_one(self, u, v):
        target = self.id_array[v]
        if self.pwah_words is not None:
            reachable = pwah.contains(self.pwah_words[u], target)
        else:
            los = self.lists_lo[u]
            pos = bisect_right(los, target) - 1
            reachable = pos >= 0 and self.lists_hi[u][pos] >= target
        return "positive-cut" if reachable else "negative-cut"


def union_intervals(
    lists: list[list[tuple[int, int]]],
) -> list[tuple[int, int]]:
    """Union of sorted disjoint interval lists, coalescing adjacency."""
    items = sorted(interval for lst in lists for interval in lst)
    merged: list[tuple[int, int]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class NuutilaIntervalIndex(ReachabilityIndex):
    """INTERVAL: per-vertex interval lists over a closure-friendly numbering.

    Parameters
    ----------
    graph:
        The input DAG.
    memory_budget_bytes:
        Optional cap on interval storage; exceeding it aborts construction
        with reason ``"memory-budget"`` (the paper's large-graph failures).
    compress_with_pwah:
        Additionally encode each list with the PWAH scheme.  The PWAH
        stream is what :meth:`index_size_bytes` reports, matching the
        SIGMOD'11 system where PWAH is the storage format.
    query_mode:
        ``"intervals"`` (default) answers by O(log I) binary search on
        the interval ends; ``"pwah"`` probes the compressed stream
        directly (O(#words) scan with O(1) fill skips) — the trade
        the SIGMOD'11 system makes to keep only the compressed form
        resident.  Requires ``compress_with_pwah=True``.
    """

    method_name = "interval"

    def __init__(
        self,
        graph: DiGraph,
        memory_budget_bytes: int | None = None,
        compress_with_pwah: bool = True,
        query_mode: str = "intervals",
    ) -> None:
        super().__init__(graph)
        if query_mode not in ("intervals", "pwah"):
            raise ValueError(
                f"query_mode must be 'intervals' or 'pwah', got {query_mode!r}"
            )
        if query_mode == "pwah" and not compress_with_pwah:
            raise ValueError("query_mode='pwah' needs compress_with_pwah=True")
        self._memory_budget = memory_budget_bytes
        self._compress_with_pwah = compress_with_pwah
        self._query_mode = query_mode
        self.ids: array | None = None
        self.lists_lo: list[array] = []
        self.lists_hi: list[array] = []
        self.pwah_words: list[list[int]] | None = None

    # ------------------------------------------------------------------
    def _build(self) -> None:
        graph = self.graph
        n = graph.num_vertices
        post = dfs_post_order_ranks(graph)
        self.ids = post
        order = kahn_order(graph)
        indptr, indices = graph.out_indptr, graph.out_indices

        budget = self._memory_budget
        interval_storage = 0
        lists: list[list[tuple[int, int]] | None] = [None] * n
        for u in reversed(order):
            child_lists = [
                lists[indices[k]] for k in range(indptr[u], indptr[u + 1])
            ]
            merged = union_intervals(child_lists + [[(post[u], post[u])]])
            lists[u] = merged
            interval_storage += 16 * len(merged)  # two 8-byte ends each
            if budget is not None and interval_storage > budget:
                raise IndexBuildError(
                    f"INTERVAL storage exceeded budget: {interval_storage} "
                    f"> {budget} bytes at vertex {u}",
                    reason="memory-budget",
                )
        self.lists_lo = [array("l", [lo for lo, _ in lst]) for lst in lists]
        self.lists_hi = [array("l", [hi for _, hi in lst]) for lst in lists]
        if self._compress_with_pwah:
            self.pwah_words = [
                pwah.compress_intervals(lst, universe=n) for lst in lists
            ]

    def index_size_bytes(self) -> int:
        if self.ids is None:
            return 0
        if self.pwah_words is not None:
            payload = sum(
                pwah.compressed_size_bytes(words) for words in self.pwah_words
            )
        else:
            payload = sum(
                los.itemsize * len(los) * 2 for los in self.lists_lo
            )
        return payload + self.ids.itemsize * len(self.ids)

    def num_intervals(self) -> int:
        """Total interval count ``I`` across all vertices."""
        return sum(len(los) for los in self.lists_lo)

    def _make_cut_table(self) -> IntervalCutTable:
        return IntervalCutTable(self)


register_index(NuutilaIntervalIndex)
