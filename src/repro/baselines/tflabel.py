"""TF-Label — hop labels ordered by a topological-folding hierarchy.

Cheng, Huang, Wu & Fu (SIGMOD 2013).  TF-Label is a *hop labeling* method:
every vertex ``v`` carries two sorted sets of hub ranks, ``L_out(v)``
(hubs ``v`` reaches) and ``L_in(v)`` (hubs reaching ``v``), such that

    r(u, v)  ⇔  L_out(u) ∩ L_in(v) ≠ ∅,

answered by one sorted merge-join — a *self-sufficient* index like
INTERVAL: the graph can be discarded after construction.

The method's namesake contribution is the **topological folding (TF)**
hierarchy that decides which vertices become hubs first: fold the DAG by
repeatedly collapsing alternate topological levels; a vertex at level
``l`` survives one more fold each time its level index halves evenly, so
its fold round is the 2-adic valuation ``ν₂(l)`` (roots survive every
fold).  Vertices surviving more folds sit "higher" in the hierarchy and
make the most productive hubs.

Label construction then follows the standard pruned 2-hop scheme: hubs are
processed in hierarchy order; each hub BFSes forward (adding itself to the
``L_in`` of reached vertices) and backward (to ``L_out``), *pruning* any
vertex whose pair with the hub is already answerable from existing labels.
Pruning keeps labels minimal, which is why the paper's Figures 15–16 show
TF-Label with the smallest index — paid for with the largest construction
times in Table 3, a trade-off this implementation reproduces.

Substitution note (see DESIGN.md): the original system folds the graph
*structurally*, inserting shortcut edges; we compute the same hierarchy
ranks directly from topological levels (the valuation formula above) and
let the pruned-labeling pass do the covering.  This preserves the index
class, the query algorithm, the label-size behaviour and the
construction-cost profile, which are what the evaluation measures.
"""

from __future__ import annotations

from array import array
from collections import deque

import numpy as np

from repro.baselines.base import ReachabilityIndex, register_index
from repro.exceptions import IndexBuildError
from repro.graph.digraph import DiGraph
from repro.graph.levels import compute_levels
from repro.perf.cut_table import CutTable, segment_keys, segmented_arrays

__all__ = ["TFLabelIndex", "TFLabelCutTable", "fold_rounds"]


class TFLabelCutTable(CutTable):
    """Batched 2-hop intersection tests over CSR-flattened labels.

    ``L_out`` flattens into one CSR structure; ``L_in`` into globally
    sorted keys ``vertex * n + rank``.  A batch expands every source's
    out-labels (one gather), probes them all against the targets'
    in-label keys with a single ``searchsorted``, and ORs the hits per
    pair with ``bincount``.  Hop labels decide every pair — no search.
    """

    def __init__(self, index: "TFLabelIndex") -> None:
        self.universe = max(1, index.graph.num_vertices)
        self.out_flat, self.out_indptr = segmented_arrays(index.label_out)
        in_flat, in_indptr = segmented_arrays(index.label_in)
        self.in_keys = segment_keys(in_flat, in_indptr, self.universe)
        self.label_out = index.label_out
        self.label_in = index.label_in

    def classify(self, sources, targets):
        num = len(sources)
        lens = self.out_indptr[sources + 1] - self.out_indptr[sources]
        total = int(lens.sum())
        if total == 0 or self.in_keys.size == 0:
            positive = np.zeros(num, dtype=bool)
            return positive, ~positive
        owners = np.repeat(np.arange(num, dtype=np.int64), lens)
        ends = np.cumsum(lens)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            ends - lens, lens
        )
        ranks = self.out_flat[self.out_indptr[sources][owners] + offsets]
        keys = targets[owners] * np.int64(self.universe) + ranks
        slots = np.searchsorted(self.in_keys, keys, side="left")
        member = slots < self.in_keys.size
        member &= self.in_keys[np.minimum(slots, self.in_keys.size - 1)] == keys
        positive = np.bincount(owners[member], minlength=num) > 0
        return positive, ~positive

    def classify_one(self, u, v):
        if TFLabelIndex._labels_intersect(self.label_out[u], self.label_in[v]):
            return "positive-cut"
        return "negative-cut"


def fold_rounds(levels: array) -> list[int]:
    """Fold-survival round of each vertex: ``ν₂(level)``, roots highest.

    One fold keeps every second topological level; a vertex at level ``l``
    survives while ``l`` keeps halving to an integer, i.e. ``ν₂(l)``
    times.  Level-0 vertices (roots) survive every fold; we cap their
    round one above the maximum achievable valuation.
    """
    if not levels:
        return []
    max_level = max(levels)
    cap = max_level.bit_length() + 1
    rounds = []
    for level in levels:
        if level == 0:
            rounds.append(cap)
        else:
            rounds.append((level & -level).bit_length() - 1)
    return rounds


class TFLabelIndex(ReachabilityIndex):
    """TF-Label: pruned 2-hop labels in topological-folding order.

    Parameters
    ----------
    graph:
        The input DAG.
    label_budget_entries:
        Optional cap on the total number of label entries; exceeding it
        aborts construction with reason ``"label-budget"``, emulating the
        resource failures the paper observed on some large synthetic
        datasets.
    """

    method_name = "tf-label"

    def __init__(
        self,
        graph: DiGraph,
        label_budget_entries: int | None = None,
    ) -> None:
        super().__init__(graph)
        self._label_budget = label_budget_entries
        # Labels are lists of hub *ranks*, ascending (hubs processed in
        # rank order append monotonically).
        self.label_out: list[array] = []
        self.label_in: list[array] = []

    # ------------------------------------------------------------------
    def _build(self) -> None:
        graph = self.graph
        n = graph.num_vertices
        levels = compute_levels(graph)
        rounds = fold_rounds(levels)
        # Higher fold round first; tie-break on degree product (denser
        # hubs cover more pairs), then id for determinism.
        hub_order = sorted(
            range(n),
            key=lambda v: (
                -rounds[v],
                -(graph.out_degree(v) + 1) * (graph.in_degree(v) + 1),
                v,
            ),
        )
        label_out: list[array] = [array("l") for _ in range(n)]
        label_in: list[array] = [array("l") for _ in range(n)]
        self.label_out = label_out
        self.label_in = label_in
        total_entries = 0

        out_indptr, out_indices = graph.out_indptr, graph.out_indices
        in_indptr, in_indices = graph.in_indptr, graph.in_indices
        visited = array("l", [0] * n)
        stamp = 0

        for rank, hub in enumerate(hub_order):
            # Forward pass: hub -> descendants, filling their L_in.
            stamp += 1
            visited[hub] = stamp
            queue: deque[int] = deque([hub])
            while queue:
                w = queue.popleft()
                if w != hub and self._labels_intersect(
                    label_out[hub], label_in[w]
                ):
                    continue  # already covered: prune this branch
                if w != hub:
                    label_in[w].append(rank)
                    total_entries += 1
                for k in range(out_indptr[w], out_indptr[w + 1]):
                    child = out_indices[k]
                    if visited[child] != stamp:
                        visited[child] = stamp
                        queue.append(child)
            # Backward pass: ancestors -> hub, filling their L_out.
            stamp += 1
            visited[hub] = stamp
            queue = deque([hub])
            while queue:
                w = queue.popleft()
                if w != hub and self._labels_intersect(
                    label_out[w], label_in[hub]
                ):
                    continue
                if w != hub:
                    label_out[w].append(rank)
                    total_entries += 1
                for k in range(in_indptr[w], in_indptr[w + 1]):
                    parent = in_indices[k]
                    if visited[parent] != stamp:
                        visited[parent] = stamp
                        queue.append(parent)
            # The hub belongs to both of its own label sets, so pairs
            # (u, hub) and (hub, v) meet at `rank`.
            label_out[hub].append(rank)
            label_in[hub].append(rank)
            total_entries += 2
            if (
                self._label_budget is not None
                and total_entries > self._label_budget
            ):
                raise IndexBuildError(
                    f"TF-Label exceeded {self._label_budget} label entries",
                    reason="label-budget",
                )

    @staticmethod
    def _labels_intersect(out_labels: array, in_labels: array) -> bool:
        """Sorted merge-join: whether the two hub lists share a rank."""
        i = j = 0
        len_out, len_in = len(out_labels), len(in_labels)
        while i < len_out and j < len_in:
            a, b = out_labels[i], in_labels[j]
            if a == b:
                return True
            if a < b:
                i += 1
            else:
                j += 1
        return False

    def index_size_bytes(self) -> int:
        return sum(
            labels.itemsize * len(labels)
            for label_set in (self.label_out, self.label_in)
            for labels in label_set
        )

    def average_label_size(self) -> float:
        """Mean entries per vertex across both label directions."""
        n = self.graph.num_vertices
        if n == 0:
            return 0.0
        total = sum(len(lbl) for lbl in self.label_out)
        total += sum(len(lbl) for lbl in self.label_in)
        return total / n

    def _make_cut_table(self) -> TFLabelCutTable:
        return TFLabelCutTable(self)


register_index(TFLabelIndex)
