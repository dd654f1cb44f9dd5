"""Dual-Labeling — tree intervals plus a transitive link closure.

Wang, He, Yang, Yu & Yu (ICDE 2006): for *sparse* DAGs, almost all of
the reachability lives in a spanning tree, and only the ``t`` non-tree
edges ("links") carry extra information.  Dual-Labeling answers queries
in O(1)-ish time with an index of size O(n + t²):

* **Tree labels.**  A spanning forest with min-post intervals answers
  "does ``u`` tree-reach ``v``" in O(1) (our positive-cut machinery).
* **Link closure (TLC).**  Link ``l₁ = (a₁, b₁)`` *precedes* link
  ``l₂ = (a₂, b₂)`` when ``b₁`` tree-reaches ``a₂``; the transitive
  closure of this ``t``-vertex relation is stored as one ``t``-bit row
  per link (``closed_row(l)`` includes ``l`` itself).
* **Dual vertex labels.**  Two ``t``-bit sets per vertex:
  ``RL(u) = ⋃ {closed_row(l) : tail(l) ∈ tree-subtree(u)}`` — every link
  whose traversal can end a path starting with a tree walk from ``u`` —
  computed bottom-up over the forest; and
  ``IL(v) = {l : head(l) tree-reaches v}``, computed top-down.

A query is then two O(1) steps::

    r(u, v)  ⇔  tree(u, v)  ∨  RL(u) ∩ IL(v) ≠ ∅

(u tree-walks to some link chain whose last link's head tree-walks to
``v``).  The intersection is one big-int AND, O(t/64) machine words.

The quadratic-in-``t`` closure is the method's documented scaling wall —
on dense graphs ``t ≈ |E|`` and the index explodes, which is why the
original paper targets sparse graphs; ``link_budget`` reproduces that
failure mode deterministically.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.baselines.base import ReachabilityIndex, register_index
from repro.exceptions import IndexBuildError
from repro.graph.digraph import DiGraph
from repro.graph.spanning import (
    extract_spanning_forest,
    minpost_intervals_tree,
)
from repro.graph.toposort import kahn_order
from repro.perf.cut_table import CutTable, pack_bigints, view_i64

__all__ = ["DualLabelingIndex", "DualLabelingCutTable"]


class DualLabelingCutTable(CutTable):
    """Dual-Labeling, batched: tree containment OR an RL ∩ IL hit.

    The per-vertex ``t``-bit link sets pack into two ``(n, ceil(t/8))``
    byte matrices; the intersection test for a whole batch is one
    vectorized AND-and-any.  Queries are always decided — no searches.
    """

    def __init__(self, index: "DualLabelingIndex") -> None:
        tree = index._tree
        self.start = view_i64(tree.start)
        self.post = view_i64(tree.post)
        self.rl = pack_bigints(index._rl, index.num_links)
        self.il = pack_bigints(index._il, index.num_links)
        self.tree = tree
        self.rl_ints, self.il_ints = index._rl, index._il

    def classify(self, sources, targets):
        positive = (self.start[sources] <= self.start[targets]) & (
            self.post[targets] <= self.post[sources]
        )
        if self.rl.shape[1]:
            positive |= np.any(
                self.rl[sources] & self.il[targets], axis=1
            )
        return positive, ~positive

    def classify_one(self, u, v):
        if self.tree.contains(u, v) or self.rl_ints[u] & self.il_ints[v]:
            return "positive-cut"
        return "negative-cut"


class DualLabelingIndex(ReachabilityIndex):
    """Dual-Labeling: spanning-tree intervals + t²-bit link closure.

    Parameters
    ----------
    graph:
        The input DAG.
    link_budget:
        Optional cap on the number of non-tree edges ``t``; exceeding it
        aborts construction with reason ``"link-budget"`` (the method is
        designed for sparse graphs where ``t`` is small).
    """

    method_name = "dual-labeling"

    def __init__(
        self,
        graph: DiGraph,
        link_budget: int | None = None,
    ) -> None:
        super().__init__(graph)
        self._link_budget = link_budget
        self.num_links = 0
        self._tree = None  # IntervalLabels over the spanning forest
        self._rl: list[int] = []  # per-vertex t-bit reachable-link sets
        self._il: list[int] = []  # per-vertex t-bit incoming-link sets

    # ------------------------------------------------------------------
    def _build(self) -> None:
        graph = self.graph
        n = graph.num_vertices
        forest = extract_spanning_forest(graph)
        tree = minpost_intervals_tree(forest)
        self._tree = tree

        # Non-tree edges are the links.
        links: list[tuple[int, int]] = [
            (u, v) for u, v in graph.edges() if forest.parent[v] != u
        ]
        # The same (u, v) may appear once as the tree edge and again as a
        # duplicate; treat duplicates of tree edges as redundant links
        # only if they add reachability — they never do, so drop them.
        links = [(u, v) for u, v in links if not tree.contains(u, v)]
        t = len(links)
        self.num_links = t
        if self._link_budget is not None and t > self._link_budget:
            raise IndexBuildError(
                f"dual-labeling needs {t}^2 closure bits but the link "
                f"budget is {self._link_budget}",
                reason="link-budget",
            )

        # Link-graph closure: closed_row[i] has bit j iff link i's chain
        # can continue into link j (including i itself).  Process links
        # in reverse topological order of their *tails* so every row we
        # merge is already closed: l_i -> l_j requires head(i) to
        # tree-reach tail(j), and tree-reach implies topological order,
        # so ordering rows by tail position works.
        order_rank = array("l", [0] * n)
        for rank, vertex in enumerate(kahn_order(graph)):
            order_rank[vertex] = rank
        link_order = sorted(
            range(t), key=lambda i: order_rank[links[i][0]], reverse=True
        )
        closed = [0] * t
        for i in link_order:
            row = 1 << i
            head_i = links[i][1]
            for j in range(t):
                if j != i and tree.contains(head_i, links[j][0]):
                    row |= closed[j]
            closed[i] = row

        # RL: bottom-up over the forest (children before parents — the
        # forest's min-post order gives exactly that).
        links_by_tail: list[list[int]] = [[] for _ in range(n)]
        links_by_head: list[list[int]] = [[] for _ in range(n)]
        for i, (tail, head) in enumerate(links):
            links_by_tail[tail].append(i)
            links_by_head[head].append(i)

        rl = [0] * n
        by_post = sorted(range(n), key=lambda v: tree.post[v])
        for v in by_post:
            bits = 0
            for i in links_by_tail[v]:
                bits |= closed[i]
            for child in forest.children[v]:
                bits |= rl[child]
            rl[v] = bits

        # IL: top-down (parents before children — reverse post order).
        il = [0] * n
        for v in reversed(by_post):
            parent = forest.parent[v]
            bits = il[parent] if parent != -1 else 0
            for i in links_by_head[v]:
                bits |= 1 << i
            il[v] = bits

        self._rl = rl
        self._il = il

    def index_size_bytes(self) -> int:
        if self._tree is None:
            return 0
        label_bits = sum(bits.bit_length() for bits in self._rl)
        label_bits += sum(bits.bit_length() for bits in self._il)
        return self._tree.memory_bytes() + (label_bits + 7) // 8

    def _make_cut_table(self) -> DualLabelingCutTable:
        return DualLabelingCutTable(self)


register_index(DualLabelingIndex)
