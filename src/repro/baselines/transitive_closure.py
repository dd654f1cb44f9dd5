"""Fully materialised transitive closure — the left end of Figure 1.

O(1) queries, O(|V|²) bits of space: exactly the trade-off the paper calls
infeasible for very large graphs.  The benchmark harness includes it on
small graphs to exhibit that trade-off, and every test suite uses it as the
ground-truth oracle.
"""

from __future__ import annotations


from repro.baselines.base import ReachabilityIndex, register_index
from repro.exceptions import IndexBuildError
from repro.graph.transitive import transitive_closure_bitsets
from repro.perf.cut_table import CutTable, pack_bigints

__all__ = ["TransitiveClosureIndex", "ClosureCutTable"]


class ClosureCutTable(CutTable):
    """Batched closure bit tests over a packed byte matrix.

    The per-vertex Python-int bitsets pack into an ``(n, ceil(n/8))``
    ``uint8`` matrix, making a batch of queries one fancy-indexed shift;
    a scalar pair tests the bitset itself.  Decided pairs move no cut
    counters (the lookup *is* the answer), hence ``counts_cuts = False``.
    """

    counts_cuts = False

    def __init__(self, closure: list[int], num_vertices: int) -> None:
        self.matrix = pack_bigints(closure, num_vertices)
        self.closure = closure

    def classify(self, sources, targets):
        positive = (
            (self.matrix[sources, targets >> 3] >> (targets & 7)) & 1
        ).astype(bool)
        return positive, ~positive

    def classify_one(self, u, v):
        if (self.closure[u] >> v) & 1:
            return "positive-cut"
        return "negative-cut"


class TransitiveClosureIndex(ReachabilityIndex):
    """Per-vertex reachability bitsets; queries are one bit test.

    ``memory_budget_bytes`` emulates a machine memory cap: construction
    raises :class:`IndexBuildError` (reason ``"memory-budget"``) when the
    closure would exceed it — the harness uses this to reproduce, on small
    hardware, the paper's "INTERVAL failed on the largest graphs" rows.
    """

    method_name = "tc"

    def __init__(self, graph, memory_budget_bytes: int | None = None) -> None:
        super().__init__(graph)
        self._memory_budget = memory_budget_bytes
        self._closure: list[int] | None = None

    def _build(self) -> None:
        n = self.graph.num_vertices
        projected = n * n // 8  # one bit per ordered pair
        if self._memory_budget is not None and projected > self._memory_budget:
            raise IndexBuildError(
                f"transitive closure needs ~{projected} bytes, budget is "
                f"{self._memory_budget}",
                reason="memory-budget",
            )
        self._closure = transitive_closure_bitsets(self.graph)

    def index_size_bytes(self) -> int:
        if self._closure is None:
            return 0
        # sys.getsizeof of each int would count object headers; the paper
        # compares label payloads, so count the raw bit payload.
        return sum(max(1, bits.bit_length() + 7 >> 3) for bits in self._closure)

    def _make_cut_table(self) -> ClosureCutTable:
        return ClosureCutTable(self._closure, self.graph.num_vertices)


register_index(TransitiveClosureIndex)
