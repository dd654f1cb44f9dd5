"""Chain-cover reachability index (Jagadish-style TC compression).

The paper's related-work taxonomy (§2) has a *Transitive Closure
Compression* class alongside INTERVAL: instead of interval lists, the
classic compression (Jagadish, TODS 1990 — the class's founding method)
decomposes the DAG into **chains** (vertex-disjoint paths) and stores,
per vertex and per chain, the *highest* chain position it can reach:

* a chain is totally ordered, so reaching position ``p`` of a chain
  means reaching every position ≥ ``p`` on it;
* the whole transitive closure compresses to a ``|V| × k`` matrix for
  ``k`` chains, and a query is one O(1) matrix probe:
  ``r(u, v) ⇔ reach[u][chain(v)] ≤ position(v)``.

Chain decomposition is by greedy path peeling over a topological order
(the optimal minimum chain cover needs a min-flow/bipartite matching;
greedy is the standard engineering choice and only affects ``k``, never
correctness).  Construction fills the matrix in one reverse-topological
sweep, O(|V|·k + |E|·k).

Like INTERVAL, the index is self-sufficient but can be large — ``k``
grows with graph width, so wide graphs reproduce the class's known
scaling wall; the optional ``memory_budget_bytes`` makes that failure
deterministic for the harness.
"""

from __future__ import annotations

from array import array

from repro.baselines.base import ReachabilityIndex, register_index
from repro.exceptions import IndexBuildError
from repro.graph.digraph import DiGraph
from repro.graph.toposort import kahn_order
from repro.perf.cut_table import CutTable, view_i64

__all__ = ["ChainCoverIndex", "ChainCoverCutTable", "greedy_chain_decomposition"]


class ChainCoverCutTable(CutTable):
    """Batched chain-matrix probes: ``reach[u][chain(v)] ≤ position(v)``.

    The flat ``|V| × k`` matrix and the two per-vertex chain arrays are
    viewed once; a batch is a single fancy-indexed comparison.  The
    matrix is the compressed closure, so every pair is decided.
    """

    def __init__(self, index: "ChainCoverIndex") -> None:
        self.reach = view_i64(index._reach)
        self.chain_of = view_i64(index.chain_of)
        self.position_of = view_i64(index.position_of)
        self.num_chains = index.num_chains
        self.arrays = (index._reach, index.chain_of, index.position_of)

    def classify(self, sources, targets):
        positive = (
            self.reach[sources * self.num_chains + self.chain_of[targets]]
            <= self.position_of[targets]
        )
        return positive, ~positive

    def classify_one(self, u, v):
        reach, chain_of, position_of = self.arrays
        if reach[u * self.num_chains + chain_of[v]] <= position_of[v]:
            return "positive-cut"
        return "negative-cut"

_UNREACHABLE = 2**31 - 1  # sentinel: no position on this chain reachable


def greedy_chain_decomposition(graph: DiGraph) -> tuple[array, array, int]:
    """Peel vertex-disjoint chains off a DAG greedily.

    Walks the topological order; every still-unassigned vertex starts a
    new chain, which is extended along unassigned successors for as long
    as possible.  Returns ``(chain_of, position_of, num_chains)``.
    """
    order = kahn_order(graph)
    n = graph.num_vertices
    chain_of = array("l", [-1] * n)
    position_of = array("l", [0] * n)
    indptr, indices = graph.out_indptr, graph.out_indices
    num_chains = 0
    for start in order:
        if chain_of[start] != -1:
            continue
        chain = num_chains
        num_chains += 1
        vertex = start
        position = 0
        while True:
            chain_of[vertex] = chain
            position_of[vertex] = position
            position += 1
            extension = -1
            for k in range(indptr[vertex], indptr[vertex + 1]):
                child = indices[k]
                if chain_of[child] == -1:
                    extension = child
                    break
            if extension == -1:
                break
            vertex = extension
    return chain_of, position_of, num_chains


class ChainCoverIndex(ReachabilityIndex):
    """Compressed transitive closure over a greedy chain cover.

    Parameters
    ----------
    graph:
        The input DAG.
    memory_budget_bytes:
        Optional cap on the ``|V| × k`` matrix; exceeding it aborts
        construction with reason ``"memory-budget"``.
    """

    method_name = "chain-cover"

    def __init__(
        self,
        graph: DiGraph,
        memory_budget_bytes: int | None = None,
    ) -> None:
        super().__init__(graph)
        self._memory_budget = memory_budget_bytes
        self.chain_of: array | None = None
        self.position_of: array | None = None
        self.num_chains = 0
        # reach is a flat |V| x k matrix: reach[u*k + c] = min position
        # of chain c reachable from u (or the sentinel).
        self._reach: array | None = None

    # ------------------------------------------------------------------
    def _build(self) -> None:
        graph = self.graph
        n = graph.num_vertices
        chain_of, position_of, k = greedy_chain_decomposition(graph)
        self.chain_of = chain_of
        self.position_of = position_of
        self.num_chains = k

        matrix_bytes = 4 * n * k
        if self._memory_budget is not None and matrix_bytes > self._memory_budget:
            raise IndexBuildError(
                f"chain-cover matrix needs {matrix_bytes} bytes "
                f"({n} vertices x {k} chains), budget is "
                f"{self._memory_budget}",
                reason="memory-budget",
            )

        reach = array("i", [_UNREACHABLE]) * (n * k)
        indptr, indices = graph.out_indptr, graph.out_indices
        order = kahn_order(graph)
        for u in reversed(order):
            base = u * k
            # Own position on the own chain.
            own = base + chain_of[u]
            if position_of[u] < reach[own]:
                reach[own] = position_of[u]
            # Merge successors' rows (component-wise minimum).
            for e in range(indptr[u], indptr[u + 1]):
                child_base = indices[e] * k
                for c in range(k):
                    value = reach[child_base + c]
                    if value < reach[base + c]:
                        reach[base + c] = value
        self._reach = reach

    def index_size_bytes(self) -> int:
        if self._reach is None:
            return 0
        return (
            self._reach.itemsize * len(self._reach)
            + self.chain_of.itemsize * len(self.chain_of)
            + self.position_of.itemsize * len(self.position_of)
        )

    def _make_cut_table(self) -> ChainCoverCutTable:
        return ChainCoverCutTable(self)


register_index(ChainCoverIndex)
