"""Un-indexed online searches — the right end of the Figure 1 spectrum.

These "indexes" build nothing: every query is a fresh O(|V| + |E|) graph
search.  They define only ``_search_pair`` and keep the base class's cut
table, which decides nothing.  They anchor the benchmark sweeps (any
real index must beat them on query time) and give the test suites an
obviously-correct oracle.
"""

from __future__ import annotations

from repro.baselines.base import ReachabilityIndex, register_index
from repro.graph.traversal import (
    bfs_reachable,
    bidirectional_reachable,
    dfs_reachable,
)

__all__ = ["DFSIndex", "BFSIndex", "BidirectionalBFSIndex"]


class DFSIndex(ReachabilityIndex):
    """Pure DFS per query; zero construction time, zero index size."""

    method_name = "dfs"

    def _build(self) -> None:
        pass  # nothing to construct

    def index_size_bytes(self) -> int:
        return 0

    def _search_pair(self, u: int, v: int) -> bool:
        return dfs_reachable(self.graph, u, v, guard=self._guard)


class BFSIndex(ReachabilityIndex):
    """Pure BFS per query."""

    method_name = "bfs"

    def _build(self) -> None:
        pass  # nothing to construct

    def index_size_bytes(self) -> int:
        return 0

    def _search_pair(self, u: int, v: int) -> bool:
        return bfs_reachable(self.graph, u, v, guard=self._guard)


class BidirectionalBFSIndex(ReachabilityIndex):
    """Bidirectional BFS per query — the strongest un-indexed baseline.

    The only un-indexed family with a native kernel path: the
    level-synchronous frontier expansion vectorizes well, so
    :mod:`repro.perf.kernels` provides numpy and C tiers (DFS/BFS
    stay pure Python — their single-vertex expansion order has no
    profitable native formulation that keeps answers bit-identical).
    """

    method_name = "bibfs"

    def _build(self) -> None:
        pass  # nothing to construct

    def index_size_bytes(self) -> int:
        return 0

    def _bind_kernel(self) -> None:
        from repro.perf import kernels

        backend = kernels.resolve_backend(
            self._kernel_choice, count_fallback=True
        )
        if backend == "python":
            self._kernel_backend = backend
            self._arm_kernel(None)
            return
        kernel = kernels.bibfs_kernel_for(self.graph, backend)
        self._kernel_backend = kernel.backend
        self._arm_kernel(kernel)

    def _search_pair(self, u: int, v: int) -> bool:
        kernel = self._kernel
        if kernel is not None:
            return kernel.run(u, v, self._guard)
        return bidirectional_reachable(self.graph, u, v, guard=self._guard)


register_index(DFSIndex)
register_index(BFSIndex)
register_index(BidirectionalBFSIndex)
