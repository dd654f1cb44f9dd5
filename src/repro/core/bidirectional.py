"""FELINE-I and FELINE-B — the reversed and bidirectional variants (§4.3.3).

Reversing every edge of a DAG changes the in/out-degree distributions, so
the index built on the reversed graph places vertices differently (the
paper's Figure 12 plots).  Two variants exploit this:

* **FELINE-I** builds the index on the reversed DAG ``G'`` and answers
  ``r(u, v)`` on ``G`` as ``r(v, u)`` on ``G'`` — same machinery, different
  coordinates, and for some datasets a better false-positive rate.
* **FELINE-B** builds *both* indexes and intersects their admissible
  regions: ``r(u, v)`` requires ``i(u) ≼ i(v)`` in the normal index *and*
  ``i'(v) ≼ i'(u)`` in the reversed one; during the DFS every expanded
  vertex ``w`` must satisfy both ``i(w) ≼ i(v)`` and ``i'(v) ≼ i'(w)``.
  Per the paper, the level and positive-cut filters are applied just once,
  on the normal index, which is why FELINE-B's index is less than twice
  FELINE's.
"""

from __future__ import annotations

from repro.baselines.base import RankSearchIndex, ReachabilityIndex, register_index
from repro.core.index import (
    FelineCoordinates,
    XSortedAdjacency,
    build_feline_index,
    build_feline_with_adjacency,
)
from repro.core.query import FelineIndex, feline_rows
from repro.graph.digraph import DiGraph
from repro.perf.cut_table import RankCuts, RankRow, filter_rows

__all__ = ["FelineIIndex", "FelineBIndex"]


class FelineIIndex(ReachabilityIndex):
    """FELINE-I: the FELINE index built on the edge-reversed DAG.

    Internally delegates to a :class:`FelineIndex` over ``graph.reversed()``
    and swaps the query arguments; the inner index's statistics are
    mirrored on this object's ``stats``.
    """

    method_name = "feline-i"

    def __init__(self, graph: DiGraph, **feline_params) -> None:
        super().__init__(graph)
        self._inner = FelineIndex(graph.reversed(), **feline_params)
        # Share one stats object so counters land in the usual place.
        self._inner.stats = self.stats

    def _set_guard(self, guard) -> None:
        # Budget guards must reach the delegate's _search loop.
        self._guard = guard
        self._inner._guard = guard

    def _build(self) -> None:
        self._inner.build()

    def index_size_bytes(self) -> int:
        return self._inner.index_size_bytes()

    @property
    def coordinates(self) -> FelineCoordinates | None:
        """The coordinates over the *reversed* graph (Figure 12 plots)."""
        return self._inner.coordinates

    def _make_cut_table(self) -> RankCuts:
        # FELINE's rows over the reversed graph with (s, t) flipped,
        # since r(u, v) on G  ⇔  r(v, u) on reversed(G).
        return RankCuts(
            row._replace(reverse=not row.reverse)
            for row in feline_rows(self._inner.coordinates)
        )

    def _search_pair(self, u: int, v: int) -> bool:
        return self._inner._search_pair(v, u)

    def _bind_kernel(self) -> None:
        # Every search runs inside the delegate, so the kernel binds
        # there; the outer index only mirrors the resolved backend name.
        inner = self._inner
        inner._kernel_choice = self._kernel_choice
        inner._bind_kernel()
        self._kernel_backend = inner._kernel_backend

    def _searcher(self):
        return self._inner, True

    def _search_pairs_batch(self, us, vs, max_steps: int = -1):
        return self._inner._search_pairs_batch(vs, us, max_steps)

    # -- shared-memory pages: the label structures live in the delegate
    # (whose reversed graph shares this graph's CSR buffers), while the
    # observer layer — attached to the outer index — is handled here.
    def _shared_arrays(self) -> dict:
        arrays = self._inner._shared_arrays()
        arrays.update(self._observer_shared_arrays())
        return arrays

    def _adopt_shared_arrays(self, pages) -> None:
        self._inner._shared_originals = {}
        self._inner._adopt_shared_arrays(pages)
        self._adopt_observer_arrays(pages)

    def _restore_shared_arrays(self) -> None:
        self._inner._restore_shared_arrays()
        self._inner._shared_originals = None
        self._restore_observer_arrays()

    def _rematerialize_after_swap(self) -> None:
        # The delegate rebuilds its table and kernel from the adopted
        # views first; the outer table reads the same views.
        self._inner._rematerialize_after_swap()
        self._materialize_cut_table()
        self._kernel_backend = self._inner._kernel_backend
        self._bind_classify()

    def _explain_details(self, u: int, v: int, explanation) -> None:
        # Provenance comes from the reversed-graph index with the
        # arguments swapped, exactly like the query itself.
        self._inner._explain_details(v, u, explanation)
        explanation.details["reversed_index"] = True


class FelineBIndex(RankSearchIndex):
    """FELINE-B: bidirectional pruning with normal + reversed coordinates.

    Construction cost is roughly doubled (two Algorithm 1 runs) but the
    DFS prunes with four bounds instead of two, which the paper shows
    yields the best query times overall (Table 4, Figure 14).
    """

    method_name = "feline-b"

    def __init__(
        self,
        graph: DiGraph,
        y_heuristic: str = "max-x",
        x_order: str = "dfs",
        use_level_filter: bool = True,
        use_positive_cut: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(graph)
        self._y_heuristic = y_heuristic
        self._x_order = x_order
        self._use_level_filter = use_level_filter
        self._use_positive_cut = use_positive_cut
        self._seed = seed
        self.forward: FelineCoordinates | None = None
        self.backward: FelineCoordinates | None = None
        # Children sorted by the forward X rank, as in FelineIndex.
        self.adjacency: XSortedAdjacency | None = None

    def _build(self) -> None:
        # Filters live on the normal index only (paper §4.3.5): the
        # reversed index contributes coordinates alone.
        self.forward, self.adjacency = build_feline_with_adjacency(
            self.graph,
            y_heuristic=self._y_heuristic,
            x_order=self._x_order,
            with_level_filter=self._use_level_filter,
            with_positive_cut=self._use_positive_cut,
            seed=self._seed,
        )
        self.backward = build_feline_index(
            self.graph.reversed(),
            y_heuristic=self._y_heuristic,
            x_order=self._x_order,
            with_level_filter=False,
            with_positive_cut=False,
            seed=self._seed,
        )

    def index_size_bytes(self) -> int:
        total = 0
        if self.forward is not None:
            total += self.forward.memory_bytes()
        if self.backward is not None:
            total += self.backward.memory_bytes()
        return total

    def _make_cut_table(self) -> RankCuts:
        # Forward dominance (X, the key row the adjacency is sorted by,
        # first), reversed dominance i'(v) ≼ i'(u), then the forward
        # index's filters.
        fwd, bwd = self.forward.views, self.backward.views
        return RankCuts([
            RankRow("negative-cut", fwd.x),
            RankRow("negative-cut", fwd.y),
            RankRow("negative-cut-reversed", bwd.x, reverse=True),
            RankRow("negative-cut-reversed", bwd.y, reverse=True),
            *filter_rows(fwd.levels, fwd),
        ], key=0)

    def _shared_arrays(self) -> dict:
        arrays = super()._shared_arrays()
        arrays.update(self.forward.shared_arrays("fwd"))
        arrays.update(self.backward.shared_arrays("bwd"))
        arrays.update(self.adjacency.shared_arrays("fwd"))
        return arrays

    def _adopt_shared_arrays(self, pages) -> None:
        super()._adopt_shared_arrays(pages)
        originals = self._shared_originals
        originals["fwd"] = self.forward.adopt_views(pages, "fwd")
        originals["bwd"] = self.backward.adopt_views(pages, "bwd")
        originals["adjacency"] = self.adjacency
        self.adjacency = self.adjacency.adopt(pages, "fwd")

    def _restore_shared_arrays(self) -> None:
        super()._restore_shared_arrays()
        originals = self._shared_originals or {}
        if "fwd" in originals:
            self.forward.restore_views(originals["fwd"])
            self.backward.restore_views(originals["bwd"])
            self.adjacency = originals["adjacency"]

    def _explain_details(self, u: int, v: int, explanation) -> None:
        """Both coordinate sets, and which of the three negative cuts
        failed."""
        fwd, bwd = self.forward, self.backward
        details = explanation.details
        details["i(u)"] = (fwd.x[u], fwd.y[u])
        details["i(v)"] = (fwd.x[v], fwd.y[v])
        details["i'(u)"] = (bwd.x[u], bwd.y[u])
        details["i'(v)"] = (bwd.x[v], bwd.y[v])
        levels = fwd.levels
        if levels is not None:
            details["level(u)"] = levels[u]
            details["level(v)"] = levels[v]
        if explanation.cut == "negative-cut":
            details["dominates"] = False
        elif explanation.cut == "negative-cut-reversed":
            details["reversed_dominates"] = False
        elif explanation.cut == "positive-cut":
            intervals = fwd.tree_intervals
            details["interval(u)"] = (intervals.start[u], intervals.post[u])
            details["interval(v)"] = (intervals.start[v], intervals.post[v])


register_index(FelineIIndex)
register_index(FelineBIndex)
