"""repro — a from-scratch reproduction of FELINE (EDBT 2014).

FELINE (*Fast rEfined onLINE search*, Veloso, Cerf, Meira Jr & Zaki)
answers reachability queries on very large directed graphs by drawing the
DAG in the plane with two topological orderings and cutting impossible
queries in constant time.  This package implements FELINE, its variants
(FELINE-I, FELINE-B), every baseline of the paper's evaluation (GRAIL,
FERRARI, Nuutila's INTERVAL, TF-Label), the SCARAB boosting framework, and
the full benchmark suite regenerating the paper's tables and figures.

Quick start
-----------
>>> import repro
>>> r = repro.Reachability([(0, 1), (1, 2), (3, 2)])
>>> r.reachable(0, 2)
True
>>> r.reachable(2, 0)
False

The :class:`Reachability` facade accepts *any* directed graph — cycles are
condensed automatically.  Power users work with the index classes directly
on DAGs (:class:`repro.core.FelineIndex` and friends), through the method
registry (:func:`repro.baselines.create_index`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro import obs
from repro.baselines.base import (
    QueryStats,
    ReachabilityIndex,
    available_methods,
    create_index,
)
from repro.exceptions import InvalidVertexError, ReproError
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense
from repro.perf.engine import as_pair_array
from repro.resilience import UNKNOWN, QueryBudget

# Importing these modules registers every built-in method in the factory.
import repro.baselines  # noqa: F401  (registration side effect)
import repro.core  # noqa: F401
import repro.scarab  # noqa: F401

__version__ = "1.1.0"

__all__ = [
    "Reachability",
    "DiGraph",
    "available_methods",
    "create_index",
    "QueryStats",
    "QueryBudget",
    "UNKNOWN",
    "InvalidVertexError",
    "ReproError",
    "api",
    "obs",
    "__version__",
]


class Reachability:
    """High-level reachability oracle over an arbitrary directed graph.

    Handles the paper's preprocessing transparently: the input graph is
    condensed (every strongly connected component folded into one vertex,
    Tarjan's algorithm) and the chosen index is built on the resulting
    DAG.  Queries map vertices through the SCC function first, so two
    vertices in the same component are mutually reachable, as expected.

    Parameters
    ----------
    graph:
        A :class:`DiGraph` or an iterable of ``(u, v)`` edges over dense
        integer vertex ids.
    method:
        Registry name of the index to build (default ``"feline"``; see
        :func:`available_methods`).
    workers:
        Worker processes for batch survivor searches (default ``0`` —
        everything in process).  With ``workers >= 2`` a
        :class:`repro.perf.SearchPool` is attached after the build, so
        :meth:`reachable_many` parallelizes the pairs its O(1) cuts
        cannot decide; see ``docs/PERFORMANCE.md`` for when that helps.
    observers:
        Number of O'Reach-style supporting vertices to select at build
        time (default ``0`` — no observer layer).  With ``observers >=
        1`` an :class:`repro.perf.ObserverLayer` is built over the
        condensed DAG and consulted *before* the index's own cuts on
        every query — scalar and batch — shrinking the set of pairs
        that need an online search; see ``docs/PERFORMANCE.md``.
    kernel:
        Search-kernel backend for the survivor path: ``"auto"``/``None``
        (strongest available tier — ``"c"`` when the compiled search
        library builds and loads, else ``"numpy"``), or an explicit
        ``"c"`` / ``"numpy"`` / ``"python"``; every
        backend is bit-identical in answers and stats (see
        :mod:`repro.perf.kernels`).
    shared_pages:
        Move the index's read-only numpy pages into a shared-memory
        arena (:class:`repro.perf.SharedIndexPages`) after the build, so
        pool/fork workers map one physical copy.  Default ``False``;
        ``workers >= 2`` enables it implicitly for the pool.
    **params:
        Forwarded to the index constructor (e.g. ``num_labelings=5`` for
        GRAIL).
    """

    def __init__(
        self,
        graph: DiGraph | Iterable[tuple[int, int]],
        method: str = "feline",
        workers: int = 0,
        observers: int = 0,
        kernel: str | None = None,
        shared_pages: bool = False,
        **params,
    ) -> None:
        if not isinstance(graph, DiGraph):
            graph = DiGraph.from_edges(graph)
        self.graph = graph
        registry = obs.get_registry()
        with registry.phase("facade.init", "condense"):
            self.condensation = condense(graph)
        # int64 view of the SCC map: one gather maps a whole batch.
        self._scc_view = np.asarray(self.condensation.scc_of, dtype=np.int64)
        index: ReachabilityIndex = create_index(
            method, self.condensation.dag, **params
        )
        if kernel is not None:
            index.set_kernel(kernel)  # validates before the build runs
        self.index = index.build()
        if observers:
            from repro.perf.observers import build_observers

            with registry.phase("facade.init", "observers"):
                self.index.attach_observers(
                    build_observers(self.condensation.dag, k=observers)
                )
        if shared_pages:
            self.index.enable_shared_pages()
        if workers and workers > 1:
            self.index.enable_search_pool(workers)

    def enable_search_pool(self, workers: int, min_batch: int = 32):
        """Attach (``workers >= 2``) or detach (``<= 1``) the survivor
        pool on the underlying index; returns the pool or ``None``."""
        return self.index.enable_search_pool(workers, min_batch=min_batch)

    def close_search_pool(self) -> None:
        """Terminate the survivor-search pool, if one is attached."""
        self.index.close_search_pool()

    def set_kernel(self, kernel: str | None) -> str:
        """Select the search-kernel backend; returns the resolved name."""
        return self.index.set_kernel(kernel)

    @property
    def kernel_backend(self) -> str:
        """The bound search-kernel backend (see :mod:`repro.perf.kernels`)."""
        return self.index.kernel_backend

    def enable_shared_pages(self):
        """Move the index's read-only pages into shared memory; returns
        the :class:`repro.perf.SharedIndexPages` arena (``None`` = COW
        fallback)."""
        return self.index.enable_shared_pages()

    @property
    def shared_pages(self):
        """The attached shared-memory arena, or ``None``."""
        return self.index.shared_pages

    def close(self) -> None:
        """Release process-level resources: the survivor-search pool and
        the shared-memory arena (idempotent; queries keep working)."""
        self.index.close_search_pool()
        self.index.close_shared_pages()

    def __enter__(self) -> "Reachability":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _map_vertex(self, vertex: int) -> int:
        if vertex < 0 or vertex >= self.graph.num_vertices:
            raise InvalidVertexError(vertex, self.graph.num_vertices)
        return self.condensation.scc_of[vertex]

    def reachable(self, u: int, v: int, budget: QueryBudget | None = None):
        """Whether there is a directed path from ``u`` to ``v``.

        With a :class:`QueryBudget`, the answer may degrade to
        :data:`UNKNOWN` (or raise) per the budget's policy — it is never
        a wrong ``True``/``False``.
        """
        return self.index.query(
            self._map_vertex(u), self._map_vertex(v), budget=budget
        )

    def reachable_many(
        self,
        pairs: Sequence[tuple[int, int]]
        | Iterable[tuple[int, int]]
        | np.ndarray,
        budget: QueryBudget | None = None,
    ) -> list:
        """Answer a batch of ``(u, v)`` pairs; aligned list of answers.

        ``pairs`` is a sequence or iterable of integer pairs, or an
        ``(n, 2)`` signed or unsigned integer ndarray — an int64 array
        skips the list conversion, the largest cost left on this path.
        The batch is validated once into an int64 array
        (:func:`repro.perf.engine.as_pair_array`), mapped through the
        SCC condensation with one gather and routed to the index's batch
        path (:meth:`ReachabilityIndex.query_many`), so FELINE's numpy
        cuts answer the whole batch without per-pair Python dispatch.
        Equivalent to ``[self.reachable(u, v) for u, v in pairs]``; the
        optional ``budget`` applies per query, as in :meth:`reachable`.

        Raises :class:`InvalidVertexError` for the first out-of-range id
        in pair order; ``TypeError`` for a non-integer id or a float,
        bool, object or 1-D array; ``ValueError`` for a row that is not
        a pair or an array of the wrong shape.  A rejected batch leaves
        :attr:`stats` untouched.
        """
        pairs = as_pair_array(pairs, self.graph.num_vertices)
        return list(
            self.index.query_many(self._scc_view[pairs], budget=budget)
        )

    def explain(self, u: int, v: int, budget: QueryBudget | None = None):
        """Answer ``r(u, v)`` with full provenance — why this verdict?

        Returns a :class:`repro.obs.QueryExplanation`: the verdict
        (always equal to :meth:`reachable` on the same pair), which O(1)
        cut fired or how far the online search went, the structures
        consulted, the elapsed time, and any budget consumption.  Two
        distinct vertices in one strongly connected component report the
        ``same-scc`` cut; the condensed ids appear under
        ``details["scc(u)"]`` / ``details["scc(v)"]``.
        """
        mu, mv = self._map_vertex(u), self._map_vertex(v)
        explanation = self.index.explain(mu, mv, budget=budget)
        explanation.details["scc(u)"] = mu
        explanation.details["scc(v)"] = mv
        explanation.u, explanation.v = u, v
        if u != v and explanation.cut == "equal":
            explanation.cut = "same-scc"
        return explanation

    def enable_slow_log(
        self,
        threshold_ms: float = 1.0,
        capacity: int = 128,
        mode: str = "threshold",
        seed: int = 0,
    ):
        """Attach a slow-query log to the underlying index; returns it.

        Scalar and batch queries are then timed per pair and queries at
        or above ``threshold_ms`` retained in a bounded ring buffer
        (``mode="reservoir"`` samples everything uniformly instead) —
        see :class:`repro.obs.SlowQueryLog`.  Serve it live with
        :class:`repro.obs.ObsServer` or read ``slow_log.records()``.
        """
        from repro.obs.slowlog import SlowQueryLog

        log = SlowQueryLog(
            capacity=capacity,
            threshold_ns=int(threshold_ms * 1e6),
            mode=mode,
            seed=seed,
        )
        return self.index.attach_slow_log(log)

    @property
    def slow_log(self):
        """The attached :class:`repro.obs.SlowQueryLog`, or ``None``."""
        return self.index.slow_log

    @property
    def stats(self) -> QueryStats:
        """The underlying index's :class:`QueryStats` counters.

        Facade users read cut/search breakdowns here instead of reaching
        into ``.index.stats``.
        """
        return self.index.stats

    def witness_path(self, u: int, v: int) -> list[int] | None:
        """An actual path from ``u`` to ``v`` in the *original* graph.

        Answers the index first (cheap no), then runs a BFS on the
        original graph for the witness — O(|V| + |E|), paid only when a
        path exists and is explicitly requested.
        """
        if not self.reachable(u, v):
            return None
        from repro.graph.paths import find_path

        return find_path(self.graph, u, v)

    def __repr__(self) -> str:
        return (
            f"<Reachability method={self.index.method_name!r} "
            f"|V|={self.graph.num_vertices} |E|={self.graph.num_edges} "
            f"sccs={self.condensation.num_components}>"
        )


# The stable surface; imported last because it re-exports Reachability.
from repro import api  # noqa: E402,F401  (see repro.api docstring)
