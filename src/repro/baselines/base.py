"""Common interface and factory for every reachability index.

The benchmark harness sweeps methods uniformly: it instantiates each index
through :func:`create_index`, calls :meth:`ReachabilityIndex.build` once
(timed — the paper's "construction time"), then issues queries through
:meth:`ReachabilityIndex.query` (timed — "query time") and reads
:meth:`ReachabilityIndex.index_size_bytes` ("index size").

All indexes require a **DAG**; condensation of cyclic inputs is a
documented pre-processing step (:func:`repro.graph.scc.condense`), applied
automatically by the :class:`repro.Reachability` facade.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.exceptions import (
    IndexNotBuiltError,
    InvalidVertexError,
    QueryBudgetExceeded,
    ReproError,
    UnknownMethodError,
)
from repro.graph.digraph import DiGraph
from repro.obs.explain import BudgetReport, QueryExplanation
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry, get_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import get_tracer
from repro.obs.timing import elapsed_ns, elapsed_s, now_ns
from repro.perf.engine import as_pair_array, vectorized_query_many
from repro.perf.pool import SearchPool
from repro.resilience import chaos
from repro.resilience.budget import UNKNOWN, QueryBudget, bounded_fallback

# The ObserverLayer arrays eligible for shared-memory placement (see
# _shared_arrays / _adopt_shared_arrays).
_OBSERVER_ARRAYS = (
    "t1", "t2", "fmax", "bmin", "supports", "fwd_bits", "bwd_bits"
)

__all__ = [
    "QueryStats",
    "ReachabilityIndex",
    "register_index",
    "create_index",
    "available_methods",
]


@dataclass
class QueryStats:
    """Counters describing how queries were answered.

    The paper's discussion section attributes the performance differences
    between online-search methods to *which* cut answers each query; these
    counters make that observable:

    * ``queries`` — total queries answered;
    * ``equal_cuts`` — answered by ``u == v``;
    * ``observer_positive`` / ``observer_negative`` — answered by the
      attached :class:`~repro.perf.observers.ObserverLayer` before the
      family's own cuts ran (0 unless observers are attached);
    * ``negative_cuts`` — answered negatively in O(1) (dominance, level or
      interval non-containment before any search);
    * ``positive_cuts`` — answered positively in O(1) by the positive-cut
      filter;
    * ``searches`` — queries that needed a graph search;
    * ``expanded`` — total vertices expanded across all searches;
    * ``pruned`` — search branches cut by the index during searches.
      Each family defines its unit; for the FELINE family (FELINE,
      FELINE-I, FELINE-B) it is *child edges cut per expansion*: every
      child past the ``X`` bisect of an expanded vertex (one bisect
      over its X-sorted row), plus each first-seen child that fails the
      ``Y``, reversed-coordinate or level bound.

    The resilience layer (``repro.resilience``) adds three degradation
    counters:

    * ``budget_exhausted`` — budgeted queries whose search hit its step
      or deadline limit;
    * ``fallbacks`` — exhausted queries answered by the bounded
      bidirectional-BFS fallback;
    * ``unknowns`` — queries that degraded all the way to ``UNKNOWN``.
    """

    queries: int = 0
    equal_cuts: int = 0
    observer_positive: int = 0
    observer_negative: int = 0
    negative_cuts: int = 0
    positive_cuts: int = 0
    searches: int = 0
    expanded: int = 0
    pruned: int = 0
    budget_exhausted: int = 0
    fallbacks: int = 0
    unknowns: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.queries = 0
        self.equal_cuts = 0
        self.observer_positive = 0
        self.observer_negative = 0
        self.negative_cuts = 0
        self.positive_cuts = 0
        self.searches = 0
        self.expanded = 0
        self.pruned = 0
        self.budget_exhausted = 0
        self.fallbacks = 0
        self.unknowns = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for reports)."""
        return {
            "queries": self.queries,
            "equal_cuts": self.equal_cuts,
            "observer_positive": self.observer_positive,
            "observer_negative": self.observer_negative,
            "negative_cuts": self.negative_cuts,
            "positive_cuts": self.positive_cuts,
            "searches": self.searches,
            "expanded": self.expanded,
            "pruned": self.pruned,
            "budget_exhausted": self.budget_exhausted,
            "fallbacks": self.fallbacks,
            "unknowns": self.unknowns,
        }


class ReachabilityIndex(ABC):
    """Abstract reachability index over a DAG.

    Subclasses set the class attribute ``method_name`` (the factory key and
    report label) and implement :meth:`_build` and :meth:`_query`.

    The public :meth:`query` guards against use-before-build and maintains
    the ``stats.queries`` counter; subclasses update the finer-grained
    counters themselves.
    """

    method_name: str = "abstract"

    def __init__(self, graph: DiGraph) -> None:
        self.graph = graph
        self.stats = QueryStats()
        self._built = False
        # The active per-query budget guard (see repro.resilience.budget);
        # None on the unbudgeted hot path, so every _search loop pays a
        # single `is not None` check.
        self._guard = None
        # Observability handles, resolved at build() time.  They stay
        # None while the global registry is the no-op default, so the
        # query hot path pays a single `is None` check when metrics are
        # off (the zero-cost-when-disabled contract of repro.obs).
        self._latency_hist = None
        self._batch_hist = None
        self._batch_size_hist = None
        # The serving surfaces: a SlowQueryLog (attach_slow_log) and the
        # span tracer (resolved at build() when tracing is enabled).
        # _hot_obs folds all per-query observers into ONE handle so the
        # scalar hot path keeps its single `is None` guard check.
        self._slow_log = None
        self._query_tracer = None
        self._hot_obs = None
        # The batch query engine's handles: a CutTable materialized once
        # at build() time (None for indexes that declare no cuts — they
        # keep the scalar batch loop) and an optional SearchPool for
        # parallel survivor searches (see enable_search_pool()).
        self._cut_table = None
        self._search_pool = None
        # The optional ObserverLayer (attach_observers): O'Reach-style
        # supporting-vertex cuts consulted before this family's own
        # _query / cut table, on both the scalar and the batch path.
        self._observers = None
        # Native search-kernel state (repro.perf.kernels): _kernel is
        # the bound kernel object (None = the family's pure-Python
        # loops), _kernel_choice the requested backend (None = auto),
        # _kernel_backend the resolved name `kernel_backend` reports.
        self._kernel = None
        self._kernel_choice = None
        self._kernel_backend = "python"
        # Shared-memory index pages (repro.perf.shm): the owned arena
        # and the original arrays it displaced (restored on close).
        self._shared_pages = None
        self._shared_originals = None

    # -- lifecycle ------------------------------------------------------
    def build(self) -> "ReachabilityIndex":
        """Construct the index; returns ``self`` for chaining.

        With metrics enabled (:func:`repro.obs.enable_metrics` *before*
        this call) the build is timed into
        ``repro_index_build_seconds{method}``, a trace event records the
        graph dimensions, and per-query instruments are armed.  With
        tracing enabled (:func:`repro.obs.enable_tracing` *before* this
        call) the build runs inside an ``index.build`` span and per-query
        spans are armed.
        """
        chaos.fire("index.build.start", method=self.method_name)
        tracer = get_tracer()
        with tracer.span(
            "index.build",
            method=self.method_name,
            vertices=self.graph.num_vertices,
            edges=self.graph.num_edges,
        ):
            self._build_instrumented()
            self._materialize_cut_table()
            self._bind_kernel()
        if tracer.enabled:
            self._query_tracer = tracer
        self._refresh_hot_obs()
        self._built = True
        return self

    def _materialize_cut_table(self) -> None:
        """Build the batch engine's cut table (once, at build time).

        Timed into ``repro_cut_table_build_seconds{method}`` and traced
        as a ``cut_table.build`` child span of ``index.build``.  A
        ``None`` table (the default :meth:`_make_cut_table`) keeps the
        scalar batch loop and records nothing.
        """
        tracer = get_tracer()
        with tracer.span("cut_table.build", method=self.method_name):
            start = perf_counter()
            self._cut_table = self._make_cut_table()
            elapsed = perf_counter() - start
        if self._cut_table is None:
            return
        registry = get_registry()
        if registry.enabled:
            registry.histogram(
                "repro_cut_table_build_seconds",
                help="Wall time to materialize the batch-engine cut table.",
                method=self.method_name,
            ).observe(elapsed)

    def _build_instrumented(self) -> None:
        """Run :meth:`_build`, timed into the metrics registry when live."""
        registry = get_registry()
        if not registry.enabled:
            self._build()
            return

        method = self.method_name
        start = perf_counter()
        self._build()
        elapsed = perf_counter() - start
        registry.counter(
            "repro_index_builds_total",
            help="Number of index builds per method.",
            method=method,
        ).inc()
        registry.histogram(
            "repro_index_build_seconds",
            help="Index construction wall time.",
            method=method,
        ).observe(elapsed)
        registry.trace(
            "index.build",
            duration_s=elapsed,
            method=method,
            vertices=self.graph.num_vertices,
            edges=self.graph.num_edges,
        )
        self._latency_hist = registry.histogram(
            "repro_query_latency_seconds",
            help="Per-query latency of the scalar query path.",
            method=method,
        )
        self._batch_hist = registry.histogram(
            "repro_query_batch_seconds",
            help="Whole-batch latency of query_many.",
            method=method,
        )
        self._batch_size_hist = registry.histogram(
            "repro_query_batch_size",
            buckets=COUNT_BUCKETS,
            help="Number of pairs per query_many batch.",
            method=method,
        )
        self._install_observers(registry)

    def _refresh_hot_obs(self) -> None:
        """Fold the per-query observers into the single hot-path handle.

        ``_hot_obs`` is ``None`` when nothing per-query is armed — the
        scalar hot path then pays exactly one ``is None`` check — and a
        ``(latency_hist, slow_log, tracer)`` triple otherwise.
        """
        if (
            self._latency_hist is None
            and self._slow_log is None
            and self._query_tracer is None
        ):
            self._hot_obs = None
        else:
            self._hot_obs = (
                self._latency_hist, self._slow_log, self._query_tracer
            )

    def attach_slow_log(self, log: SlowQueryLog | None) -> SlowQueryLog | None:
        """Attach (or with ``None`` detach) a slow-query log; returns it.

        Once attached, every scalar query is timed and offered to the
        log.  :meth:`query_many` keeps its vectorized cut pass: each
        survivor search is timed and offered individually, and each
        cut-decided pair is offered with its share of the cut pass.
        """
        self._slow_log = log
        self._refresh_hot_obs()
        return log

    @property
    def slow_log(self) -> SlowQueryLog | None:
        """The attached slow-query log, if any."""
        return self._slow_log

    def _install_observers(self, registry: MetricsRegistry) -> None:
        """Hook: attach extra instruments when metrics are enabled.

        Called from :meth:`build` after :meth:`_build`, only when the
        active registry is live.  The default wraps the index's pruned
        DFS (any subclass defining ``_search``) with per-search timing
        and expansion-count histograms; subclasses can extend or replace
        this.
        """
        self._observe_searches(registry)

    def _observe_searches(self, registry: MetricsRegistry) -> None:
        """Wrap ``self._search`` with expansion and latency observers.

        The wrapper is installed as an *instance* attribute, so with
        metrics off the original method is untouched (true zero cost).
        Works for any search signature (``(u, v, *bounds)``); the
        vectorized batch fallback calls ``self._search`` too, so scalar
        and batch searches land in the same histograms.
        """
        inner = getattr(self, "_search", None)
        if inner is None:
            return
        expanded_hist = registry.histogram(
            "repro_search_expanded_vertices",
            buckets=COUNT_BUCKETS,
            help="Vertices expanded per online search.",
            method=self.method_name,
        )
        search_hist = registry.histogram(
            "repro_search_seconds",
            help="Wall time per online search.",
            method=self.method_name,
        )
        stats = self.stats

        def observed_search(u, v, *bounds):
            before = stats.expanded
            start = perf_counter()
            answer = inner(u, v, *bounds)
            search_hist.observe(perf_counter() - start)
            expanded_hist.observe(stats.expanded - before)
            return answer

        self._search = observed_search

    @property
    def built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._built

    # -- queries --------------------------------------------------------
    def _check_vertex(self, vertex: int) -> None:
        """Reject out-of-range ids with the uniform exception type."""
        if not 0 <= vertex < self.graph.num_vertices:
            raise InvalidVertexError(vertex, self.graph.num_vertices)

    def query(
        self, u: int, v: int, budget: QueryBudget | None = None
    ) -> bool:
        """Whether ``v`` is reachable from ``u`` (``r(u, v)``).

        Every index validates ``u``/``v`` identically
        (:class:`~repro.exceptions.InvalidVertexError` when out of range)
        and answers ``r(u, u)`` as ``True``.

        With a :class:`~repro.resilience.budget.QueryBudget`, the online
        search is step/deadline-guarded; on exhaustion the budget's
        policy decides between raising
        :class:`~repro.exceptions.QueryBudgetExceeded`, returning the
        three-valued :data:`~repro.resilience.budget.UNKNOWN`, or falling
        back to a bounded bidirectional BFS.  Boolean answers are always
        exact — only ``UNKNOWN`` may replace one.
        """
        if not self._built:
            raise IndexNotBuiltError(
                f"{self.method_name}: call build() before query()"
            )
        self._check_vertex(u)
        self._check_vertex(v)
        self.stats.queries += 1
        if u == v:
            self.stats.equal_cuts += 1
            return True
        observers = self._observers
        if observers is not None:
            verdict = observers.decide(u, v)
            if verdict is not None:
                if verdict:
                    self.stats.observer_positive += 1
                else:
                    self.stats.observer_negative += 1
                return verdict
        obs = self._hot_obs
        if obs is None:
            if budget is None:
                return self._query(u, v)
            return self._budgeted_query(u, v, budget)

        hist, slow, tracer = obs
        span = None
        if tracer is not None:
            span = tracer.span("query", method=self.method_name, u=u, v=v)
            span.__enter__()
        start = now_ns()
        try:
            if budget is None:
                answer = self._query(u, v)
            else:
                answer = self._budgeted_query(u, v, budget)
        except BaseException as exc:
            if span is not None:
                span.__exit__(type(exc), exc, None)
            raise
        duration = elapsed_ns(start)
        if span is not None:
            span.set_attribute(
                "verdict",
                answer if isinstance(answer, bool) else str(answer),
            )
            span.__exit__(None, None, None)
        if hist is not None:
            hist.observe(duration * 1e-9)
        if slow is not None:
            slow.record(
                u, v, answer, duration, self.method_name,
                trace_id=span.trace_id if span is not None else None,
            )
        return answer

    def _budgeted_query(self, u: int, v: int, budget: QueryBudget):
        """One guarded query: install the guard, degrade on exhaustion."""
        self._set_guard(budget.new_guard())
        try:
            return self._query(u, v)
        except QueryBudgetExceeded as exc:
            return self._degrade(u, v, budget, exc)
        finally:
            self._set_guard(None)

    def _set_guard(self, guard) -> None:
        """Install the active search guard (hook for delegating indexes)."""
        self._guard = guard

    def _degrade(self, u: int, v: int, budget: QueryBudget, exc):
        """Apply the budget's exhaustion policy; maintains all counters."""
        stats = self.stats
        stats.budget_exhausted += 1
        policy = budget.policy
        registry = get_registry()
        registry.counter(
            "repro_budget_exhausted_total",
            help="Budgeted queries that hit their step/deadline limit.",
            method=self.method_name,
            resource=exc.resource,
            policy=policy,
        ).inc()
        if policy == "raise":
            outcome = "raised"
        elif policy == "unknown":
            stats.unknowns += 1
            outcome = "unknown"
        else:  # fallback
            stats.fallbacks += 1
            answer = bounded_fallback(
                self.graph, u, v, budget.resolved_fallback_nodes
            )
            if answer is UNKNOWN:
                stats.unknowns += 1
                outcome = "fallback_unknown"
            else:
                outcome = "fallback_true" if answer else "fallback_false"
        registry.counter(
            "repro_degraded_total",
            help="Outcomes of budget-exhausted queries, per policy.",
            method=self.method_name,
            outcome=outcome,
            policy=policy,
        ).inc()
        if policy == "raise":
            raise exc
        if policy == "unknown":
            return UNKNOWN
        return answer

    def query_many(
        self,
        pairs: Iterable[tuple[int, int]] | np.ndarray,
        budget: QueryBudget | None = None,
    ) -> list[bool]:
        """Answer a batch of queries.

        Dispatches to the overridable :meth:`_query_many` — the
        vectorized cut pass of :mod:`repro.perf.engine` for every index
        with a cut table — so batches are answered without per-pair
        Python dispatch while every subclass keeps this exact entry
        point.  Statistics counters update identically to the scalar
        path.

        ``pairs`` is a sequence or iterable of integer pairs, or an
        ``(n, 2)`` signed or unsigned integer ndarray.  The whole batch
        is validated upfront into one int64 array
        (:func:`~repro.perf.engine.as_pair_array`):
        :class:`~repro.exceptions.InvalidVertexError` for the first
        out-of-range id in pair order, ``TypeError`` for a non-integer
        id (floats are never truncated) or a float, bool, object or 1-D
        array, ``ValueError`` for a row that is not a pair or an array
        of the wrong shape — before any statistic moves.  A ``budget``
        applies *per query*: each survivor search runs under its own
        guard, and answers may contain
        :data:`~repro.resilience.budget.UNKNOWN` depending on policy.
        An attached slow log is offered every pair (survivor searches
        timed individually); a tracer gets one ``query_many`` span.
        """
        if not self._built:
            raise IndexNotBuiltError(
                f"{self.method_name}: call build() before query_many()"
            )
        pairs = as_pair_array(pairs, self.graph.num_vertices)
        chaos.fire(
            "index.query_many", method=self.method_name, pairs=len(pairs)
        )
        tracer = self._query_tracer
        hist = self._batch_hist
        if tracer is None and hist is None:
            return self._query_many(pairs, budget)

        span = None
        if tracer is not None:
            span = tracer.span(
                "query_many", method=self.method_name, size=len(pairs)
            )
            span.__enter__()
        start = now_ns()
        try:
            answers = self._query_many(pairs, budget)
        except BaseException as exc:
            if span is not None:
                span.__exit__(type(exc), exc, None)
            raise
        if span is not None:
            span.set_attribute(
                "positives", sum(1 for answer in answers if answer is True)
            )
            span.__exit__(None, None, None)
        if hist is not None:
            hist.observe(elapsed_s(start))
            self._batch_size_hist.observe(len(pairs))
        return answers

    def _query_many(
        self,
        pairs: np.ndarray,
        budget: QueryBudget | None = None,
    ) -> list[bool]:
        """Batch implementation over the validated ``(n, 2)`` int64
        ``pairs``: the vectorized cut pass when the index declares a cut
        table, the scalar loop otherwise.

        Every registered family declares one (see
        :meth:`_make_cut_table`), so the scalar loop only serves
        out-of-tree subclasses; with a ``budget`` or a slow log it runs
        through :meth:`query`, which guards and logs each pair.  Both
        paths own the ``stats.queries``
        accounting (the scalar loop counts per pair; the engine counts
        the batch), so the public wrapper adds no double counting, and
        both produce identical answers and statistics.
        """
        if self._cut_table is not None:
            return vectorized_query_many(self, pairs, budget)
        pairs = pairs.tolist()
        if budget is not None or self._slow_log is not None:
            return [self.query(u, v, budget=budget) for u, v in pairs]
        query = self._query
        stats = self.stats
        answers = []
        for u, v in pairs:
            stats.queries += 1
            answers.append(query(u, v))
        return answers

    # -- batch engine hooks ------------------------------------------------
    def _make_cut_table(self):
        """Hook: the family's :class:`~repro.perf.cut_table.CutTable`.

        Called once per :meth:`build` (and by persistence loading).
        Return ``None`` (the default) to keep the scalar batch loop;
        every registered index family overrides this so ``query_many``
        runs the vectorized cut pass of :mod:`repro.perf.engine`.
        """
        return None

    def _search_pair(self, u: int, v: int) -> bool:
        """Hook: answer one engine survivor (a pair no O(1) cut decided).

        Implementations must reproduce exactly what the scalar
        ``_query`` does *after* it has counted the search — typically a
        call to the family's ``_search`` looked up via ``self`` so
        instance-attribute wrappers (metrics observers, test spies)
        stay in the loop.  Never called unless :meth:`_make_cut_table`
        returned a table whose classification leaves survivors.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares a cut table but no "
            "_search_pair for its survivors"
        )

    def _search_pairs_batch(self, us, vs):
        """Hook: answer many engine survivors in one native call.

        Returns per-pair ``(answers, expanded, pruned)`` arrays — stats
        and stamp bookkeeping aside, nothing else is touched, so the
        caller folds the deltas (with multiplicity weights) itself — or
        ``None`` to keep the scalar per-pair loop.  ``None`` whenever no
        batch-capable kernel is bound, a budget guard is active, or an
        instance-level ``_search`` wrapper (metrics observers, test
        spies) must stay in the loop.
        """
        kernel = self._kernel
        if (
            kernel is None
            or self._guard is not None
            or "_search" in self.__dict__
        ):
            return None
        batch = getattr(kernel, "search_batch", None)
        if batch is None:
            return None
        return batch(us, vs)

    # -- native search kernels ---------------------------------------------
    def set_kernel(self, kernel: str | None) -> str:
        """Select the search-kernel backend for this index.

        ``kernel`` is ``None``/``"auto"`` (strongest available tier,
        honouring the ``REPRO_KERNEL`` environment variable),
        ``"numba"``, ``"numpy"`` or ``"python"``; unknown or unavailable
        backends raise immediately.  When the index is already built the
        kernel is rebound at once, otherwise :meth:`build` binds it.
        Returns the resolved backend name (families without a native
        path resolve the request but always report ``"python"``).
        """
        from repro.perf import kernels

        self._kernel_choice = kernel
        if self._built:
            self._bind_kernel()
        else:
            self._kernel_backend = kernels.resolve_backend(kernel)
        return self._kernel_backend

    @property
    def kernel_backend(self) -> str:
        """The bound search-kernel backend (``"python"`` = the reference loops)."""
        return self._kernel_backend

    def _bind_kernel(self) -> None:
        """Hook: bind the family's native search kernel, if it has one.

        Called at the end of :meth:`build`, by persistence loading, by
        :meth:`set_kernel` on a built index, and after shared-memory
        adoption (so kernels read the adopted arrays).  The default
        validates the requested backend but binds nothing — families
        without a CSR-native path keep their loops and report
        ``"python"``.
        """
        from repro.perf import kernels

        kernels.resolve_backend(self._kernel_choice)
        self._kernel_backend = "python"
        self._arm_kernel(None)

    def _arm_kernel(self, kernel) -> None:
        """Install a bound kernel, arming its dispatch counter when live."""
        self._kernel = kernel
        if kernel is None:
            return
        registry = get_registry()
        if registry.enabled:
            kernel.dispatch_counter = registry.counter(
                "repro_kernel_dispatch_total",
                help="Native search-kernel dispatches.",
                backend=kernel.backend,
                method=self.method_name,
            )

    def attach_observers(self, layer):
        """Attach (or with ``None`` detach) an
        :class:`~repro.perf.observers.ObserverLayer`; returns it.

        Once attached, the layer's O(1) checks run before this family's
        own cuts on both the scalar :meth:`query` and the vectorized
        batch path; decided pairs count in
        ``stats.observer_positive`` / ``observer_negative`` and never
        touch the family's counters — the layer only shrinks the
        survivor set, answers are unchanged.
        """
        if layer is not None and layer.num_vertices != self.graph.num_vertices:
            raise ReproError(
                f"observer layer covers {layer.num_vertices} vertices but "
                f"the graph has {self.graph.num_vertices}"
            )
        self._observers = layer
        return layer

    @property
    def observers(self):
        """The attached observer layer, if any."""
        return self._observers

    def enable_search_pool(
        self, workers: int, min_batch: int = 32, shared_pages: bool = True
    ) -> "SearchPool | None":
        """Attach a :class:`~repro.perf.pool.SearchPool` for batch
        survivor searches; returns it (or ``None`` for ``workers <= 1``).

        Must run *after* :meth:`build` — the forked workers inherit the
        built structures.  With ``shared_pages`` (the default) the
        index's read-only numpy pages move into a
        :class:`~repro.perf.shm.SharedIndexPages` arena *before* the
        fork, so every worker maps one physical copy instead of
        COW-duplicating pages as refcounts are touched; where POSIX
        shared memory is unavailable this silently stays on fork-COW.
        ``workers <= 1`` detaches any existing pool and stays in
        process.  On platforms without ``fork`` the pool degrades to
        in-process execution.
        """
        if not self._built:
            raise IndexNotBuiltError(
                f"{self.method_name}: call build() before enable_search_pool()"
            )
        self.close_search_pool()
        if workers <= 1:
            return None
        if shared_pages:
            self.enable_shared_pages()
        self._search_pool = SearchPool(self, workers=workers, min_batch=min_batch)
        return self._search_pool

    def close_search_pool(self) -> None:
        """Terminate and detach the search pool, if any (idempotent)."""
        if self._search_pool is not None:
            self._search_pool.close()
            self._search_pool = None

    @property
    def search_pool(self) -> "SearchPool | None":
        """The attached survivor-search pool, if any."""
        return self._search_pool

    # -- shared-memory index pages ----------------------------------------
    def enable_shared_pages(self):
        """Move the index's read-only numpy pages into shared memory.

        Creates a :class:`~repro.perf.shm.SharedIndexPages` arena
        holding the CSR views, the family's label arrays (FELINE
        coordinates), and any attached observer arrays, then re-points
        every numpy consumer — cut table, native kernels, batch engine —
        at the arena, so processes forked afterwards (``SearchPool``,
        ``repro.shard`` workers) map **one** physical copy instead of
        COW-duplicating pages as Python touches refcounts.  (The
        ``array``-module scalars behind the pure-Python loops stay
        COW-shared — only the numpy pages, which carry the native hot
        path, move.)

        Returns the arena, or ``None`` where POSIX shared memory is
        unavailable (everything keeps working on fork-COW).  Idempotent.
        """
        if not self._built:
            raise IndexNotBuiltError(
                f"{self.method_name}: call build() before "
                "enable_shared_pages()"
            )
        if self._shared_pages is not None:
            return self._shared_pages
        from repro.perf.shm import SharedIndexPages

        arrays = self._shared_arrays()
        if not arrays:
            return None
        pages = SharedIndexPages.create(arrays, label=self.method_name)
        if pages is None:
            return None
        self._shared_pages = pages
        self._shared_originals = {}
        self._adopt_shared_arrays(pages)
        self._rematerialize_after_swap()
        self._publish_shared_bytes(pages.nbytes)
        return pages

    def close_shared_pages(self) -> None:
        """Restore the original arrays and unlink the arena (idempotent)."""
        pages = self._shared_pages
        if pages is None:
            return
        self._shared_pages = None
        self._restore_shared_arrays()
        self._shared_originals = None
        self._rematerialize_after_swap()
        pages.close()
        self._publish_shared_bytes(0)

    @property
    def shared_pages(self):
        """The owned shared-memory arena, if any."""
        return self._shared_pages

    def _publish_shared_bytes(self, nbytes: int) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "repro_shared_pages_bytes",
                help="Bytes of index pages held in POSIX shared memory.",
                method=self.method_name,
            ).set(nbytes)

    def _shared_arrays(self) -> dict:
        """Hook: named numpy arrays to place into the shared arena.

        The base contributes the graph's CSR views and the attached
        observer layer's arrays; families extend this with their label
        structures.  Names are arbitrary but must round-trip through
        :meth:`_adopt_shared_arrays`.
        """
        csr = self.graph.csr()
        arrays = {
            "csr.out_indptr": csr.out_indptr,
            "csr.out_indices": csr.out_indices,
            "csr.in_indptr": csr.in_indptr,
            "csr.in_indices": csr.in_indices,
        }
        arrays.update(self._observer_shared_arrays())
        return arrays

    def _observer_shared_arrays(self) -> dict:
        observers = self._observers
        if observers is None:
            return {}
        return {
            f"obs.{attr}": getattr(observers, attr)
            for attr in _OBSERVER_ARRAYS
        }

    def _adopt_shared_arrays(self, pages) -> None:
        """Hook: re-point numpy consumers at the arena's copies.

        Originals are stashed in ``_shared_originals`` for
        :meth:`_restore_shared_arrays`.  Subclasses extend both hooks
        symmetrically; the caller re-materializes the cut table and
        rebinds the kernel afterwards, so neither hook needs to.
        """
        from repro.graph.digraph import CsrViews

        self._shared_originals["csr"] = self.graph.adopt_csr(
            CsrViews(
                out_indptr=pages.view("csr.out_indptr"),
                out_indices=pages.view("csr.out_indices"),
                in_indptr=pages.view("csr.in_indptr"),
                in_indices=pages.view("csr.in_indices"),
            )
        )
        self._adopt_observer_arrays(pages)

    def _adopt_observer_arrays(self, pages) -> None:
        observers = self._observers
        if observers is None:
            return
        stash = {}
        for attr in _OBSERVER_ARRAYS:
            stash[attr] = getattr(observers, attr)
            setattr(observers, attr, pages.view(f"obs.{attr}"))
        self._shared_originals["observers"] = stash

    def _restore_shared_arrays(self) -> None:
        """Hook: undo :meth:`_adopt_shared_arrays`."""
        originals = self._shared_originals or {}
        csr = originals.get("csr")
        if csr is not None:
            self.graph.adopt_csr(csr)
        stash = originals.get("observers")
        if stash is not None:
            for attr, arr in stash.items():
                setattr(self._observers, attr, arr)

    def _rematerialize_after_swap(self) -> None:
        """Rebuild the views-derived machinery after an array swap."""
        self._materialize_cut_table()
        self._bind_kernel()

    # -- explain -----------------------------------------------------------
    def explain(
        self, u: int, v: int, budget: QueryBudget | None = None
    ) -> QueryExplanation:
        """Answer ``r(u, v)`` *and* report how the answer was produced.

        Returns a :class:`~repro.obs.explain.QueryExplanation` whose
        ``verdict`` always equals what :meth:`query` would return for the
        same arguments (the property suite asserts this for every
        registered method), plus the provenance: which O(1) cut fired or
        whether the online search ran, how many vertices it expanded and
        pruned, the wall time, and — under a budget — the consumption and
        degradation outcome.

        The classification is generic (derived from the per-method
        :class:`QueryStats` accounting every ``_query`` maintains);
        index families refine it through :meth:`_explain_details` —
        FELINE distinguishes the coordinate cut from the level filter
        and attaches the coordinates it consulted.

        Unlike :meth:`query`, ``explain`` never raises on budget
        exhaustion: under ``policy="raise"`` the explanation carries
        ``verdict=UNKNOWN`` with ``budget.outcome == "raised"`` so the
        provenance survives to the caller.
        """
        if not self._built:
            raise IndexNotBuiltError(
                f"{self.method_name}: call build() before explain()"
            )
        self._check_vertex(u)
        self._check_vertex(v)
        stats = self.stats
        base = (
            stats.equal_cuts, stats.negative_cuts, stats.positive_cuts,
            stats.searches, stats.expanded, stats.pruned,
            stats.observer_positive, stats.observer_negative,
        )
        budget_report = None
        stats.queries += 1
        observer_verdict = None
        if u != v and self._observers is not None:
            observer_verdict = self._observers.decide(u, v)
        start = now_ns()
        if u == v:
            stats.equal_cuts += 1
            verdict = True
        elif observer_verdict is not None:
            # The observer layer decided — the family's _query never
            # runs, exactly as in query(), and the verdict is attributed
            # to the observers (never to the family's own cuts).
            if observer_verdict:
                stats.observer_positive += 1
            else:
                stats.observer_negative += 1
            verdict = observer_verdict
        elif budget is None:
            verdict = self._query(u, v)
        else:
            guard = budget.new_guard()
            self._set_guard(guard)
            exhausted = False
            outcome = "completed"
            try:
                verdict = self._query(u, v)
            except QueryBudgetExceeded as exc:
                exhausted = True
                try:
                    verdict = self._degrade(u, v, budget, exc)
                except QueryBudgetExceeded:
                    verdict = UNKNOWN
                    outcome = "raised"
                else:
                    if budget.policy == "unknown":
                        outcome = "unknown"
                    elif verdict is UNKNOWN:
                        outcome = "fallback_unknown"
                    else:
                        outcome = (
                            "fallback_true" if verdict else "fallback_false"
                        )
            finally:
                self._set_guard(None)
            budget_report = BudgetReport(
                policy=budget.policy,
                max_steps=budget.max_steps,
                deadline_s=budget.deadline_s,
                steps_used=guard.steps,
                exhausted=exhausted,
                outcome=outcome,
            )
        elapsed = elapsed_ns(start)

        # Exactly one cut counter moved (each _query's contract); label-
        # lookup methods that count nothing (e.g. the materialized
        # transitive closure) classify by the verdict's sign.
        if stats.equal_cuts > base[0]:
            cut = "equal"
        elif stats.observer_positive > base[6]:
            cut = "observer-positive"
        elif stats.observer_negative > base[7]:
            cut = "observer-negative"
        elif stats.searches > base[3]:
            cut = "search"
        elif stats.positive_cuts > base[2]:
            cut = "positive-cut"
        elif stats.negative_cuts > base[1]:
            cut = "negative-cut"
        else:
            cut = "positive-cut" if verdict is True else "negative-cut"

        explanation = QueryExplanation(
            method=self.method_name,
            u=u,
            v=v,
            verdict=verdict,
            cut=cut,
            expanded=stats.expanded - base[4],
            pruned=stats.pruned - base[5],
            elapsed_ns=elapsed,
            budget=budget_report,
        )
        if observer_verdict is not None:
            explanation.details["observers(k)"] = self._observers.k
        self._explain_details(u, v, explanation)
        return explanation

    def _explain_details(
        self, u: int, v: int, explanation: QueryExplanation
    ) -> None:
        """Hook: enrich (and refine) an explanation with index internals.

        Called once per :meth:`explain` with the generically-classified
        explanation; subclasses add the structures they consulted to
        ``explanation.details`` and may sharpen ``explanation.cut``
        (FELINE splits ``negative-cut`` into the coordinate cut vs the
        level filter).  The default adds nothing.
        """

    # -- observability ----------------------------------------------------
    def publish_stats(self, registry: MetricsRegistry | None = None) -> None:
        """Snapshot :attr:`stats` into ``repro_query_stats`` gauges.

        The counters accrue in plain Python ints (hot path); this
        publishes them to the metrics registry at a natural boundary —
        the bench harness calls it after each measured workload, the
        ``repro stats`` CLI after its run.  No-op when metrics are off.
        """
        registry = registry if registry is not None else get_registry()
        if not registry.enabled:
            return
        for counter, value in self.stats.as_dict().items():
            registry.gauge(
                "repro_query_stats",
                help="QueryStats counters snapshotted per method.",
                method=self.method_name,
                counter=counter,
            ).set(value)

    # -- introspection ----------------------------------------------------
    @abstractmethod
    def index_size_bytes(self) -> int:
        """Approximate size of the *index structure itself*, in bytes.

        Excludes the input graph — the paper's "index size" figures
        compare only the generated labels, which is what makes GRAIL's
        d-interval index measurably larger than FELINE's two orderings.
        """

    # -- to be provided by subclasses -------------------------------------
    @abstractmethod
    def _build(self) -> None:
        """Construct the index structures."""

    @abstractmethod
    def _query(self, u: int, v: int) -> bool:
        """Answer one query; ``build`` is guaranteed to have run."""

    def __repr__(self) -> str:
        state = "built" if self._built else "unbuilt"
        return f"<{type(self).__name__} {state} on {self.graph!r}>"


_REGISTRY: dict[str, Callable[..., ReachabilityIndex]] = {}


def register_index(
    factory: Callable[..., ReachabilityIndex], name: str | None = None
) -> Callable[..., ReachabilityIndex]:
    """Register an index class/factory under its ``method_name``.

    Usable as a plain call or a decorator:

    >>> @register_index
    ... class MyIndex(ReachabilityIndex):
    ...     method_name = "mine"
    ...     ...
    """
    key = name or getattr(factory, "method_name", None)
    if not key or key == "abstract":
        raise ValueError(f"{factory!r} has no usable method_name")
    _REGISTRY[key] = factory
    return factory


def create_index(method: str, graph: DiGraph, **params) -> ReachabilityIndex:
    """Instantiate a registered index by name (does not build it).

    Raises :class:`~repro.exceptions.UnknownMethodError` for a name not
    in the registry (a :class:`~repro.exceptions.DatasetError` subclass,
    so pre-existing handlers keep working).
    """
    try:
        factory = _REGISTRY[method]
    except KeyError:
        known = sorted(_REGISTRY)
        raise UnknownMethodError(
            f"unknown reachability method {method!r}; known: {', '.join(known)}",
            method=method,
            known=known,
        ) from None
    return factory(graph, **params)


def available_methods() -> list[str]:
    """Names of all registered methods, sorted."""
    return sorted(_REGISTRY)
