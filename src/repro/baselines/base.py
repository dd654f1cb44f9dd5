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
from array import array
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
from repro.perf.cut_table import SearchOnlyCutTable
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
    "RankSearchIndex",
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
    report label) and implement :meth:`_build`, :meth:`index_size_bytes`,
    :meth:`_make_cut_table` (their O(1) cuts; the default has none) and
    :meth:`_search_pair` (the online search for pairs no cut decides).

    Every query runs one chain (:meth:`_answer`): reflexive, observers,
    the cut table, then the search.  The chain keeps :attr:`stats`;
    subclasses count only what happens inside their search
    (``expanded``, ``pruned``).
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
        # The cut table materialized once at build() time (both the
        # scalar chain and the batch engine classify through it) and an
        # optional SearchPool for parallel survivor searches (see
        # enable_search_pool()).
        self._cut_table = None
        self._search_pool = None
        # The optional ObserverLayer (attach_observers): O'Reach-style
        # supporting-vertex cuts consulted before this family's own cut
        # table, on both the scalar and the batch path.
        self._observers = None
        # Native search-kernel state (repro.perf.kernels): _kernel is
        # the bound kernel object (None = the family's pure-Python
        # loops), _kernel_choice the requested backend (None = auto),
        # _kernel_backend the resolved name `kernel_backend` reports.
        self._kernel = None
        self._kernel_choice = None
        self._kernel_backend = "python"
        # The batch engine's compiled cut pass (kernels.bind_classify;
        # None = the numpy route), rebound with the table, the kernel
        # and the observer layer.
        self._classify = None
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
            self._bind_classify()
        if tracer.enabled:
            self._query_tracer = tracer
        self._refresh_hot_obs()
        self._built = True
        return self

    def _materialize_cut_table(self) -> None:
        """Build the cut table (once, at build time).

        Timed into ``repro_cut_table_build_seconds{method}`` and traced
        as a ``cut_table.build`` child span of ``index.build``.
        """
        tracer = get_tracer()
        with tracer.span("cut_table.build", method=self.method_name):
            start = perf_counter()
            self._cut_table = self._make_cut_table()
            elapsed = perf_counter() - start
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

        Once attached, every validated scalar query is timed and offered
        to the log.  :meth:`query_many` keeps its vectorized cut pass: each
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

        With a latency histogram, slow log or tracer armed, every
        validated pair is timed, offered and spanned — whichever step of
        the chain decides it.
        """
        if not self._built:
            raise IndexNotBuiltError(
                f"{self.method_name}: call build() before query()"
            )
        n = self.graph.num_vertices
        if not (0 <= u < n and 0 <= v < n):  # _check_vertex names the id
            self._check_vertex(u)
            self._check_vertex(v)
        obs = self._hot_obs
        if obs is None:
            return self._answer(u, v, budget)

        hist, slow, tracer = obs
        span = None
        if tracer is not None:
            span = tracer.span("query", method=self.method_name, u=u, v=v)
            span.__enter__()
        start = now_ns()
        try:
            answer = self._answer(u, v, budget)
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

    def _answer(
        self,
        u: int,
        v: int,
        budget: QueryBudget | None = None,
        explanation: QueryExplanation | None = None,
    ):
        """The query chain for one validated pair; returns the verdict.

        Reflexive, then the observer layer, then the cut table's
        :meth:`~repro.perf.cut_table.CutTable.classify_one`, then
        :meth:`_search_pair` — the batch engine's steps in the batch
        engine's order, with the same :attr:`stats` accounting.  A
        ``budget`` guards the search only (:meth:`_search_one`).
        :meth:`explain` passes its ``explanation``, which receives the
        cut that fired and the budget report.
        """
        stats = self.stats
        stats.queries += 1
        if u == v:
            stats.equal_cuts += 1
            cut, verdict = "equal", True
        else:
            observers = self._observers
            verdict = None if observers is None else observers.decide(u, v)
            if verdict is None:
                table = self._cut_table
                cut = table.classify_one(u, v)
                if cut is None:
                    stats.searches += 1
                    return self._search_one(u, v, budget, explanation)
                verdict = cut == "positive-cut"
                if table.counts_cuts:
                    if verdict:
                        stats.positive_cuts += 1
                    else:
                        stats.negative_cuts += 1
                if explanation is not None and budget is not None:
                    # The budget covered the family's cuts: no steps.
                    explanation.budget = BudgetReport.of(budget, 0, "completed")
            elif verdict:
                stats.observer_positive += 1
                cut = "observer-positive"
            else:
                stats.observer_negative += 1
                cut = "observer-negative"
        if explanation is not None:
            explanation.cut = cut
        return verdict

    def _search_one(
        self,
        u: int,
        v: int,
        budget: QueryBudget | None,
        explanation: QueryExplanation | None,
    ):
        """The chain's last step: :meth:`_search_pair` under a fresh
        guard from ``budget``, degraded by :meth:`_degrade` on
        exhaustion.  A ``"raise"`` policy raises, except for an
        explanation, which reports the degradation instead."""
        if budget is None:
            return self._search_pair(u, v)
        guard = budget.new_guard()
        self._set_guard(guard)
        outcome = "completed"
        try:
            verdict = self._search_pair(u, v)
        except QueryBudgetExceeded as exc:
            verdict, outcome = self._degrade(u, v, budget, exc)
            if outcome == "raised" and explanation is None:
                raise
        finally:
            self._set_guard(None)
        if explanation is not None:
            explanation.budget = BudgetReport.of(budget, guard.steps, outcome)
        return verdict

    def _set_guard(self, guard) -> None:
        """Install the active search guard (hook for delegating indexes)."""
        self._guard = guard

    def _degrade(self, u: int, v: int, budget: QueryBudget, exc):
        """Apply the budget's exhaustion policy; maintains all counters.

        Returns ``(answer, outcome)``, the outcome one of
        :class:`~repro.obs.explain.BudgetReport`'s names.  Under
        ``"raise"`` that is ``(UNKNOWN, "raised")`` and the caller
        raises ``exc``.
        """
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
        answer = UNKNOWN
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
        return answer, outcome

    def query_many(
        self,
        pairs: Iterable[tuple[int, int]] | np.ndarray,
        budget: QueryBudget | None = None,
    ) -> list[bool]:
        """Answer a batch of queries.

        Runs the vectorized cut pass of :mod:`repro.perf.engine` over
        the index's cut table, so batches are answered without per-pair
        Python dispatch.  Answers and statistics counters equal those of
        the scalar :meth:`query` loop.

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
        step/deadline budget, and answers may contain
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
            return vectorized_query_many(self, pairs, budget)

        span = None
        if tracer is not None:
            span = tracer.span(
                "query_many", method=self.method_name, size=len(pairs)
            )
            span.__enter__()
        start = now_ns()
        try:
            answers = vectorized_query_many(self, pairs, budget)
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

    # -- query hooks -------------------------------------------------------
    def _make_cut_table(self):
        """Hook: the family's :class:`~repro.perf.cut_table.CutTable`.

        Called once per :meth:`build` (and by persistence loading); the
        scalar chain and the batch engine both classify through it.  The
        default, a :class:`~repro.perf.cut_table.SearchOnlyCutTable`,
        decides nothing, so every non-reflexive pair goes to
        :meth:`_search_pair`.
        """
        return SearchOnlyCutTable()

    def _search_pair(self, u: int, v: int) -> bool:
        """Hook: answer one pair no O(1) cut decided (``u != v``).

        Called by the scalar chain and by the batch engine with Python
        ints, after ``stats.searches`` was counted; the search counts
        its own ``expanded``/``pruned`` and calls ``self._guard.step()``
        once per expanded vertex when a guard is installed.  Look the
        family's ``_search`` up via ``self`` so instance-attribute
        wrappers (metrics observers, test spies) stay in the loop.
        Never called for a pair the cut table decides.
        """
        raise NotImplementedError(
            f"{type(self).__name__} leaves pairs to search but defines "
            "no _search_pair"
        )

    def _search_pairs_batch(self, us, vs, max_steps: int = -1):
        """Hook: answer many engine survivors in one native call.

        Each search runs under its own budget of ``max_steps`` expanded
        vertices (``-1``: none).  Returns per-pair ``(codes, expanded,
        pruned)`` arrays — codes 0 not reachable, 1 reachable, 2 budget
        exhausted (a guard would have raised at step ``max_steps + 1``);
        stats and stamp bookkeeping aside, nothing else is touched, so
        the caller folds the deltas (with multiplicity weights) and
        degrades the exhausted pairs itself — or ``None`` to keep the
        per-pair loop.  ``None`` whenever no batch-capable kernel is
        bound, a guard is installed, or an instance-level ``_search``
        wrapper (metrics observers, test spies) must stay in the loop.
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
        if max_steps < 0:
            return batch(us, vs)
        return batch(us, vs, max_steps)

    # -- native search kernels ---------------------------------------------
    def set_kernel(self, kernel: str | None) -> str:
        """Select the search-kernel backend for this index.

        ``kernel`` is ``None``/``"auto"`` (strongest available tier,
        honouring the ``REPRO_KERNEL`` environment variable),
        ``"c"``, ``"numpy"`` or ``"python"``; unknown or unavailable
        backends raise immediately.  When the index is already built the
        kernel is rebound at once, otherwise :meth:`build` binds it.
        Returns the resolved backend name (families without a native
        path resolve the request but always report ``"python"``).
        """
        from repro.perf import kernels

        self._kernel_choice = kernel
        if self._built:
            self._bind_kernel()
            self._bind_classify()
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

    def _bind_classify(self) -> None:
        """Bind the batch engine's compiled cut pass over the current
        cut table and observer layer
        (:func:`repro.perf.kernels.bind_classify`).

        Called wherever either changes or the kernel is rebound:
        :meth:`build`, :meth:`set_kernel`, :meth:`attach_observers`,
        persistence loading and :meth:`_rematerialize_after_swap`.
        """
        from repro.perf import kernels

        self._classify = kernels.bind_classify(self)

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
        self._bind_classify()
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
        """Swap in a layer built over the arena's views, so the scalar
        :meth:`~repro.perf.observers.ObserverLayer.decide` (its
        memoryviews and bit-row ints are made from the arrays it is
        built over) reads the shared pages like the batch paths do."""
        observers = self._observers
        if observers is None:
            return
        from repro.perf.observers import ObserverLayer

        self._shared_originals["observers"] = observers
        self._observers = ObserverLayer(
            **{attr: pages.view(f"obs.{attr}") for attr in _OBSERVER_ARRAYS}
        )

    def _restore_observer_arrays(self) -> None:
        """Put the original layer back; the adopted one, and with it
        every view of the arena it held, is dropped."""
        original = (self._shared_originals or {}).get("observers")
        if original is not None:
            self._observers = original

    def _restore_shared_arrays(self) -> None:
        """Hook: undo :meth:`_adopt_shared_arrays`."""
        originals = self._shared_originals or {}
        csr = originals.get("csr")
        if csr is not None:
            self.graph.adopt_csr(csr)
        self._restore_observer_arrays()

    def _rematerialize_after_swap(self) -> None:
        """Rebuild the views-derived machinery after an array swap."""
        self._materialize_cut_table()
        self._bind_kernel()
        self._bind_classify()

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

        The answer comes from the same chain as :meth:`query`
        (:meth:`_answer`), which names the step that decided: ``equal``,
        an ``observer-*`` cut, the cut table's
        :meth:`~repro.perf.cut_table.CutTable.classify_one` name, or
        ``search``.  Index families attach the structures they consulted
        through :meth:`_explain_details`.

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
        expanded, pruned = stats.expanded, stats.pruned
        explanation = QueryExplanation(
            method=self.method_name, u=u, v=v, verdict=None, cut="search"
        )
        start = now_ns()
        explanation.verdict = self._answer(u, v, budget, explanation)
        explanation.elapsed_ns = elapsed_ns(start)
        explanation.expanded = stats.expanded - expanded
        explanation.pruned = stats.pruned - pruned
        if explanation.cut.startswith("observer-"):
            explanation.details["observers(k)"] = self._observers.k
        self._explain_details(u, v, explanation)
        return explanation

    def _explain_details(
        self, u: int, v: int, explanation: QueryExplanation
    ) -> None:
        """Hook: enrich an explanation with index internals.

        Called once per :meth:`explain` after the chain has set
        ``explanation.cut``; subclasses add the structures they
        consulted to ``explanation.details``.  The default adds nothing.
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

    def __repr__(self) -> str:
        state = "built" if self._built else "unbuilt"
        return f"<{type(self).__name__} {state} on {self.graph!r}>"


class RankSearchIndex(ReachabilityIndex):
    """A family whose cuts are a :class:`~repro.perf.cut_table.RankCuts`
    table and whose survivors run that table's pruned DFS.

    FELINE, FELINE-B, FELINE-K and GRAIL search this way: on the C tier
    through the kernel :func:`~repro.perf.kernels.bind_rank_search`
    arms, else on :meth:`~repro.perf.cut_table.RankCuts.search`, over
    :attr:`adjacency` when the family sorts one by its table's key row.
    """

    #: The :class:`~repro.core.index.XSortedAdjacency` the search walks
    #: (``None``: the graph's out-CSR).
    adjacency = None

    def __init__(self, graph: DiGraph) -> None:
        super().__init__(graph)
        # Timestamped visited marks, shared by every tier:
        # _visited[w] == _stamp ⇔ w seen in the current search.
        self._visited = array("l", [0] * graph.num_vertices)
        self._stamp = 0

    def _search_pair(self, u: int, v: int) -> bool:
        return self._search(u, v)

    def _search(self, u: int, v: int) -> bool:
        """One pruned DFS from ``u`` towards ``v`` on the bound tier
        (every tier is bit-identical in answers, stats and budget
        semantics; the active guard steps once per expanded vertex)."""
        kernel = self._kernel
        if kernel is not None:
            return kernel.search(u, v)
        return self._cut_table.search(self, u, v, self.adjacency)

    def _bind_kernel(self) -> None:
        from repro.perf import kernels

        kernels.bind_rank_search(self, self.adjacency)


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
