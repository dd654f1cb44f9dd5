"""The generic vectorized batch pass over a :class:`CutTable`.

One call classifies every pair of a batch through the index family's O(1)
cuts — reflexive, observer (when an
:class:`~repro.perf.observers.ObserverLayer` is attached), negative,
positive — into one code per pair (:func:`classify_codes`), updates the
:class:`~repro.baselines.base.QueryStats` counters exactly as the scalar
loop would, and runs the per-pair online search only for the survivors
(in process, or partitioned across a :class:`repro.perf.pool.SearchPool`
when one is attached to the index).

The codes come from one compiled call where the index binds one
(:class:`~repro.perf.kernels.CClassify`: the ``c`` tier with a
:class:`~repro.perf.cut_table.RankCuts` or search-only table), and
otherwise from the observer layer's and the table's ``classify`` masks
(:func:`mask_codes`, the reference route).  Both give the same codes.

This is the implementation behind
:meth:`~repro.baselines.base.ReachabilityIndex.query_many` for every
index — an index without cuts of its own has a
:class:`~repro.perf.cut_table.SearchOnlyCutTable` — and it is the only
batch route: budgets and the slow log ride on it too.  The scalar
``query`` runs the same steps for one pair
(:meth:`~repro.baselines.base.ReachabilityIndex._answer`, through the
table's ``classify_one``).  Answers are bit-identical to the scalar path; the
win is constant-factor (no Python interpreter work for the cut
majority), typically 3-10x on cut-dominated workloads.

Duplicate pairs in a batch are searched once: survivors are deduplicated
before dispatch and each representative's answer is fanned back out.
The scalar loop *would* repeat those searches, so to keep the stats
contract bit-identical the representative's ``expanded``/``pruned``
deltas are scaled by the pair's multiplicity (searches are deterministic
— the timestamped visited arrays make a repeat expand identically).
``searches`` itself still counts every survivor occurrence, like the
scalar loop.

A :class:`~repro.resilience.budget.QueryBudget` applies per pair, as on
the scalar path, in process (pool workers never carry guards).  A step
budget (no deadline, no slow log) rides the one-call native sweep: each
search stops where its guard would have raised, and only the exhausted
pairs come back to Python.  A deadline or a slow log keeps the per-pair
loop, each survivor search under a fresh guard.  Either way exhausted
pairs are degraded in first-occurrence order, so a ``"raise"`` policy
raises for the lowest-position exhausted pair, and the index's
``_degrade`` runs once per exhausted *occurrence*, so the degradation
counters and metrics match the scalar loop too; ``UNKNOWN`` answers land
at their positions.  An attached :class:`~repro.obs.slowlog.SlowQueryLog`
is offered every pair: survivors with their own search time, cut-decided
pairs with their share of the cut pass.

:func:`as_pair_array` is the batch boundary in front of this pass: the
facade, :meth:`~repro.baselines.base.ReachabilityIndex.query_many` and
the shard tier turn each batch into one validated ``(n, 2)`` int64
array with it, so no per-pair Python loop runs between the caller and
the cuts.  Where the list edge ``_edge.c`` builds
(:func:`repro.perf.kernels.edge_library`), a list batch is flattened,
and the answer list built, in one compiled call each.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from contextlib import nullcontext
from itertools import chain
from time import perf_counter

import numpy as np

from repro.exceptions import InvalidVertexError, QueryBudgetExceeded
from repro.obs.metrics import get_registry
from repro.obs.spans import current_span, get_tracer
from repro.obs.timing import elapsed_ns, now_ns
from repro.perf.kernels import _ref, edge_library
from repro.resilience.budget import UNKNOWN

__all__ = ["as_pair_array", "classify_codes", "mask_codes",
           "vectorized_query_many"]

#: How a batch pair was decided, one ``uint8`` per pair (``classify_batch``
#: in ``_search.c`` writes the same numbers).
EQUAL, OBSERVER_POSITIVE, OBSERVER_NEGATIVE, CUT_POSITIVE, CUT_NEGATIVE, \
    SURVIVOR = range(6)

#: The answer each code gives; a survivor's is its search's.
ANSWERS = np.array([True, True, False, True, False, False])


def _checked_pairs(pairs, num_vertices: int) -> array:
    """The per-pair validation loop: flat ``array("q")`` or the error.

    Raises exactly what unpacking and range-checking each pair in order
    raises: ``ValueError`` for a row that is not a pair, ``TypeError``
    for a non-integer vertex, :class:`InvalidVertexError` for the first
    id outside ``0 .. n-1`` (``u`` before ``v``).
    """
    flat = array("q")
    for u, v in pairs:
        if not 0 <= u < num_vertices:
            raise InvalidVertexError(u, num_vertices)
        if not 0 <= v < num_vertices:
            raise InvalidVertexError(v, num_vertices)
        flat.append(u)
        flat.append(v)
    return flat


def as_pair_array(pairs, num_vertices: int) -> np.ndarray:
    """Validate a batch of ``(u, v)`` pairs into an ``(n, 2)`` int64 array.

    ``pairs`` is a sequence or any iterable of integer pairs, or an
    ``(n, 2)`` ndarray of a signed or unsigned integer dtype.  An int64
    array passes through without a copy.  Every id must lie in
    ``0 .. num_vertices - 1``; the first one that does not, in pair
    order (``u`` before ``v``), raises :class:`InvalidVertexError`
    carrying its exact value.  Other malformed input raises what
    unpacking the pairs one by one raises:

    * ``TypeError`` — a vertex that is not an integer (``1.5``, ``"1"``,
      ``None``); an ndarray of float, bool or object dtype; a 0-d or
      1-D ndarray;
    * ``ValueError`` — a row that is not a pair (``(1, 2, 3)``,
      ``(1,)``); an ndarray of more than two dimensions or whose rows
      are not pairs.

    An empty batch, in any form, gives an empty ``(0, 2)`` array.

    A list or tuple whose rows are tuples or lists of two plain ``int``
    ids in range is flattened in one compiled call where ``_edge.c``
    loads (:func:`repro.perf.kernels.edge_library`).  Any other batch,
    and any batch that call declines, takes the python route
    (:func:`_python_pairs`), which raises every error above.
    """
    if isinstance(pairs, np.ndarray):
        return _ndarray_pairs(pairs, num_vertices)
    if not isinstance(pairs, Sequence):
        pairs = list(pairs)
    edge = edge_library()
    if edge is not None:
        m = len(pairs)
        arr = np.empty((m, 2), dtype=np.int64)
        if edge.flatten_pairs(pairs, m, num_vertices, _ref(arr)) < 0:
            return arr
    return _python_pairs(pairs, num_vertices)


def _python_pairs(pairs: Sequence, num_vertices: int) -> np.ndarray:
    """:func:`as_pair_array` for a sequence, in python: the reference
    route, and the one that raises."""
    try:
        # array("q") rejects non-integers and int64 overflow; rows all
        # at least two long plus a flat length of 2n means every row is
        # a pair.
        flat = array("q", list(chain.from_iterable(pairs)))
        if len(flat) != 2 * len(pairs) or min(map(len, pairs)) != 2:
            raise ValueError("not a batch of pairs")
    except (TypeError, ValueError, OverflowError):
        # Re-run the per-pair loop for the exact error (or for rows it
        # still accepts, such as length-less iterables of two ids).
        flat = _checked_pairs(pairs, num_vertices)
    arr = np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)
    _check_range(arr, num_vertices)
    return arr


def _ndarray_pairs(arr: np.ndarray, num_vertices: int) -> np.ndarray:
    """:func:`as_pair_array` for an ndarray batch."""
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim < 2:
        raise TypeError(
            f"a batch of pairs needs rows of (u, v), got a {arr.ndim}-d array"
        )
    if arr.ndim > 2 or arr.shape[1] != 2:
        raise ValueError(
            f"a batch of pairs is an (n, 2) array, got shape {arr.shape}"
        )
    if arr.dtype.kind not in "iu":
        raise TypeError(
            f"vertex ids must be integers, got an array of dtype {arr.dtype}"
        )
    # Range-check in the widest type of the same kind, so a uint64 id
    # past the int64 range is reported with its real value.
    if arr.dtype.kind == "u":
        _check_range(arr.astype(np.uint64, copy=False), num_vertices)
        return arr.astype(np.int64)
    arr = arr.astype(np.int64, copy=False)
    _check_range(arr, num_vertices)
    return arr


def _check_range(arr: np.ndarray, num_vertices: int) -> None:
    """Raise :class:`InvalidVertexError` for the first id outside
    ``0 .. num_vertices - 1`` in pair order.

    Two reductions test the batch; the bad id is looked for only when
    one exists.
    """
    if arr.size == 0 or (
        arr.max() < num_vertices and (arr.dtype.kind == "u" or arr.min() >= 0)
    ):
        return
    bad = arr >= num_vertices
    if arr.dtype.kind == "i":
        bad |= arr < 0
    vertex = arr.reshape(-1)[np.argmax(bad.reshape(-1))]
    raise InvalidVertexError(int(vertex), num_vertices)


def _dedup(index, sources, targets, survivors):
    """Collapse duplicated survivor pairs.

    Returns ``(first, inverse, counts)`` over the survivors' ``(u, v)``
    keys, as :func:`numpy.unique` would (representatives in key order):
    ``survivors[first]`` are the representatives, each a key's first
    occurrence, ``inverse`` maps each survivor to its representative,
    ``counts`` are the multiplicities.  A stable sort and an
    adjacent-difference flag do it for a fraction of ``np.unique``'s
    fixed cost.
    """
    n = max(index.graph.num_vertices, 1)
    keys = sources[survivors] * np.int64(n) + targets[survivors]
    m = len(keys)
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    # starts[i]: sorted key i opens a run; starts[m] closes the last.
    starts = np.empty(m + 1, dtype=bool)
    starts[0] = starts[m] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:m])
    bounds = starts.nonzero()[0]
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = starts[:m].cumsum() - 1
    return order[bounds[:-1]], inverse, bounds[1:] - bounds[:-1]


def _search_survivors(index, sources, targets, survivors, answers) -> None:
    """Answer the undecided positions in place, deduplicated.

    ``survivors`` is the array of undecided batch positions; duplicated
    ``(u, v)`` pairs collapse to one search whose stats deltas are
    weighted by the multiplicity (see module doc).
    """
    first, inverse, counts = _dedup(index, sources, targets, survivors)
    reps = survivors[first]
    pool = index._search_pool
    if pool is not None and len(survivors) >= pool.min_batch:
        rep_answers = pool.run(index, sources, targets, reps, weights=counts)
    else:
        rep_us, rep_vs = sources[reps], targets[reps]
        # One native call for the whole deduplicated sweep when the
        # index carries a batch-capable kernel (stats deltas come back
        # per pair, weighted by multiplicity; unbudgeted codes are 0 or
        # 1), else the unguarded per-pair loop in key order.
        batch = index._search_pairs_batch(rep_us, rep_vs)
        if batch is not None:
            codes, expanded, pruned = batch
            index.stats.expanded += int(expanded @ counts)
            index.stats.pruned += int(pruned @ counts)
            rep_answers = codes == 1
        else:
            rep_answers, _ = _guarded_loop(
                index, rep_us.tolist(), rep_vs.tolist(), counts.tolist(),
                range(len(reps)), None, None,
            )
    answers[survivors] = rep_answers[inverse]


def _search_guarded(
    index, sources, targets, survivors, answers, budget, slow
) -> list[int]:
    """:func:`_search_survivors` with a per-search budget and slow log.

    A step budget with no deadline and no ``slow`` log sweeps the
    representatives in one native call where the index has a batch
    kernel (:func:`_sweep_steps`).  Otherwise each search runs in
    process (pool workers never carry guards) under a fresh guard from
    ``budget`` (when given), one per representative in first-occurrence
    order (:func:`_guarded_loop`).  Either way exhausted searches are
    degraded in first-occurrence order — the scalar loop's, so a
    ``"raise"`` policy raises for the lowest-position exhausted pair —
    through ``index._degrade``, once per occurrence.  Returns the
    positions whose answer is ``UNKNOWN``.
    """
    first, inverse, counts = _dedup(index, sources, targets, survivors)
    reps = survivors[first]
    rep_us, rep_vs = sources[reps], targets[reps]
    result = None
    if slow is None and budget.deadline_s is None:
        result = _sweep_steps(index, rep_us, rep_vs, first, counts, budget)
    if result is None:
        result = _guarded_loop(
            index, rep_us.tolist(), rep_vs.tolist(), counts.tolist(),
            np.argsort(first).tolist(), budget, slow,
        )
    found, unknown = result
    answers[survivors] = found[inverse]
    if not unknown:
        return []
    unanswered = np.zeros(len(reps), dtype=bool)
    unanswered[unknown] = True
    return survivors[unanswered[inverse]].tolist()


def _sweep_steps(index, rep_us, rep_vs, first, counts, budget):
    """The step-budgeted representatives in one native sweep.

    ``index._search_pairs_batch`` searches each pair under
    ``budget.max_steps``; ``expanded``/``pruned`` fold in weighted by
    ``counts``, and only the exhausted pairs (code 2) go through
    ``index._degrade``, in first-occurrence order (``first``) and once
    per occurrence, with the :class:`QueryBudgetExceeded` a guard raises
    at step ``max_steps + 1``.  Under ``"raise"`` the stats are the
    guarded loop's at its raise: the pairs first seen earlier weighted,
    the first exhausted search once, one degrade.  Returns ``(found,
    unknown)`` as :func:`_guarded_loop` does, or ``None`` (nothing
    touched) when the index has no batch kernel.
    """
    max_steps = budget.max_steps
    start = perf_counter()
    batch = index._search_pairs_batch(rep_us, rep_vs, max_steps)
    if batch is None:
        return None
    codes, expanded, pruned = batch
    elapsed = perf_counter() - start
    found = codes == 1
    exhausted = np.flatnonzero(codes == 2)
    weights = counts
    if len(exhausted):
        exhausted = exhausted[np.argsort(first[exhausted])]
        if budget.policy == "raise":
            head = exhausted[0]
            weights = np.where(first < first[head], counts, 0)
            weights[head] = 1
    stats = index.stats
    stats.expanded += int(expanded @ weights)
    stats.pruned += int(pruned @ weights)
    unknown = []
    for j in exhausted.tolist():
        u, v = int(rep_us[j]), int(rep_vs[j])
        exc = QueryBudgetExceeded(
            f"query exceeded its step budget of {max_steps}",
            resource="steps",
            steps=max_steps + 1,
            elapsed_s=elapsed,
        )
        answer, outcome = index._degrade(u, v, budget, exc)
        if outcome == "raised":
            raise exc
        for _ in range(int(counts[j]) - 1):
            index._degrade(u, v, budget, exc)
        if answer is UNKNOWN:
            unknown.append(j)
        else:
            found[j] = answer
    return found, unknown


def _guarded_loop(index, rep_us, rep_vs, weights, order, budget, slow):
    """The per-pair survivor loop (:func:`_search_survivors`' without a
    batch kernel, :func:`_search_guarded`'s) over the representatives
    in ``order``, each search under a fresh guard from ``budget`` (when
    given) and each occurrence offered to ``slow`` (when given) with
    the time of one search plus one degrade.  Returns ``(found,
    unknown)``: the boolean answers, and the representatives whose
    answer is ``UNKNOWN``."""
    stats = index.stats
    search = index._search_pair
    method = index.method_name
    span = current_span() if slow is not None else None
    trace_id = span.trace_id if span is not None else None
    found = np.zeros(len(rep_us), dtype=bool)
    unknown = []
    for j in order:
        u, v, weight = rep_us[j], rep_vs[j], weights[j]
        expanded, pruned = stats.expanded, stats.pruned
        start = now_ns() if slow is not None else 0
        exhausted = None
        if budget is not None:
            index._set_guard(budget.new_guard())
        try:
            answer = search(u, v)
        except QueryBudgetExceeded as exc:
            exhausted = exc
        finally:
            if budget is not None:
                index._set_guard(None)
        if exhausted is not None:
            answer, outcome = index._degrade(u, v, budget, exhausted)
            if outcome == "raised":
                raise exhausted
        duration = elapsed_ns(start) if slow is not None else 0
        if weight > 1:
            stats.expanded += (stats.expanded - expanded) * (weight - 1)
            stats.pruned += (stats.pruned - pruned) * (weight - 1)
            if exhausted is not None:
                for _ in range(weight - 1):
                    index._degrade(u, v, budget, exhausted)
        if slow is not None:
            for _ in range(weight):
                slow.record(u, v, answer, duration, method, trace_id=trace_id)
        if answer is UNKNOWN:
            unknown.append(j)
        else:
            found[j] = answer
    return found, unknown


def mask_codes(index, sources, targets):
    """The codes of :func:`classify_codes` from the observer layer's
    and the cut table's ``classify`` masks: the reference route, and
    the only one where no compiled pass is bound.

    Each layer's masks are disjoint; a pair takes the code of the first
    step of the scalar chain that decides it (reflexive, observers,
    table).  Traced as ``engine.observer`` and ``engine.cut`` spans.
    """
    tracer = get_tracer()
    traced = tracer.enabled
    num = len(sources)
    observers = index._observers
    if observers is not None:
        with (
            tracer.span("engine.observer", size=num)
            if traced
            else nullcontext()
        ):
            obs_positive, obs_negative = observers.classify(sources, targets)
    with tracer.span("engine.cut", size=num) if traced else nullcontext():
        positive, negative = index._cut_table.classify(sources, targets)
    codes = np.full(num, SURVIVOR, dtype=np.uint8)
    codes[negative] = CUT_NEGATIVE
    codes[positive] = CUT_POSITIVE
    if observers is not None:
        codes[obs_negative] = OBSERVER_NEGATIVE
        codes[obs_positive] = OBSERVER_POSITIVE
    codes[sources == targets] = EQUAL
    return codes, np.bincount(codes, minlength=SURVIVOR + 1).tolist()


def classify_codes(index, sources, targets):
    """Classify a batch: ``(codes, counts)``.

    ``codes[i]`` says how pair ``(sources[i], targets[i])`` is decided
    (:data:`EQUAL`, :data:`OBSERVER_POSITIVE`, :data:`OBSERVER_NEGATIVE`,
    :data:`CUT_POSITIVE`, :data:`CUT_NEGATIVE`, or :data:`SURVIVOR` for
    a pair that needs a search) and ``counts[c]`` how many pairs have
    code ``c``.  One compiled call where the index binds one (traced as
    one ``engine.cut`` span covering observers and rows), else
    :func:`mask_codes`.  Nothing is counted into the stats here.
    """
    compiled = index._classify
    if compiled is None:
        return mask_codes(index, sources, targets)
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("engine.cut", size=len(sources)):
            return compiled(sources, targets)
    return compiled(sources, targets)


def _observe_layer(index, hits_positive, hits_negative, num, survivors):
    """Observer-layer metrics: hit counters and the survivor-rate gauge.

    No-op when the global registry is the zero-cost default.
    """
    registry = get_registry()
    if not registry.enabled:
        return
    method = index.method_name
    if hits_positive:
        registry.counter(
            "repro_observer_hits_total",
            help="Batch pairs decided by the observer layer, by kind.",
            method=method,
            kind="positive",
        ).inc(hits_positive)
    if hits_negative:
        registry.counter(
            "repro_observer_hits_total",
            help="Batch pairs decided by the observer layer, by kind.",
            method=method,
            kind="negative",
        ).inc(hits_negative)
    registry.gauge(
        "repro_observer_survivor_rate",
        help="Fraction of the last batch no O(1) cut decided "
        "(observers included).",
        method=method,
    ).set(survivors / num)


def vectorized_query_many(
    index, pairs: np.ndarray | Sequence[tuple[int, int]], budget=None
) -> list:
    """Answer ``pairs`` on ``index`` through its cut table.

    ``index`` must be built and carry a materialized ``_cut_table``.
    ``pairs`` is normally the validated ``(n, 2)`` int64 array from
    :func:`as_pair_array`, used as-is; a list of in-range pairs is
    converted with :func:`numpy.asarray`.  Nothing is validated here —
    :meth:`~repro.baselines.base.ReachabilityIndex.query_many` does that.
    Returns a plain list aligned with ``pairs`` (the base-class
    contract): booleans, plus :data:`~repro.resilience.budget.UNKNOWN`
    where a ``budget`` degraded a survivor search.  Statistics counters
    update identically to the scalar loop: ``queries``, ``equal_cuts``,
    ``observer_positive`` / ``observer_negative`` (when an observer layer
    is attached), ``negative_cuts``, ``positive_cuts``, ``searches``
    here; per-search ``expanded`` / ``pruned`` inside the survivor
    searches (merged back from worker processes when a pool runs them);
    ``budget_exhausted`` / ``fallbacks`` / ``unknowns`` in the index's
    ``_degrade``.

    An empty batch returns ``[]`` immediately — no codes are built and
    neither the observers nor the pool are touched.
    """
    num = len(pairs)
    if num == 0:
        return []
    slow = index._slow_log
    start = now_ns() if slow is not None else 0
    stats = index.stats
    tracer = get_tracer()

    # One contiguous row per side: the compiled pass reads them as is.
    sources, targets = np.asarray(pairs, dtype=np.int64).T.copy()
    codes, counts = classify_codes(index, sources, targets)
    equal, obs_positive, obs_negative, positive, negative, searches = counts

    stats.queries += num
    stats.equal_cuts += equal
    stats.observer_positive += obs_positive
    stats.observer_negative += obs_negative
    if index._cut_table.counts_cuts:
        stats.negative_cuts += negative
        stats.positive_cuts += positive
    stats.searches += searches

    answers = ANSWERS[codes]
    survivors = np.flatnonzero(codes == SURVIVOR)
    if slow is not None:
        # Each cut-decided pair is offered at its share of the cut pass.
        decided = codes != SURVIVOR
        span = current_span()
        slow.record_many(
            sources[decided], targets[decided], answers[decided],
            elapsed_ns(start) // num, index.method_name,
            trace_id=span.trace_id if span is not None else None,
        )
    unknown = []
    if len(survivors):
        with (
            tracer.span("engine.search", survivors=len(survivors))
            if tracer.enabled
            else nullcontext()
        ):
            if budget is None and slow is None:
                _search_survivors(index, sources, targets, survivors, answers)
            else:
                unknown = _search_guarded(
                    index, sources, targets, survivors, answers, budget, slow
                )
    if index._observers is not None:
        _observe_layer(index, obs_positive, obs_negative, num, searches)
    edge = edge_library()
    if edge is None:
        result = answers.tolist()
    else:
        result = edge.answer_list(_ref(answers), num)
    for position in unknown:
        result[position] = UNKNOWN
    return result
