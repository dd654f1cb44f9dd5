"""The generic vectorized batch pass over a :class:`CutTable`.

One call classifies every pair of a batch through the index family's O(1)
cuts — reflexive, observer (when an
:class:`~repro.perf.observers.ObserverLayer` is attached), negative,
positive — with numpy, updates the
:class:`~repro.baselines.base.QueryStats` counters exactly as the scalar
loop would, and runs the per-pair online search only for the survivors
(in process, or partitioned across a :class:`repro.perf.pool.SearchPool`
when one is attached to the index).

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
the scalar path: each survivor search runs under a fresh guard, in
process (pool workers never carry guards), with representatives visited
in first-occurrence order so a ``"raise"`` policy raises for the
lowest-position exhausted pair.  The index's ``_degrade`` runs once per
exhausted *occurrence*, so the degradation counters and metrics match
the scalar loop too; ``UNKNOWN`` answers land at their positions.  An
attached :class:`~repro.obs.slowlog.SlowQueryLog` is offered every pair:
survivors with their own search time, cut-decided pairs with their share
of the cut pass.

:func:`as_pair_array` is the batch boundary in front of this pass: the
facade, :meth:`~repro.baselines.base.ReachabilityIndex.query_many` and
the shard tier turn each batch into one validated ``(n, 2)`` int64
array with it, so no per-pair Python loop runs between the caller and
the cuts.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from contextlib import nullcontext
from itertools import chain

import numpy as np

from repro.exceptions import InvalidVertexError, QueryBudgetExceeded
from repro.obs.metrics import get_registry
from repro.obs.spans import current_span, get_tracer
from repro.obs.timing import elapsed_ns, now_ns
from repro.resilience.budget import UNKNOWN

__all__ = ["as_pair_array", "vectorized_query_many"]


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
    """
    if isinstance(pairs, np.ndarray):
        return _ndarray_pairs(pairs, num_vertices)
    if not isinstance(pairs, Sequence):
        pairs = list(pairs)
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
    ``0 .. num_vertices - 1`` in pair order."""
    bad = arr >= num_vertices
    if arr.dtype.kind == "i":
        bad |= arr < 0
    if bad.any():
        vertex = arr.reshape(-1)[np.argmax(bad.reshape(-1))]
        raise InvalidVertexError(int(vertex), num_vertices)


def _dedup(index, sources, targets, survivors):
    """Collapse duplicated survivor pairs.

    Returns ``(first, inverse, counts)`` from :func:`numpy.unique` over
    the survivors' ``(u, v)`` keys: ``survivors[first]`` are the
    representatives, ``inverse`` maps each survivor to its
    representative, ``counts`` are the multiplicities.
    """
    n = max(index.graph.num_vertices, 1)
    keys = sources[survivors] * np.int64(n) + targets[survivors]
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return first, inverse, counts


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
        stats = index.stats
        # One native call for the whole deduplicated sweep when the
        # index carries a batch-capable kernel (stats deltas come back
        # per pair so the multiplicity weighting below still applies).
        batch = index._search_pairs_batch(sources[reps], targets[reps])
        if batch is not None:
            rep_answers, expanded, pruned = batch
            stats.expanded += int(expanded @ counts)
            stats.pruned += int(pruned @ counts)
            answers[survivors] = rep_answers[inverse]
            return
        search = index._search_pair
        rep_answers = np.empty(len(reps), dtype=bool)
        for j, i in enumerate(reps):
            weight = int(counts[j])
            if weight == 1:
                rep_answers[j] = search(int(sources[i]), int(targets[i]))
                continue
            expanded, pruned = stats.expanded, stats.pruned
            rep_answers[j] = search(int(sources[i]), int(targets[i]))
            stats.expanded += (stats.expanded - expanded) * (weight - 1)
            stats.pruned += (stats.pruned - pruned) * (weight - 1)
    answers[survivors] = rep_answers[inverse]


def _search_guarded(
    index, sources, targets, survivors, answers, budget, slow
) -> list[int]:
    """:func:`_search_survivors` with a per-search budget and slow log.

    Runs in process (pool workers never carry guards), one search per
    representative in first-occurrence order — the scalar loop's order,
    so a ``"raise"`` policy raises for the lowest-position exhausted
    pair.  Each search gets a fresh guard from ``budget`` (when given);
    an exhausted one goes through ``index._degrade`` once per
    occurrence.  Each occurrence is offered to ``slow`` (when given)
    with the time of one search plus one degrade.  Returns the
    positions whose answer is ``UNKNOWN``.
    """
    first, inverse, counts = _dedup(index, sources, targets, survivors)
    reps = survivors[first]
    stats = index.stats
    search = index._search_pair
    method = index.method_name
    span = current_span() if slow is not None else None
    trace_id = span.trace_id if span is not None else None
    rep_us, rep_vs = sources[reps].tolist(), targets[reps].tolist()
    weights = counts.tolist()
    rep_answers = np.zeros(len(reps), dtype=bool)
    unknown = np.zeros(len(reps), dtype=bool)
    for j in np.argsort(first).tolist():
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
            unknown[j] = True
        else:
            rep_answers[j] = answer
    answers[survivors] = rep_answers[inverse]
    if not unknown.any():
        return []
    return survivors[unknown[inverse]].tolist()


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

    An empty batch returns ``[]`` immediately — no masks are built and
    neither the observers nor the pool are touched.
    """
    num = len(pairs)
    if num == 0:
        return []
    slow = index._slow_log
    start = now_ns() if slow is not None else 0
    table = index._cut_table
    stats = index.stats
    tracer = get_tracer()
    traced = tracer.enabled

    pairs_arr = np.asarray(pairs, dtype=np.int64)
    sources, targets = pairs_arr[:, 0], pairs_arr[:, 1]
    equal = sources == targets

    stats.queries += num
    stats.equal_cuts += int(equal.sum())

    # Observer pre-pass: decided pairs never reach the family's cuts,
    # the order of the scalar chain (ReachabilityIndex._answer).
    observers = index._observers
    obs_positive = None
    if observers is not None:
        if traced:
            with tracer.span("engine.observer", size=num):
                obs_positive, obs_negative = observers.classify(
                    sources, targets
                )
        else:
            obs_positive, obs_negative = observers.classify(sources, targets)
        obs_positive &= ~equal
        obs_negative &= ~equal
        hits_positive = int(obs_positive.sum())
        hits_negative = int(obs_negative.sum())
        stats.observer_positive += hits_positive
        stats.observer_negative += hits_negative
        decided = equal | obs_positive | obs_negative
    else:
        decided = equal

    if traced:
        with tracer.span("engine.cut", size=num):
            positive, negative = table.classify(sources, targets)
    else:
        positive, negative = table.classify(sources, targets)
    positive = positive & ~decided
    negative = negative & ~decided
    undecided = ~(decided | positive | negative)
    if table.counts_cuts:
        stats.negative_cuts += int(negative.sum())
        stats.positive_cuts += int(positive.sum())

    answers = equal | positive
    if obs_positive is not None:
        answers |= obs_positive
    survivors = np.flatnonzero(undecided)
    stats.searches += len(survivors)
    if slow is not None:
        # Each cut-decided pair is offered at its share of the cut pass.
        decided = ~undecided
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
            if traced
            else nullcontext()
        ):
            if budget is None and slow is None:
                _search_survivors(index, sources, targets, survivors, answers)
            else:
                unknown = _search_guarded(
                    index, sources, targets, survivors, answers, budget, slow
                )
    if observers is not None:
        _observe_layer(
            index, hits_positive, hits_negative, num, len(survivors)
        )
    result = answers.tolist()
    for position in unknown:
        result[position] = UNKNOWN
    return result
