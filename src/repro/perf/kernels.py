"""CSR-native search kernels for the survivor path.

After the O(1) cuts (FELINE's coordinates, the observer layer, the
vectorized cut tables) have decided the easy majority of a workload, the
queries that remain — the *survivors* — each run an online search whose
inner loop used to be pure Python.  This module makes that loop run at
hardware speed over the flat CSR arrays exported once per graph by
:meth:`repro.graph.digraph.DiGraph.csr`, with a three-tier backend:

* ``numba`` — ``@njit``-compiled kernels, used when the *optional*
  ``numba`` dependency is installed (it is never required);
* ``numpy`` — a vectorized frontier/neighbour-slice expansion that needs
  nothing beyond the library's existing numpy dependency;
* ``python`` — the reference loops (:class:`FelineSearch` for the
  FELINE family), the always-correct last resort (and an explicit
  choice for debugging).

Selection is automatic (``numba`` when importable, else ``numpy``),
overridable per index via ``Reachability(kernel=...)`` /
``index.set_kernel(...)`` / the CLI ``--kernel`` flag, and globally via
the ``REPRO_KERNEL`` environment variable.  ``REPRO_NO_NUMBA=1`` hides
an installed numba (the CI no-numba leg).

**The bit-identity contract.**  Every backend returns the same answers
*and* the same :class:`~repro.baselines.base.QueryStats`
``expanded``/``pruned`` counts as the pure-Python loops, including under
a :class:`~repro.resilience.budget.QueryBudget`: step budgets are
enforced inside the kernel (the compiled loop counts expanded vertices
and bails at exactly the vertex where ``SearchGuard.step`` would have
raised), and the wrapper re-raises the identical
:class:`~repro.exceptions.QueryBudgetExceeded`.  Wall-clock deadlines
cannot be checked bit-identically from inside a compiled loop, so
deadline-carrying guards route to the pure-Python loop — slower, never
wrong.  The property suite (``tests/property/test_kernel_equivalence``)
asserts the contract for every registered family.

The FELINE pruned DFS walks the index's X-sorted adjacency
(:class:`~repro.core.index.XSortedAdjacency`): one bisect per expanded
vertex finds ``cut``, the first child whose ``X`` exceeds ``X[v]``, and
only ``[lo, cut)`` is scanned.  ``pruned`` therefore counts child edges
cut per expansion: the whole suffix ``hi - cut`` of every expanded
vertex, plus each first-seen child of the prefix that fails a
``Y``/reversed/level bound.

The numpy tier keeps the Python traversal *order* (LIFO stack, slice
order, first-occurrence dedup) and vectorizes only the per-vertex
neighbour-slice processing — and only for bisected slices of at least
:data:`VECTOR_MIN_DEGREE` children, so low-degree graphs never pay numpy
call overhead and the tier is no slower than pure Python anywhere.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from time import perf_counter
from weakref import WeakKeyDictionary

import numpy as np

from repro.exceptions import QueryBudgetExceeded, ReproError

__all__ = [
    "KERNEL_BACKENDS",
    "available_backends",
    "numba_available",
    "numba_version",
    "resolve_backend",
    "FelineSearch",
    "bind_feline_search",
    "bibfs_kernel_for",
    "bounded_search",
    "describe_backend",
    "VECTOR_MIN_DEGREE",
]

#: The selectable backends, strongest first (``auto`` picks the first
#: available one).
KERNEL_BACKENDS = ("numba", "numpy", "python")

#: Neighbour-slice / frontier length below which the numpy tier stays on
#: the scalar loop: numpy's per-call overhead beats vectorization gains
#: for short slices, and the scalar path is shared with the python tier
#: so short-degree traversal costs are identical.
VECTOR_MIN_DEGREE = 32

_EMPTY_I64 = np.empty(0, dtype=np.int64)

# ---------------------------------------------------------------------------
# backend discovery and selection
# ---------------------------------------------------------------------------

_NUMBA_VERSION: str | None = None
_numba_checked = False


def numba_available() -> bool:
    """Whether the optional numba dependency can be imported.

    Checked once per process; ``REPRO_NO_NUMBA`` (any non-empty value)
    hides an installed numba so the fallback tiers can be exercised.
    """
    global _numba_checked, _NUMBA_VERSION
    if not _numba_checked:
        _numba_checked = True
        if os.environ.get("REPRO_NO_NUMBA"):
            _NUMBA_VERSION = None
        else:
            try:
                import numba
            except Exception:
                _NUMBA_VERSION = None
            else:
                _NUMBA_VERSION = getattr(numba, "__version__", "unknown")
    return _NUMBA_VERSION is not None


def numba_version() -> str | None:
    """The installed numba version, or ``None`` when absent/hidden."""
    numba_available()
    return _NUMBA_VERSION


def available_backends() -> tuple[str, ...]:
    """The kernel backends usable in this process, strongest first."""
    if numba_available():
        return KERNEL_BACKENDS
    return tuple(b for b in KERNEL_BACKENDS if b != "numba")


def resolve_backend(choice: str | None = None) -> str:
    """Resolve a backend request to a concrete available backend.

    ``None``/``"auto"`` defers to the ``REPRO_KERNEL`` environment
    variable, then picks the strongest available tier.  An explicit
    ``"numba"`` on a machine without numba raises — a silent downgrade
    would invalidate a benchmark that believes it measured numba.
    """
    if choice is None or choice == "" or choice == "auto":
        env = os.environ.get("REPRO_KERNEL", "").strip().lower()
        choice = env if env and env != "auto" else None
        if choice is None:
            return "numba" if numba_available() else "numpy"
    choice = choice.lower()
    if choice not in KERNEL_BACKENDS:
        raise ReproError(
            f"unknown kernel backend {choice!r}; "
            f"use one of auto, {', '.join(KERNEL_BACKENDS)}"
        )
    if choice == "numba" and not numba_available():
        raise ReproError(
            "kernel backend 'numba' requested but numba is not importable; "
            "install numba or use kernel='numpy' / 'python'"
        )
    return choice


def describe_backend(backend: str | None = None) -> dict:
    """A report stanza: the active backend and the numba version."""
    return {
        "kernel_backend": backend or resolve_backend(),
        "numba_version": numba_version(),
        "available_backends": list(available_backends()),
    }


# ---------------------------------------------------------------------------
# the kernel bodies — plain Python, written to be @njit-compilable
# ---------------------------------------------------------------------------
#
# These run in two modes: compiled by numba (the numba tier) or as-is
# (the test suite's "interpreted native" tier, which exercises the exact
# code paths the compiled kernels take without requiring numba).


def _dfs_impl(
    indptr, indices, keys, y,
    has_backward, bx, by,
    has_levels, levels, level_v,
    has_intervals, start, post, start_v, post_v,
    visited, stamp, stack,
    u, v, xv, yv, rxv, ryv, budget,
):
    # The FELINE pruned DFS (paper Algorithm 3) over the X-sorted
    # adjacency, bit-identical to FelineSearch._walk.  Returns
    # (code, expanded, pruned): code 0 = not reachable, 1 = reachable,
    # 2 = step budget exhausted at the vertex just expanded.
    expanded = 0
    pruned = 0
    visited[u] = stamp
    stack[0] = u
    top = 1
    while top > 0:
        top -= 1
        w = stack[top]
        expanded += 1
        if budget >= 0 and expanded > budget:
            return 2, expanded, pruned
        lo = indptr[w]
        hi = indptr[w + 1]
        # bisect_right(keys, xv, lo, hi): the first child with X > xv.
        cut = lo
        end = hi
        while cut < end:
            mid = (cut + end) >> 1
            if keys[mid] > xv:
                end = mid
            else:
                cut = mid + 1
        pruned += hi - cut
        for k in range(lo, cut):
            child = indices[k]
            if child == v:
                return 1, expanded, pruned
            if visited[child] == stamp:
                continue
            visited[child] = stamp
            if (
                y[child] > yv
                or (has_backward and (bx[child] < rxv or by[child] < ryv))
                or (has_levels and levels[child] >= level_v)
            ):
                pruned += 1
                continue
            if has_intervals and start[child] <= start_v and post_v <= post[child]:
                return 1, expanded, pruned
            stack[top] = child
            top += 1
    return 0, expanded, pruned


def _bibfs_impl(
    out_indptr, out_indices, in_indptr, in_indices,
    fwd_seen, bwd_seen, stamp,
    buf_a, buf_b, buf_c, buf_d,
    source, target, budget,
):
    # Bidirectional BFS, bit-identical to
    # repro.graph.traversal.bidirectional_reachable /
    # bounded_bidirectional_reachable.  Returns (code, expanded):
    # code 0 = not reachable, 1 = reachable, 2 = budget hit at the
    # vertex just charged.
    fwd_seen[source] = stamp
    bwd_seen[target] = stamp
    fwd_cur = buf_a
    bwd_cur = buf_b
    fwd_spare = buf_c
    bwd_spare = buf_d
    fwd_cur[0] = source
    bwd_cur[0] = target
    fwd_len = 1
    bwd_len = 1
    expanded = 0
    while fwd_len > 0 and bwd_len > 0:
        forward = fwd_len <= bwd_len
        if forward:
            frontier, flen = fwd_cur, fwd_len
            seen, other = fwd_seen, bwd_seen
            indptr, indices = out_indptr, out_indices
            nxt = fwd_spare
        else:
            frontier, flen = bwd_cur, bwd_len
            seen, other = bwd_seen, fwd_seen
            indptr, indices = in_indptr, in_indices
            nxt = bwd_spare
        nlen = 0
        for fi in range(flen):
            w = frontier[fi]
            expanded += 1
            if budget >= 0 and expanded > budget:
                return 2, expanded
            for k in range(indptr[w], indptr[w + 1]):
                child = indices[k]
                if other[child] == stamp:
                    return 1, expanded
                if seen[child] != stamp:
                    seen[child] = stamp
                    nxt[nlen] = child
                    nlen += 1
        if forward:
            fwd_spare = fwd_cur
            fwd_cur = nxt
            fwd_len = nlen
        else:
            bwd_spare = bwd_cur
            bwd_cur = nxt
            bwd_len = nlen
    return 0, expanded


def _compile_tier(decorate):
    """Build the (dfs, batch, bibfs) callables through ``decorate``.

    ``decorate`` is ``numba.njit`` for the compiled tier and the
    identity function for the test suite's interpreted tier; the batch
    sweep closes over the (possibly compiled) dfs so numba inlines the
    per-pair call.
    """
    dfs = decorate(_dfs_impl)
    bibfs = decorate(_bibfs_impl)

    def _batch_impl(
        indptr, indices, keys, x, y,
        has_backward, bx, by,
        has_levels, levels,
        has_intervals, start, post,
        visited, stamp0, stack,
        us, vs, answers, expanded_out, pruned_out,
    ):
        # The batch survivor sweep: one native call answers every
        # deduplicated survivor pair, with per-pair stats deltas so the
        # caller can apply multiplicity weights.  Per-pair stamps mirror
        # the scalar path's one-bump-per-search.
        for i in range(len(us)):
            u = us[i]
            v = vs[i]
            xv = x[v]
            yv = y[v]
            rxv = 0
            ryv = 0
            if has_backward:
                rxv = bx[v]
                ryv = by[v]
            level_v = 0
            if has_levels:
                level_v = levels[v]
            start_v = 0
            post_v = 0
            if has_intervals:
                start_v = start[v]
                post_v = post[v]
            code, expanded, pruned = dfs(
                indptr, indices, keys, y,
                has_backward, bx, by,
                has_levels, levels, level_v,
                has_intervals, start, post, start_v, post_v,
                visited, stamp0 + i + 1, stack,
                u, v, xv, yv, rxv, ryv, -1,
            )
            answers[i] = code == 1
            expanded_out[i] = expanded
            pruned_out[i] = pruned

    batch = decorate(_batch_impl)
    return {"dfs": dfs, "bibfs": bibfs, "batch": batch}


# The lazily-compiled numba tier (or, in tests, an interpreted stand-in
# installed by monkeypatching this module attribute).
_native: dict | None = None


def _native_tier() -> dict:
    global _native
    if _native is None:
        from numba import njit

        _native = _compile_tier(njit(cache=False, nogil=True))
    return _native


# ---------------------------------------------------------------------------
# shared numpy helpers (order-preserving, hence bit-identical)
# ---------------------------------------------------------------------------


def _ordered_unique(values: np.ndarray) -> np.ndarray:
    """First occurrences of ``values`` in their original order."""
    uniq, first = np.unique(values, return_index=True)
    if len(uniq) == len(values):
        return values
    first.sort()
    return values[first]


def _stamp_view(buffer) -> np.ndarray:
    """A writable numpy view over an ``array('l')`` stamp buffer."""
    if len(buffer) == 0:
        return _EMPTY_I64
    return np.frombuffer(buffer, dtype=np.dtype(f"i{buffer.itemsize}"))


def _gather(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray):
    """All CSR neighbours of ``frontier``, concatenated in frontier order."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return None
    shifts = np.cumsum(counts) - counts
    pos = np.repeat(starts - shifts, counts) + np.arange(total, dtype=np.int64)
    return indices[pos]


# ---------------------------------------------------------------------------
# FELINE pruned-DFS kernels
# ---------------------------------------------------------------------------


class FelineSearch:
    """The pruned DFS of a FELINE-family index: the python tier.

    One loop serves FELINE (and FELINE-I's inner index) and FELINE-B.
    It walks the index's :class:`~repro.core.index.XSortedAdjacency`, so
    the ``X`` bound costs one ``bisect_right`` per expanded vertex: the
    children ``[lo, cut)`` have ``X ≤ X[v]`` and get the remaining
    per-child checks, the suffix ``[cut, hi)`` is cut whole
    (``pruned += hi - cut``).  Counters live in locals and are folded
    into :class:`~repro.baselines.base.QueryStats` in a ``finally``, so
    a guard that raises mid-search still leaves them counted.

    Holds both representations of every structure the search touches:
    the ``array`` objects for scalar indexing (fast Python-int access)
    and the ``int64`` numpy views for the vectorized and compiled tiers,
    which subclass this one.  Both are views of the *same* memory, so
    the timestamped visited buffer stays coherent across tiers.
    """

    backend = "python"
    #: The wide-slice hook (numpy tier): ``None`` keeps every slice on
    #: the scalar loop.
    _wide = None

    def __init__(self, index, adjacency, forward, backward=None) -> None:
        self._index = index
        self.dispatch_counter = None
        graph = index.graph
        self._indptr = graph.out_indptr
        self._indptr_np = graph.csr().out_indptr
        self._indices, self._keys = adjacency.indices, adjacency.keys
        self._indices_np = adjacency.indices_np
        self._keys_np = adjacency.keys_np
        fv = forward.views
        self._x_np = fv.x
        self._y, self._y_np = forward.y, fv.y
        self._levels, self._levels_np = forward.levels, fv.levels
        intervals = forward.tree_intervals
        if intervals is not None:
            self._start, self._post = intervals.start, intervals.post
        else:
            self._start = self._post = None
        self._start_np, self._post_np = fv.start, fv.post
        if backward is not None:
            self._bx, self._by = backward.x, backward.y
            bv = backward.views
            self._bx_np, self._by_np = bv.x, bv.y
        else:
            self._bx = self._by = None
            self._bx_np = self._by_np = _EMPTY_I64
        self._visited_np = _stamp_view(index._visited)

    def search(self, u, v, xv, yv, rxv=0, ryv=0):
        """Whether ``v`` is reachable from ``u`` inside ``{w : i(w) ≼ i(v)}``
        (and, for FELINE-B, ``i'(v) ≼ i'(w)``)."""
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        return self._walk(u, v, xv, yv, rxv, ryv, self._wide)

    def _walk(self, u, v, xv, yv, rxv, ryv, wide):
        index = self._index
        guard = index._guard
        indptr = self._indptr
        indices = self._indices
        keys = self._keys
        y = self._y
        bx, by = self._bx, self._by
        levels = self._levels
        level_v = levels[v] if levels is not None else 0
        start, post = self._start, self._post
        if start is not None:
            start_v, post_v = start[v], post[v]
        vec_min = VECTOR_MIN_DEGREE

        index._stamp += 1
        stamp = index._stamp
        visited = index._visited
        visited[u] = stamp
        stack = [u]
        pop = stack.pop
        push = stack.append
        expanded = 0
        pruned = 0
        try:
            while stack:
                w = pop()
                expanded += 1
                if guard is not None:
                    guard.step()
                lo = indptr[w]
                hi = indptr[w + 1]
                # Children past `cut` have X above X[v] (Definition 3):
                # cut as a block.
                cut = bisect_right(keys, xv, lo, hi)
                pruned += hi - cut
                if wide is not None and cut - lo >= vec_min:
                    hit, wide_pruned = wide(
                        lo, cut, v, stamp, yv, rxv, ryv, level_v, stack
                    )
                    pruned += wide_pruned
                    if hit:
                        return True
                    continue
                for k in range(lo, cut):
                    child = indices[k]
                    if child == v:
                        return True
                    if visited[child] == stamp:
                        continue
                    visited[child] = stamp
                    if (
                        y[child] > yv
                        or (bx is not None
                            and (bx[child] < rxv or by[child] < ryv))
                        or (levels is not None and levels[child] >= level_v)
                    ):
                        pruned += 1
                        continue
                    # Positive cut on the branch: a tree path from
                    # `child` reaches `v` without further expansion.
                    if (
                        start is not None
                        and start[child] <= start_v
                        and post_v <= post[child]
                    ):
                        return True
                    push(child)
            return False
        finally:
            stats = index.stats
            stats.expanded += expanded
            stats.pruned += pruned


class NumpyFelineKernel(FelineSearch):
    """The numpy tier: the python loop, with wide slices vectorized.

    The DFS keeps the exact LIFO pop loop of the python tier (so the
    :class:`~repro.resilience.budget.SearchGuard` — steps *and*
    deadlines — works natively), but a bisected slice of at least
    :data:`VECTOR_MIN_DEGREE` children is processed with numpy: target
    hit, first-occurrence dedup, visited marking, coordinate/level
    prunes and the interval positive-cut, all order-preserving.
    """

    backend = "numpy"

    def __init__(self, index, adjacency, forward, backward=None) -> None:
        super().__init__(index, adjacency, forward, backward)
        self._wide = self._expand_wide

    def _expand_wide(self, lo, cut, v, stamp, yv, rxv, ryv, level_v, stack):
        """Vectorized processing of the bisected slice ``[lo, cut)``.

        Returns ``(concluded, pruned)``: ``concluded`` is ``True`` when
        the search ends positively (target hit or interval
        positive-cut); otherwise the surviving children are pushed in
        slice order.  ``pruned`` honours the sequential contract:
        children past an early positive exit are never counted.
        """
        children = self._indices_np[lo:cut]
        eq = children == v
        target_hit = bool(eq.any())
        if target_hit:
            # Children past the first target occurrence are never
            # processed by the sequential loop.
            children = children[: int(eq.argmax())]
            if children.size == 0:
                return True, 0
        visited_np = self._visited_np
        cand = children[visited_np[children] != stamp]
        if cand.size == 0:
            return target_hit, 0
        cand = _ordered_unique(cand)
        visited_np[cand] = stamp
        prune = self._y_np[cand] > yv
        if self._bx is not None:
            prune |= (self._bx_np[cand] < rxv) | (self._by_np[cand] < ryv)
        if self._levels is not None:
            prune |= self._levels_np[cand] >= level_v
        if self._start is not None:
            positive = ~prune
            positive &= self._start_np[cand] <= self._start[v]
            positive &= self._post[v] <= self._post_np[cand]
            if positive.any():
                first = int(positive.argmax())
                return True, int(prune[:first].sum())
        survivors = cand[~prune]
        if survivors.size:
            stack.extend(survivors.tolist())
        return target_hit, int(prune.sum())


class NumbaFelineKernel(FelineSearch):
    """The numba tier: the whole DFS in one compiled call.

    Step budgets run inside the kernel (remaining-step countdown, exact
    raise point); deadline-carrying guards route to the python loop.
    Also provides :meth:`search_batch`, the engine's one-call survivor
    sweep.
    """

    backend = "numba"

    def __init__(self, index, adjacency, forward, backward=None) -> None:
        super().__init__(index, adjacency, forward, backward)
        self._stack = np.empty(index.graph.num_vertices + 1, dtype=np.int64)
        native = _native_tier()
        self._native_dfs = native["dfs"]
        self._native_batch = native["batch"]

    def _flag_arrays(self):
        """The optional structures as ``(flag, array)`` kernel arguments."""
        has_levels = self._levels is not None
        has_intervals = self._start is not None
        return (
            self._bx is not None, self._bx_np, self._by_np,
            has_levels, self._levels_np if has_levels else _EMPTY_I64,
            has_intervals,
            self._start_np if has_intervals else _EMPTY_I64,
            self._post_np if has_intervals else _EMPTY_I64,
        )

    def search(self, u, v, xv, yv, rxv=0, ryv=0):
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        index = self._index
        guard = index._guard
        if guard is not None and guard.deadline_at is not None:
            # Wall-clock deadlines can't be enforced bit-identically
            # from compiled code; the python loop checks the real clock.
            return self._walk(u, v, xv, yv, rxv, ryv, None)
        budget = -1 if guard is None else guard.max_steps - guard.steps
        (has_backward, bx, by, has_levels, levels,
         has_intervals, start, post) = self._flag_arrays()
        level_v = self._levels[v] if has_levels else 0
        start_v = self._start[v] if has_intervals else 0
        post_v = self._post[v] if has_intervals else 0
        index._stamp += 1
        code, expanded, pruned = self._native_dfs(
            self._indptr_np, self._indices_np, self._keys_np, self._y_np,
            has_backward, bx, by,
            has_levels, levels, level_v,
            has_intervals, start, post, start_v, post_v,
            self._visited_np, index._stamp, self._stack,
            int(u), int(v), int(xv), int(yv), int(rxv), int(ryv), budget,
        )
        stats = index.stats
        stats.expanded += expanded
        stats.pruned += pruned
        if guard is not None:
            guard.steps += expanded
            if code == 2:
                raise QueryBudgetExceeded(
                    f"query exceeded its step budget of {guard.max_steps}",
                    resource="steps",
                    steps=guard.steps,
                    elapsed_s=perf_counter() - guard.start,
                )
        return code == 1

    def search_batch(self, us: np.ndarray, vs: np.ndarray):
        """Answer deduplicated survivor pairs in one compiled call.

        Returns ``(answers, expanded, pruned)`` per-pair arrays; the
        caller folds the deltas (with multiplicity weights) into
        :class:`QueryStats`.  Stats and guard are deliberately not
        touched here.
        """
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        index = self._index
        m = len(us)
        answers = np.zeros(m, dtype=bool)
        expanded = np.zeros(m, dtype=np.int64)
        pruned = np.zeros(m, dtype=np.int64)
        stamp0 = index._stamp
        self._native_batch(
            self._indptr_np, self._indices_np, self._keys_np,
            self._x_np, self._y_np,
            *self._flag_arrays(),
            self._visited_np, stamp0, self._stack,
            np.ascontiguousarray(us, dtype=np.int64),
            np.ascontiguousarray(vs, dtype=np.int64),
            answers, expanded, pruned,
        )
        index._stamp = stamp0 + m
        return answers, expanded, pruned


def bind_feline_search(index, adjacency, forward, backward=None):
    """Bind a FELINE-family index's kernel; return its search object.

    ``forward``/``backward`` are the
    :class:`~repro.core.index.FelineCoordinates` the search prunes with
    (``backward`` only for FELINE-B), ``adjacency`` the
    :class:`~repro.core.index.XSortedAdjacency` it walks.  The native
    tiers are armed as the index's ``_kernel``; the python tier leaves
    ``_kernel`` ``None`` and is returned bare.
    """
    backend = resolve_backend(index._kernel_choice)
    index._kernel_backend = backend
    if backend == "python":
        index._arm_kernel(None)
        return FelineSearch(index, adjacency, forward, backward)
    tier = NumbaFelineKernel if backend == "numba" else NumpyFelineKernel
    kernel = tier(index, adjacency, forward, backward)
    index._arm_kernel(kernel)
    return kernel


# ---------------------------------------------------------------------------
# bidirectional-BFS kernels (the bibfs family and the budget fallback)
# ---------------------------------------------------------------------------


class _BiBFSKernelBase:
    """Per-graph state for the bidirectional-BFS kernels.

    Keyed by graph (see :func:`bibfs_kernel_for`) so the ``bibfs``
    family and every index's bounded-fallback degradation path share
    one set of preallocated buffers per graph.
    """

    backend = "abstract"

    def __init__(self, graph) -> None:
        from array import array

        self._graph = graph
        csr = graph.csr()
        self._out_indptr_np = csr.out_indptr
        self._out_indices_np = csr.out_indices
        self._in_indptr_np = csr.in_indptr
        self._in_indices_np = csr.in_indices
        self._out_indptr = graph.out_indptr
        self._out_indices = graph.out_indices
        self._in_indptr = graph.in_indptr
        self._in_indices = graph.in_indices
        n = graph.num_vertices
        self._fwd_seen = array("l", bytes(array("l").itemsize * n))
        self._bwd_seen = array("l", bytes(array("l").itemsize * n))
        self._fwd_seen_np = _stamp_view(self._fwd_seen)
        self._bwd_seen_np = _stamp_view(self._bwd_seen)
        self._stamp = 0
        self.dispatch_counter = None

    def run(self, source, target, guard=None) -> bool:
        """Unbounded bidirectional reachability (guard-aware)."""
        raise NotImplementedError

    def run_bounded(self, source, target, max_nodes) -> bool | None:
        """Node-capped bidirectional reachability (``None`` = cap hit)."""
        raise NotImplementedError


class NumpyBiBFSKernel(_BiBFSKernelBase):
    """Level-synchronous vectorized frontier expansion.

    Frontiers are expanded as whole numpy gathers when wide enough and
    when the node cap cannot strike mid-frontier; otherwise the scalar
    loop (the python tier verbatim, on the shared stamp buffers) takes
    over, preserving the sequential True-vs-cap ordering exactly.
    Guard-carrying runs stay entirely on the scalar loop — the guard's
    raise point is mid-frontier-sequential by definition.
    """

    backend = "numpy"

    def run(self, source, target, guard=None) -> bool:
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        if guard is not None:
            from repro.graph.traversal import bidirectional_reachable

            return bidirectional_reachable(self._graph, source, target, guard)
        code = self._run_impl(source, target, -1)
        return code == 1

    def run_bounded(self, source, target, max_nodes) -> bool | None:
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        code = self._run_impl(source, target, max_nodes)
        if code == 2:
            return None
        return code == 1

    def _run_impl(self, source, target, budget: int) -> int:
        if source == target:
            return 1
        self._stamp += 1
        stamp = self._stamp
        fwd_seen, bwd_seen = self._fwd_seen, self._bwd_seen
        fwd_seen[source] = stamp
        bwd_seen[target] = stamp
        fwd_frontier = [source]
        bwd_frontier = [target]
        expanded = 0
        vec_min = VECTOR_MIN_DEGREE
        while fwd_frontier and bwd_frontier:
            forward = len(fwd_frontier) <= len(bwd_frontier)
            if forward:
                frontier = fwd_frontier
                seen, seen_np = fwd_seen, self._fwd_seen_np
                other, other_np = bwd_seen, self._bwd_seen_np
                indptr, indices = self._out_indptr, self._out_indices
                indptr_np = self._out_indptr_np
                indices_np = self._out_indices_np
            else:
                frontier = bwd_frontier
                seen, seen_np = bwd_seen, self._bwd_seen_np
                other, other_np = fwd_seen, self._fwd_seen_np
                indptr, indices = self._in_indptr, self._in_indices
                indptr_np = self._in_indptr_np
                indices_np = self._in_indices_np
            flen = len(frontier)
            fits = budget < 0 or expanded + flen <= budget
            if flen < vec_min or not fits:
                # Scalar frontier — the python tier's loop verbatim,
                # so the budget can strike at the exact vertex it
                # would have in sequential order.
                next_frontier = []
                for w in frontier:
                    expanded += 1
                    if budget >= 0 and expanded > budget:
                        return 2
                    for k in range(indptr[w], indptr[w + 1]):
                        child = indices[k]
                        if other[child] == stamp:
                            return 1
                        if seen[child] != stamp:
                            seen[child] = stamp
                            next_frontier.append(child)
            else:
                expanded += flen
                neighbours = _gather(
                    indptr_np, indices_np,
                    np.fromiter(frontier, dtype=np.int64, count=flen),
                )
                if neighbours is None:
                    next_frontier = []
                else:
                    if bool((other_np[neighbours] == stamp).any()):
                        return 1
                    fresh = neighbours[seen_np[neighbours] != stamp]
                    if fresh.size:
                        fresh = _ordered_unique(fresh)
                        seen_np[fresh] = stamp
                        next_frontier = fresh.tolist()
                    else:
                        next_frontier = []
            if forward:
                fwd_frontier = next_frontier
            else:
                bwd_frontier = next_frontier
        return 0


class NumbaBiBFSKernel(_BiBFSKernelBase):
    """The compiled bidirectional BFS (steps-budget aware)."""

    backend = "numba"

    def __init__(self, graph) -> None:
        super().__init__(graph)
        n = graph.num_vertices
        self._bufs = tuple(
            np.empty(n + 1, dtype=np.int64) for _ in range(4)
        )
        self._bibfs = _native_tier()["bibfs"]

    def _run_native(self, source, target, budget: int):
        self._stamp += 1
        buf_a, buf_b, buf_c, buf_d = self._bufs
        return self._bibfs(
            self._out_indptr_np, self._out_indices_np,
            self._in_indptr_np, self._in_indices_np,
            self._fwd_seen_np, self._bwd_seen_np, self._stamp,
            buf_a, buf_b, buf_c, buf_d,
            int(source), int(target), budget,
        )

    def run(self, source, target, guard=None) -> bool:
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        if guard is not None and guard.deadline_at is not None:
            from repro.graph.traversal import bidirectional_reachable

            return bidirectional_reachable(self._graph, source, target, guard)
        if source == target:
            return True
        budget = -1 if guard is None else guard.max_steps - guard.steps
        code, expanded = self._run_native(source, target, budget)
        if guard is not None:
            guard.steps += expanded
            if code == 2:
                raise QueryBudgetExceeded(
                    f"query exceeded its step budget of {guard.max_steps}",
                    resource="steps",
                    steps=guard.steps,
                    elapsed_s=perf_counter() - guard.start,
                )
        return code == 1

    def run_bounded(self, source, target, max_nodes) -> bool | None:
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        if source == target:
            return True
        code, _ = self._run_native(source, target, max_nodes)
        if code == 2:
            return None
        return code == 1


class PythonBiBFSKernel(_BiBFSKernelBase):
    """The python tier behind the shared per-graph kernel cache.

    Delegates to :mod:`repro.graph.traversal` (which reuses its own
    per-graph scratch buffers); exists so :func:`bounded_search` can
    treat every tier uniformly.
    """

    backend = "python"

    def __init__(self, graph) -> None:
        # No buffers of our own — traversal.py holds the scratch.
        self._graph = graph
        self.dispatch_counter = None

    def run(self, source, target, guard=None) -> bool:
        from repro.graph.traversal import bidirectional_reachable

        return bidirectional_reachable(self._graph, source, target, guard)

    def run_bounded(self, source, target, max_nodes) -> bool | None:
        from repro.graph.traversal import bounded_bidirectional_reachable

        return bounded_bidirectional_reachable(
            self._graph, source, target, max_nodes
        )


_BIBFS_KERNELS: "WeakKeyDictionary" = WeakKeyDictionary()


def bibfs_kernel_for(graph, backend: str | None = None):
    """The per-graph bidirectional-BFS kernel for ``backend`` (cached).

    One kernel per ``(graph, backend)`` pair, shared between the
    ``bibfs`` index family and every budget fallback on that graph.
    """
    backend = resolve_backend(backend)
    per_graph = _BIBFS_KERNELS.get(graph)
    if per_graph is None:
        per_graph = {}
        _BIBFS_KERNELS[graph] = per_graph
    kernel = per_graph.get(backend)
    if kernel is None:
        if backend == "numba":
            kernel = NumbaBiBFSKernel(graph)
        elif backend == "numpy":
            kernel = NumpyBiBFSKernel(graph)
        else:
            kernel = PythonBiBFSKernel(graph)
        per_graph[backend] = kernel
    return kernel


def bounded_search(graph, source, target, max_nodes, backend=None):
    """Node-capped bidirectional reachability through the kernel tiers.

    The engine behind
    :func:`repro.resilience.budget.bounded_fallback`; bit-identical
    ``True``/``False``/``None`` across every backend.
    """
    return bibfs_kernel_for(graph, backend).run_bounded(
        source, target, max_nodes
    )
