"""CSR-native search kernels for the survivor path.

After the O(1) cuts (FELINE's coordinates, the observer layer, the
vectorized cut tables) have decided the easy majority of a workload, the
queries that remain — the *survivors* — each run an online search whose
inner loop used to be pure Python.  This module makes that loop run at
hardware speed over the flat CSR arrays exported once per graph by
:meth:`repro.graph.digraph.DiGraph.csr`, with a three-tier backend:

* ``c`` — the FELINE-family pruned DFS, its batch survivor sweep and the
  bidirectional BFS in one C source shipped with the package
  (``_search.c``), compiled on first use and loaded through ``ctypes``;
* ``numpy`` — a vectorized frontier/neighbour-slice expansion that needs
  nothing beyond the library's existing numpy dependency;
* ``python`` — the reference loops (:class:`FelineSearch` for the
  FELINE family), the always-correct last resort (and an explicit
  choice for debugging).

Selection is automatic (``c`` when its library builds and loads, see
:func:`build_search_library`; else ``numpy``, and
:func:`c_fallback_reason` says why), overridable per index via
``Reachability(kernel=...)`` / ``index.set_kernel(...)`` / the CLI
``--kernel`` flag, and globally via the ``REPRO_KERNEL`` environment
variable.

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

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from array import array
from bisect import bisect_right
from pathlib import Path
from time import perf_counter
from weakref import WeakKeyDictionary

import numpy as np

from repro.exceptions import QueryBudgetExceeded, ReproError
from repro.obs.metrics import get_registry

__all__ = [
    "KERNEL_BACKENDS",
    "available_backends",
    "CUnavailable",
    "build_search_library",
    "c_fallback_reason",
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
KERNEL_BACKENDS = ("c", "numpy", "python")

#: Neighbour-slice / frontier length below which the numpy tier stays on
#: the scalar loop: numpy's per-call overhead beats vectorization gains
#: for short slices, and the scalar path is shared with the python tier
#: so short-degree traversal costs are identical.
VECTOR_MIN_DEGREE = 32

_EMPTY_I64 = np.empty(0, dtype=np.int64)

SOURCE = Path(__file__).with_name("_search.c")

# ---------------------------------------------------------------------------
# the C tier's library: build, cache, load
# ---------------------------------------------------------------------------


class CUnavailable(ReproError):
    """The C tier cannot run here; ``reason`` labels the fallback."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"C search library unavailable ({reason}): {detail}")
        self.reason = reason


def build_search_library(cache_dir=None, source: Path = SOURCE) -> Path:
    """The shared object compiled from ``source``, built unless cached.

    ``$CC`` (else ``cc``) compiles at ``-O2 -shared -fPIC`` into
    ``cache_dir`` (default ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``, else under the temp dir), naming the object by
    the SHA-256 of the source: an edited source builds anew, an
    unchanged one is reused.  The compiler reads exactly the hashed
    bytes from stdin and writes a temporary file that ``os.replace``
    moves into place, so concurrent builders never load a partial
    object.  Raises :class:`CUnavailable` (``no-compiler``,
    ``cache-unwritable``, ``compile-failed``).
    """
    code = source.read_bytes()
    if cache_dir is None:
        xdg = os.environ.get("XDG_CACHE_HOME")
        try:
            base = Path(xdg) if xdg else Path.home() / ".cache"
        except RuntimeError:  # no resolvable home directory
            base = Path(tempfile.gettempdir())
        cache_dir = base / "repro"
    target = Path(cache_dir) / f"_search-{hashlib.sha256(code).hexdigest()}.so"
    if target.exists():
        return target
    compiler = shlex.split(os.environ.get("CC") or "cc")
    if not compiler or shutil.which(compiler[0]) is None:
        raise CUnavailable("no-compiler", " ".join(compiler))
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        os.close(fd)
    except OSError as exc:
        raise CUnavailable("cache-unwritable", str(exc)) from None
    try:
        proc = subprocess.run(
            [*compiler, "-O2", "-shared", "-fPIC", "-x", "c", "-", "-o", tmp],
            input=code, capture_output=True, timeout=300,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace")
            raise CUnavailable("compile-failed", stderr[-400:])
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise CUnavailable("compile-failed", str(exc)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


# The process-wide outcome: (library, None) or (None, fallback reason).
_c_state: tuple | None = None


def _c_library():
    """The loaded library (``None`` when unavailable), loaded once.

    ``PyDLL`` keeps the GIL across a call, so threads sharing an index
    never interleave inside its visited buffer and stack.
    """
    global _c_state
    if _c_state is None:
        try:
            if array("l").itemsize != 8:
                raise CUnavailable("abi", "the platform long is not 64-bit")
            path = build_search_library()
            try:
                lib = ctypes.PyDLL(str(path))
            except OSError as exc:
                raise CUnavailable("load-failed", str(exc)) from None
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            lib.feline_dfs.argtypes = [ptr, i64, i64, i64, i64, ptr]
            lib.feline_dfs.restype = i64
            lib.feline_batch.argtypes = [ptr, i64, i64] + [ptr] * 5
            lib.feline_batch.restype = i64
            lib.bibfs.argtypes = [ptr, i64, i64, i64, i64, ptr]
            lib.bibfs.restype = i64
            _c_state = (lib, None)
        except CUnavailable as exc:
            _c_state = (None, exc.reason)
    return _c_state[0]


def c_fallback_reason() -> str | None:
    """Why the C tier is unavailable in this process (``None``: it loads)."""
    _c_library()
    return _c_state[1]


def numba_version() -> None:
    """``None``: the C tier replaced numba.  Kept for the layered
    benchmark's environment record until ROADMAP item 1 renames it."""
    return None


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------


def available_backends() -> tuple[str, ...]:
    """The kernel backends usable in this process, strongest first."""
    return KERNEL_BACKENDS[0 if _c_library() is not None else 1:]


def resolve_backend(
    choice: str | None = None, count_fallback: bool = False
) -> str:
    """Resolve a backend request to a concrete available backend.

    ``None``/``"auto"`` defers to the ``REPRO_KERNEL`` environment
    variable, then picks the strongest available tier.  An explicit
    ``"c"`` without a usable C library raises — a silent downgrade would
    invalidate a benchmark that believes it measured the compiled tier.
    Kernel binds pass ``count_fallback`` so an ``auto`` that fell back
    counts in ``repro_kernel_fallback_total{reason}``.
    """
    if choice is None or choice == "" or choice == "auto":
        env = os.environ.get("REPRO_KERNEL", "").strip().lower()
        choice = env if env and env != "auto" else None
        if choice is None:
            reason = c_fallback_reason()
            if reason is None:
                return "c"
            if count_fallback:
                _count_fallback(reason)
            return "numpy"
    choice = choice.lower()
    if choice not in KERNEL_BACKENDS:
        raise ReproError(
            f"unknown kernel backend {choice!r}; "
            f"use one of auto, {', '.join(KERNEL_BACKENDS)}"
        )
    if choice == "c" and c_fallback_reason() is not None:
        raise ReproError(
            "kernel backend 'c' requested but the C search library is "
            f"unavailable ({c_fallback_reason()}); use kernel='numpy' / "
            "'python'"
        )
    return choice


def _count_fallback(reason: str) -> None:
    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "repro_kernel_fallback_total",
            help="Kernel binds that fell back from the C tier.",
            reason=reason,
        ).inc()


def describe_backend(backend: str | None = None) -> dict:
    """A report stanza: the active backend and why ``c`` is not, if so."""
    return {
        "kernel_backend": backend or resolve_backend(),
        "c_fallback_reason": c_fallback_reason(),
        "available_backends": list(available_backends()),
    }


def _struct(fields: str):
    """A ``ctypes.Structure``: the vertex count ``n``, then ``void *``
    fields in C declaration order."""
    return type("ctx", (ctypes.Structure,), {
        "_fields_": [("n", ctypes.c_int64)]
        + [(f, ctypes.c_void_p) for f in fields.split()],
    })


_FELINE_CTX = _struct(
    "indptr indices keys x y bx by levels start post visited stack"
)
_BIBFS_CTX = _struct(
    "out_indptr out_indices in_indptr in_indices fwd_seen bwd_seen "
    "buf_a buf_b buf_c buf_d"
)


def _c_context(kernel, struct, n: int, **arrays) -> None:
    """Bind ``kernel`` to one ``struct`` of raw pointers into ``arrays``.

    Built once per bind — a call passes one address instead of
    re-deriving a dozen — and the kernel keeps ``arrays`` alive as long
    as the struct.  ``None`` is NULL.  Arrays must be ``int64`` and
    C-contiguous (C reads 8-byte words), else :class:`CUnavailable`
    (``layout``); C refuses vertices outside ``0..n-1`` (code 3).
    """
    ctx = struct(n=n)
    for name, arr in arrays.items():
        if arr is None:
            continue
        if arr.dtype != np.int64 or not arr.flags.c_contiguous:
            raise CUnavailable("layout", f"{name} is {arr.dtype}")
        setattr(ctx, name, arr.ctypes.data)
    kernel._arrays, kernel._ctx = arrays, ctx
    kernel._ctx_addr = ctypes.addressof(ctx)
    kernel._out = (ctypes.c_int64 * 2)()
    kernel._out_addr = ctypes.addressof(kernel._out)


def _step_budget(guard) -> int | None:
    """Steps a C loop may expand: ``-1`` unbounded, ``None`` when the
    guard has a deadline (the python loop must run)."""
    if guard is None:
        return -1
    if guard.deadline_at is not None:
        return None
    return guard.max_steps - guard.steps


def _charge(guard, expanded: int, code: int) -> None:
    """Fold a C loop's expansions into ``guard``; on code 2 raise what
    ``SearchGuard.step`` raises at the same step."""
    if guard is not None:
        guard.steps += expanded
        if code == 2:
            raise QueryBudgetExceeded(
                f"query exceeded its step budget of {guard.max_steps}",
                resource="steps",
                steps=guard.steps,
                elapsed_s=perf_counter() - guard.start,
            )


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


class CFelineKernel(FelineSearch):
    """The C tier: the whole DFS in one compiled call.

    The bind builds one context struct over every array the search
    reads, so a call passes ``(ctx, stamp, u, v, budget, out)``; the
    bounds come from ``v``'s own coordinates, as every caller's do.
    Step budgets run inside the kernel (exact raise point);
    deadline-carrying guards route to the python loop.  Also provides
    :meth:`search_batch`, the engine's one-call survivor sweep.
    """

    backend = "c"

    def __init__(self, index, adjacency, forward, backward=None) -> None:
        super().__init__(index, adjacency, forward, backward)
        lib = _c_library()
        self._dfs, self._batch = lib.feline_dfs, lib.feline_batch
        fv = forward.views
        bv = backward.views if backward is not None else None
        n = index.graph.num_vertices
        _c_context(
            self, _FELINE_CTX, n,
            indptr=self._indptr_np, indices=self._indices_np,
            keys=self._keys_np, x=fv.x, y=fv.y,
            bx=bv.x if bv else None, by=bv.y if bv else None,
            levels=fv.levels, start=fv.start, post=fv.post,
            visited=self._visited_np,
            stack=np.empty(n + 1, dtype=np.int64),
        )

    def search(self, u, v, xv, yv, rxv=0, ryv=0):
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        index = self._index
        guard = index._guard
        budget = _step_budget(guard)
        if budget is None:
            return self._walk(u, v, xv, yv, rxv, ryv, None)
        index._stamp += 1
        code = self._dfs(
            self._ctx_addr, index._stamp, u, v, budget, self._out_addr
        )
        if code == 3:
            raise IndexError(f"vertex out of range in search {u} -> {v}")
        expanded, pruned = self._out
        stats = index.stats
        stats.expanded += expanded
        stats.pruned += pruned
        _charge(guard, expanded, code)
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
        us = np.ascontiguousarray(us, dtype=np.int64)
        vs = np.ascontiguousarray(vs, dtype=np.int64)
        answers = np.zeros(m, dtype=bool)
        expanded = np.zeros(m, dtype=np.int64)
        pruned = np.zeros(m, dtype=np.int64)
        stamp0 = index._stamp
        bad = self._batch(
            self._ctx_addr, stamp0, m, us.ctypes.data, vs.ctypes.data,
            answers.ctypes.data, expanded.ctypes.data, pruned.ctypes.data,
        )
        index._stamp = stamp0 + m
        if bad >= 0:
            raise IndexError(
                f"vertex out of range in search {us[bad]} -> {vs[bad]}"
            )
        return answers, expanded, pruned


def bind_feline_search(index, adjacency, forward, backward=None):
    """Bind a FELINE-family index's kernel; return its search object.

    ``forward``/``backward`` are the
    :class:`~repro.core.index.FelineCoordinates` the search prunes with
    (``backward`` only for FELINE-B), ``adjacency`` the
    :class:`~repro.core.index.XSortedAdjacency` it walks.  The native
    tiers are armed as the index's ``_kernel``; the python tier leaves
    ``_kernel`` ``None`` and is returned bare.  Called on every
    (re)bind, so a C context never outlives the arrays it points into.
    """
    backend = resolve_backend(index._kernel_choice, count_fallback=True)
    if backend == "c":
        try:
            kernel = CFelineKernel(index, adjacency, forward, backward)
        except CUnavailable as exc:
            _count_fallback(exc.reason)
            backend = "numpy"
    if backend == "numpy":
        kernel = NumpyFelineKernel(index, adjacency, forward, backward)
    index._kernel_backend = backend
    if backend == "python":
        index._arm_kernel(None)
        return FelineSearch(index, adjacency, forward, backward)
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
        self._graph = graph
        # The CSR views this kernel reads; bibfs_kernel_for replaces the
        # kernel once the graph swaps them (shared-page adoption).
        self._csr = csr = graph.csr()
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


class CBiBFSKernel(_BiBFSKernelBase):
    """The compiled bidirectional BFS (steps-budget aware)."""

    backend = "c"

    def __init__(self, graph) -> None:
        super().__init__(graph)
        self._bibfs = _c_library().bibfs
        csr, n = self._csr, graph.num_vertices
        _c_context(
            self, _BIBFS_CTX, n,
            out_indptr=csr.out_indptr, out_indices=csr.out_indices,
            in_indptr=csr.in_indptr, in_indices=csr.in_indices,
            fwd_seen=self._fwd_seen_np, bwd_seen=self._bwd_seen_np,
            **{f"buf_{b}": np.empty(n + 1, dtype=np.int64) for b in "abcd"},
        )

    def _run_native(self, source, target, budget: int):
        self._stamp += 1
        code = self._bibfs(
            self._ctx_addr, self._stamp, source, target, budget,
            self._out_addr,
        )
        if code == 3:
            raise IndexError(f"vertex out of range in {source} -> {target}")
        return code, self._out[0]

    def run(self, source, target, guard=None) -> bool:
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        budget = _step_budget(guard)
        if budget is None:
            from repro.graph.traversal import bidirectional_reachable

            return bidirectional_reachable(self._graph, source, target, guard)
        if source == target:
            return True
        code, expanded = self._run_native(source, target, budget)
        _charge(guard, expanded, code)
        return code == 1

    def run_bounded(self, source, target, max_nodes) -> bool | None:
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        if source == target:
            return True
        code, _ = self._run_native(source, target, max_nodes)
        return None if code == 2 else code == 1


class PythonBiBFSKernel(_BiBFSKernelBase):
    """The python tier behind the shared per-graph kernel cache.

    Delegates to :mod:`repro.graph.traversal` (which reuses its own
    per-graph scratch buffers); exists so :func:`bounded_search` can
    treat every tier uniformly.
    """

    backend = "python"
    _csr = None  # reads the graph's own storage, never stale

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
    ``bibfs`` index family and every budget fallback on that graph.  A
    kernel whose CSR views the graph has since swapped (shared-page
    adoption or restore) is replaced, so it reads the current arrays.
    """
    backend = resolve_backend(backend)
    per_graph = _BIBFS_KERNELS.setdefault(graph, {})
    kernel = per_graph.get(backend)
    if kernel is None or (
        kernel._csr is not None and kernel._csr is not graph.csr()
    ):
        tier = {"c": CBiBFSKernel, "numpy": NumpyBiBFSKernel}.get(
            backend, PythonBiBFSKernel
        )
        try:
            kernel = tier(graph)
        except CUnavailable as exc:
            _count_fallback(exc.reason)
            return bibfs_kernel_for(graph, "numpy")
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
