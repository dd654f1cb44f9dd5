"""CSR-native search kernels for the survivor path.

After the O(1) cuts (FELINE's coordinates, the observer layer, the
vectorized cut tables) have decided the easy majority of a workload, the
queries that remain — the *survivors* — each run an online search whose
inner loop used to be pure Python.  This module makes that loop run at
hardware speed over the flat CSR arrays exported once per graph by
:meth:`repro.graph.digraph.DiGraph.csr`, with three backends:

* ``c`` — one C source shipped with the package (``_search.c``),
  compiled on first use and loaded through ``ctypes``: the pruned DFS of
  every rank-row family — FELINE, FELINE-B, FELINE-I, FELINE-K and
  GRAIL (:class:`CRankSearch`, bound by :func:`bind_rank_search`) — with
  its batch survivor sweep, the bidirectional BFS, and the batch
  engine's cut pass (:class:`CClassify`, bound by :func:`bind_classify`);
* ``numpy`` — a vectorized frontier expansion for the bidirectional BFS
  that needs nothing beyond the library's numpy dependency; a rank-row
  family has no numpy search (one measured 0.94–1.05× the python loop),
  so under ``numpy`` it searches on the reference loop and reports
  ``kernel_backend == "python"``;
* ``python`` — the reference loops
  (:meth:`~repro.perf.cut_table.RankCuts.search` for the rank-row
  families), the always-correct last resort (and an explicit choice for
  debugging).

A second source, ``_edge.c``, holds the list edges of a batch
(:func:`edge_library`): it includes ``Python.h``, so it builds apart
from ``_search.c`` and a box without the interpreter's headers keeps
the search tier.

``_search.c`` also holds the sequential set-up passes of
:mod:`repro.graph.toposort` and :mod:`repro.graph.spanning` — the DFS
post-order, the LIFO Kahn peel, the spanning forest traversal and the
min-post passes (:func:`c_post_order`, :func:`c_lifo_kahn`,
:func:`c_spanning_forest`, :func:`c_subtree_pass`).  They run wherever
the library loads, whatever backend an index picks, and return exactly
what the python loops return; where it does not load, or an input is
not an int64 run C can read, those loops run instead.

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
raised).  A scalar search re-raises the identical
:class:`~repro.exceptions.QueryBudgetExceeded`; the batch sweep
(``search_batch``) gives each pair its own step budget and returns the
exhausted ones as code 2, which the engine degrades.  Wall-clock
deadlines cannot be checked bit-identically from inside a compiled loop,
so deadline-carrying guards route to the pure-Python loop (and deadline
batches to the engine's per-pair loop) — slower, never wrong.  The
property suite (``tests/property/test_kernel_equivalence``) asserts the
contract for every registered family.

The rank-row DFS tests each first-seen child against the table's rows
with the target fixed.  FELINE and FELINE-B walk an X-sorted adjacency
(:class:`~repro.core.index.XSortedAdjacency`) and name ``X`` as their
table's key row: one bisect per expanded vertex finds ``cut``, the
first child whose ``X`` exceeds ``X[v]``, and only ``[lo, cut)`` is
scanned.  ``pruned`` therefore counts child edges cut per expansion: the
whole suffix ``hi - cut`` of every expanded vertex, plus each
first-seen child of the prefix that fails a row.

The numpy bidirectional BFS keeps the Python traversal *order* and
vectorizes only frontiers of at least :data:`VECTOR_MIN_DEGREE`
vertices, so small frontiers never pay numpy call overhead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from array import array
from pathlib import Path
from time import perf_counter
from weakref import WeakKeyDictionary

import numpy as np

from repro.exceptions import QueryBudgetExceeded, ReproError
from repro.obs.metrics import get_registry
from repro.perf.cut_table import RankCuts, SearchOnlyCutTable
from repro.perf.observers import ObserverLayer

__all__ = [
    "KERNEL_BACKENDS",
    "available_backends",
    "CUnavailable",
    "build_search_library",
    "c_fallback_reason",
    "edge_fallback_reason",
    "edge_library",
    "numba_version",
    "resolve_backend",
    "CRankSearch",
    "bind_rank_search",
    "CClassify",
    "bind_classify",
    "bind_table_classify",
    "bibfs_kernel_for",
    "bounded_search",
    "c_post_order",
    "c_lifo_kahn",
    "c_spanning_forest",
    "c_subtree_pass",
    "describe_backend",
    "VECTOR_MIN_DEGREE",
]

#: The selectable backends, strongest first (``auto`` picks the first
#: available one).
KERNEL_BACKENDS = ("c", "numpy", "python")

#: Frontier length below which the numpy bidirectional BFS stays on the
#: scalar loop: numpy's per-call overhead beats vectorization gains for
#: short frontiers, and the scalar loop is the python tier's, so
#: small-frontier costs are identical.
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


def build_search_library(
    cache_dir=None, source: Path = SOURCE, python_api: bool = False
) -> Path:
    """The shared object compiled from ``source``, built unless cached.

    ``$CC`` (else ``cc``) compiles at ``-O2 -shared -fPIC`` into
    ``cache_dir`` (default ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``, else under the temp dir), naming the object by
    the SHA-256 of the source: an edited source builds anew, an
    unchanged one is reused.  A ``python_api`` source (``_edge.c``)
    compiles against this interpreter's headers, and its object's name
    also carries the interpreter's ``SOABI``, since a C-API object loads
    only into the ABI it was built for.  The compiler reads exactly the
    hashed bytes from stdin and writes a temporary file that
    ``os.replace`` moves into place, so concurrent builders never load
    a partial object.  Raises :class:`CUnavailable` (``no-compiler``,
    ``no-headers``, ``cache-unwritable``, ``compile-failed``).
    """
    code = source.read_bytes()
    if cache_dir is None:
        xdg = os.environ.get("XDG_CACHE_HOME")
        try:
            base = Path(xdg) if xdg else Path.home() / ".cache"
        except RuntimeError:  # no resolvable home directory
            base = Path(tempfile.gettempdir())
        cache_dir = base / "repro"
    key = hashlib.sha256(code).hexdigest()
    if python_api:
        key = f"{sysconfig.get_config_var('SOABI')}-{key}"
    target = Path(cache_dir) / f"{source.stem}-{key}.so"
    if target.exists():
        return target
    flags = []
    if python_api:
        include = sysconfig.get_path("include") or ""
        if not os.path.isfile(os.path.join(include, "Python.h")):
            raise CUnavailable("no-headers", f"no Python.h in {include!r}")
        flags = [f"-I{include}"]
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
            [*compiler, "-O2", "-shared", "-fPIC", *flags,
             "-x", "c", "-", "-o", tmp],
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


def _open_library(source: Path, python_api: bool = False):
    """``source``'s object, built unless cached, loaded through
    ``PyDLL``, which keeps the GIL across every call."""
    path = build_search_library(source=source, python_api=python_api)
    try:
        return ctypes.PyDLL(str(path))
    except OSError as exc:
        raise CUnavailable("load-failed", str(exc)) from None


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
            lib = _open_library(SOURCE)
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            lib.rank_dfs.argtypes = [ptr, i64, i64, i64, i64, ptr]
            lib.rank_dfs.restype = i64
            lib.rank_batch.argtypes = [
                ptr, i64, i64, ptr, ptr, i64, ptr, ptr, ptr
            ]
            lib.rank_batch.restype = i64
            lib.bibfs.argtypes = [ptr, i64, i64, i64, i64, ptr]
            lib.bibfs.restype = i64
            lib.bibfs_batch.argtypes = [ptr, i64, i64, ptr, ptr, i64, ptr]
            lib.bibfs_batch.restype = i64
            lib.classify_batch.argtypes = [ptr, i64, ptr, ptr, ptr, ptr]
            lib.classify_batch.restype = i64
            # The set-up passes: ``n``, the CSR, the roots, then buffers.
            csr = [i64, ptr, ptr, ptr, i64]
            lib.dfs_post_order.argtypes = csr + [i64, ptr, ptr, ptr, ptr]
            lib.lifo_kahn.argtypes = csr + [ptr, ptr, ptr]
            lib.spanning_forest.argtypes = csr + [ptr, ptr, ptr, ptr]
            lib.subtree_sizes.argtypes = [i64, i64, ptr, ptr, ptr]
            lib.subtree_bases.argtypes = [i64, i64, ptr, ptr, ptr]
            for fn in (lib.dfs_post_order, lib.lifo_kahn, lib.spanning_forest,
                       lib.subtree_sizes, lib.subtree_bases):
                fn.restype = i64
            _c_state = (lib, None)
        except CUnavailable as exc:
            _c_state = (None, exc.reason)
    return _c_state[0]


def c_fallback_reason() -> str | None:
    """Why the C tier is unavailable in this process (``None``: it loads)."""
    _c_library()
    return _c_state[1]


EDGE_SOURCE = Path(__file__).with_name("_edge.c")

# The list edge's outcome, like _c_state: (library, None) or (None, reason).
_edge_state: tuple | None = None


def edge_library():
    """The loaded list-edge library (``None`` when unavailable).

    Built from ``_edge.c`` against this interpreter's headers and loaded
    through ``PyDLL`` on the first batch that needs it, not at import or
    index build, so a cold compile never lands in set-up.  Its
    ``flatten_pairs`` backs :func:`repro.perf.engine.as_pair_array` for
    lists and tuples, and ``answer_list`` the engine's answer list;
    without it both take their python routes, which stay the reference.
    """
    global _edge_state
    if _edge_state is None:
        try:
            lib = _open_library(EDGE_SOURCE, python_api=True)
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            lib.flatten_pairs.argtypes = [ctypes.py_object, i64, i64, ptr]
            lib.flatten_pairs.restype = i64
            lib.answer_list.argtypes = [ptr, i64]
            lib.answer_list.restype = ctypes.py_object
            _edge_state = (lib, None)
        except CUnavailable as exc:
            _edge_state = (None, exc.reason)
    return _edge_state[0]


def edge_fallback_reason() -> str | None:
    """Why the list edge runs on python here (``None``: ``_edge.c`` loads)."""
    edge_library()
    return _edge_state[1]


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
    """A report stanza: the active backend, why ``c`` is not (if so),
    and why the list edge runs on python (if so)."""
    return {
        "kernel_backend": backend or resolve_backend(),
        "c_fallback_reason": c_fallback_reason(),
        "edge_fallback_reason": edge_fallback_reason(),
        "available_backends": list(available_backends()),
    }


def _struct(fields: str):
    """A ``ctypes.Structure``: the vertex count ``n``, then ``void *``
    fields in C declaration order."""
    return type("ctx", (ctypes.Structure,), {
        "_fields_": [("n", ctypes.c_int64)]
        + [(f, ctypes.c_void_p) for f in fields.split()],
    })


_BIBFS_CTX = _struct(
    "out_indptr out_indices in_indptr in_indices fwd_seen bwd_seen "
    "buf_a buf_b buf_c buf_d"
)


def _c_context(kernel, ctx, **arrays) -> None:
    """Bind ``kernel`` to the context struct ``ctx``, its pointer fields
    set to raw pointers into ``arrays``.

    Built once per bind — a call passes one address instead of
    re-deriving a dozen — and the kernel keeps ``arrays`` alive as long
    as the struct.  ``None`` is NULL.  Arrays must be ``int64`` and
    C-contiguous (C reads 8-byte words), else :class:`CUnavailable`
    (``layout``); C refuses vertices outside ``0..n-1`` (code 3).
    """
    for name, arr in arrays.items():
        if arr is not None:
            setattr(ctx, name, _address(name, arr))
    kernel._arrays, kernel._ctx = arrays, ctx
    kernel._ctx_addr = ctypes.addressof(ctx)
    kernel._out = (ctypes.c_int64 * 2)()
    kernel._out_addr = ctypes.addressof(kernel._out)


def _address(name: str, arr: np.ndarray, dtype=np.int64) -> int:
    """The address of ``arr``'s data, which C reads as a flat run of
    ``dtype``; :class:`CUnavailable` (``layout``) unless the array is
    that dtype and C-contiguous."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise CUnavailable("layout", f"{name} is {arr.dtype}")
    return arr.ctypes.data


def _ref(arr: np.ndarray):
    """A per-call ctypes argument for a C-contiguous array's data: a
    reference into its buffer, a quarter of ``arr.ctypes.data``'s cost
    (read-only and empty arrays pass that address)."""
    try:
        return ctypes.byref(ctypes.c_char.from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


def _step_budget(guard) -> int | None:
    """Steps a C loop may expand: ``-1`` unbounded, ``None`` when the
    guard has a deadline (the python loop must run)."""
    if guard is None:
        return -1
    if guard.deadline_at is not None:
        return None
    return guard.max_steps - guard.steps


def _sweep(fn, ctx_addr, owner, us, vs, max_steps: int, *outs) -> np.ndarray:
    """One C batch loop over the pairs ``(us[i], vs[i])``: each search
    under its own budget of ``max_steps`` expansions (``-1``: none).

    Returns the per-pair codes (``uint8``: 0 not reachable, 1 reachable,
    2 budget exhausted).  The searches take the stamps after
    ``owner._stamp``, which is advanced past them before the call, so
    not even a raise leaves a stamp to reuse.  A vertex outside the
    graph raises ``IndexError`` naming its pair.
    """
    m = len(us)
    us = np.ascontiguousarray(us, dtype=np.int64)
    vs = np.ascontiguousarray(vs, dtype=np.int64)
    codes = np.empty(m, dtype=np.uint8)
    stamp0 = owner._stamp
    owner._stamp = stamp0 + m
    bad = fn(
        ctx_addr, stamp0, m, _ref(us), _ref(vs), max_steps, _ref(codes),
        *outs,
    )
    if bad >= 0:
        raise IndexError(
            f"vertex out of range in search {us[bad]} -> {vs[bad]}"
        )
    return codes


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
# the batch engine's cut pass
# ---------------------------------------------------------------------------


class _RankRow(ctypes.Structure):
    _fields_ = [
        ("left", ctypes.c_void_p), ("right", ctypes.c_void_p),
        ("strict", ctypes.c_int64), ("reverse", ctypes.c_int64),
    ]


class _ClassifyCtx(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64), ("num_observer", ctypes.c_int64),
        ("width", ctypes.c_int64),
        ("fwd_bits", ctypes.c_void_p), ("bwd_bits", ctypes.c_void_p),
        ("num_negative", ctypes.c_int64), ("num_positive", ctypes.c_int64),
        ("rows", ctypes.c_void_p),
    ]


#: Codes ``classify_batch`` counts (see :mod:`repro.perf.engine`).
_NUM_CODES = 6


def _row_structs(rows):
    """``rows`` as a C array of ``rank_row`` over their own arrays."""
    structs = (_RankRow * len(rows))()
    for slot, row in zip(structs, rows):
        slot.left = _address(row.name, row.left)
        slot.right = _address(row.name, row.right)
        slot.strict, slot.reverse = row.strict, row.reverse
    return structs


class CClassify:
    """The batch engine's cut pass in one compiled call.

    ``classify_batch`` runs, per pair, the reflexive cut, the observer
    layer (its :meth:`~repro.perf.observers.ObserverLayer.rank_rows`, then
    the support bitsets as ``decide`` tests them) and the table's rank
    rows — the negative rows in order, then the positive group — and
    writes the pair's code.  The context holds raw pointers into the
    rows' and the layer's own arrays (the object keeps them alive), so
    nothing is copied; :func:`bind_classify` builds a new one whenever
    any of them may have moved.
    """

    def __init__(self, n: int, observers, negative, positive) -> None:
        obs_rows = observers.rank_rows() if observers is not None else ()
        rows = (*obs_rows, *negative, *positive)
        structs = _row_structs(rows)
        ctx = _ClassifyCtx(
            n=n, num_observer=len(obs_rows),
            num_negative=len(negative), num_positive=len(positive),
            rows=ctypes.addressof(structs),
        )
        if observers is not None and observers.k:
            fwd, bwd = observers.fwd_bits, observers.bwd_bits
            if fwd.shape[0] != n or bwd.shape != fwd.shape:
                raise CUnavailable("layout", f"support bitsets {fwd.shape}")
            ctx.width = fwd.shape[1]
            ctx.fwd_bits = _address("fwd_bits", fwd, np.uint8)
            ctx.bwd_bits = _address("bwd_bits", bwd, np.uint8)
        self._fn = _c_library().classify_batch
        self._arrays, self._rows = (rows, observers), structs
        self._ctx = ctx
        self._ctx_addr = ctypes.addressof(ctx)

    def __call__(self, sources: np.ndarray, targets: np.ndarray):
        """``(codes, counts)`` for the pairs ``(sources[i], targets[i])``:
        a ``uint8`` code per pair and the six code counts as ints.  A
        vertex outside the graph raises ``IndexError`` naming its pair,
        and nothing is counted."""
        m = len(sources)
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        codes = np.empty(m, dtype=np.uint8)
        counts = (ctypes.c_int64 * _NUM_CODES)()
        bad = self._fn(
            self._ctx_addr, m, _ref(sources), _ref(targets), _ref(codes),
            counts,
        )
        if bad >= 0:
            raise IndexError(
                f"vertex out of range in classify {sources[bad]} -> "
                f"{targets[bad]}"
            )
        return codes, counts[:]


def bind_classify(index) -> CClassify | None:
    """The index's compiled cut pass, or ``None`` for the numpy route.

    Compiled when the index's kernel choice resolves to ``c``, its table
    is a :class:`~repro.perf.cut_table.RankCuts` (or decides nothing, a
    :class:`~repro.perf.cut_table.SearchOnlyCutTable`) and its observer
    layer, if any, is an :class:`~repro.perf.observers.ObserverLayer`.
    Called whenever the table, the kernel or the layer changes (build,
    ``set_kernel``, ``attach_observers``, persistence loading,
    shared-page adoption and restore), so a context never outlives the
    arrays it points into.
    """
    observers = index._observers
    if not (observers is None or isinstance(observers, ObserverLayer)):
        return None
    return bind_table_classify(
        index._cut_table, index.graph.num_vertices, index._kernel_choice,
        observers,
    )


def bind_table_classify(
    table, n: int, kernel: str | None = None, observers=None
) -> CClassify | None:
    """``table``'s compiled cut pass over ``n`` vertices (``observers``,
    an :class:`~repro.perf.observers.ObserverLayer`, in front), or
    ``None`` for the numpy route: what :func:`bind_classify` binds for
    an index, usable on a bare table such as the shard coordinator's."""
    if table is None or resolve_backend(kernel) != "c":
        return None
    if isinstance(table, RankCuts):
        negative, positive = table.negative, table.positive
    elif type(table) is SearchOnlyCutTable:
        negative = positive = ()
    else:
        return None
    try:
        return CClassify(n, observers, negative, positive)
    except CUnavailable as exc:
        _count_fallback(exc.reason)
        return None


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
# the rank-row pruned DFS
# ---------------------------------------------------------------------------


class _RankCtx(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64),
        ("indptr", ctypes.c_void_p), ("indices", ctypes.c_void_p),
        ("keys", ctypes.c_void_p), ("key", ctypes.c_void_p),
        ("num_negative", ctypes.c_int64), ("num_positive", ctypes.c_int64),
        ("rows", ctypes.c_void_p),
        ("visited", ctypes.c_void_p), ("stack", ctypes.c_void_p),
        ("bounds", ctypes.c_void_p),
    ]


class CRankSearch:
    """The C tier of a rank-row family's search: the whole pruned DFS
    (:meth:`~repro.perf.cut_table.RankCuts.search`) in one compiled call.

    The bind builds one context over the index's table — its rows, the
    key row and the adjacency sorted by it when the table has one, else
    the graph's out-CSR — the visited marks the python loop shares, a
    stack and the per-search bound scratch, one slot per row.  Step
    budgets run inside the kernel (exact raise point); deadline-carrying
    guards route to the python loop.  :meth:`search_batch` is the
    engine's one-call survivor sweep.
    """

    backend = "c"

    def __init__(self, index, adjacency=None) -> None:
        self._index = index
        self._table = table = index._cut_table
        self._adjacency = adjacency
        self.dispatch_counter = None
        lib = _c_library()
        self._dfs, self._batch = lib.rank_dfs, lib.rank_batch
        n = index.graph.num_vertices
        csr = index.graph.csr()
        keyed = table.key is not None and adjacency is not None
        negative = table.unkeyed if keyed else table.negative
        rows = (*negative, *table.positive)
        structs = _row_structs(rows)
        key = _row_structs((table.key,) if keyed else ())
        self._rows = structs, key
        ctx = _RankCtx(
            n=n, num_negative=len(negative), num_positive=len(table.positive),
            rows=ctypes.addressof(structs),
            key=ctypes.addressof(key) if keyed else None,
        )
        _c_context(
            self, ctx,
            indptr=csr.out_indptr,
            indices=adjacency.indices_np if keyed else csr.out_indices,
            keys=adjacency.keys_np if keyed else None,
            visited=_stamp_view(index._visited),
            stack=np.empty(n + 1, dtype=np.int64),
            # child_bound {values, bound}: two words per row.
            bounds=np.empty(2 * max(len(rows), 1), dtype=np.int64),
        )

    def search(self, u: int, v: int) -> bool:
        """Whether ``v`` is reachable from ``u`` along the children the
        table's rows admit (stats and guard as the python loop)."""
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        index = self._index
        guard = index._guard
        budget = _step_budget(guard)
        if budget is None:
            return self._table.search(index, u, v, self._adjacency)
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

    def search_batch(self, us: np.ndarray, vs: np.ndarray, max_steps=-1):
        """Answer deduplicated survivor pairs in one compiled call.

        Each search runs under its own budget of ``max_steps`` expanded
        vertices (``-1``: none) and stops where ``SearchGuard.step``
        would raise.  Returns per-pair ``(codes, expanded, pruned)``
        arrays, codes as in :func:`_sweep`; the caller folds the deltas
        (with multiplicity weights) into :class:`QueryStats` and
        degrades the exhausted pairs.  Stats and guard are deliberately
        not touched here.
        """
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        m = len(us)
        expanded = np.empty(m, dtype=np.int64)
        pruned = np.empty(m, dtype=np.int64)
        codes = _sweep(
            self._batch, self._ctx_addr, self._index, us, vs, max_steps,
            _ref(expanded), _ref(pruned),
        )
        return codes, expanded, pruned


def bind_rank_search(index, adjacency=None) -> None:
    """Bind a rank-row family's search kernel as the index's ``_kernel``.

    The index's table is a :class:`~repro.perf.cut_table.RankCuts`;
    ``adjacency`` is the :class:`~repro.core.index.XSortedAdjacency`
    sorted by the table's key row, if it has one.  The ``c`` tier arms a
    :class:`CRankSearch`; every other tier — ``numpy`` included — arms
    nothing, so the index searches on the python loop and reports
    ``"python"``.  Called on every (re)bind, so a C context never
    outlives the arrays it points into.
    """
    kernel = None
    if resolve_backend(index._kernel_choice, count_fallback=True) == "c":
        try:
            kernel = CRankSearch(index, adjacency)
        except CUnavailable as exc:
            _count_fallback(exc.reason)
    index._kernel_backend = "c" if kernel is not None else "python"
    index._arm_kernel(kernel)


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
    """The compiled bidirectional BFS (steps-budget aware), with
    :meth:`search_batch`, the ``bibfs`` family's one-call sweep."""

    backend = "c"

    def __init__(self, graph) -> None:
        super().__init__(graph)
        lib = _c_library()
        self._bibfs, self._batch = lib.bibfs, lib.bibfs_batch
        csr, n = self._csr, graph.num_vertices
        _c_context(
            self, _BIBFS_CTX(n=n),
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

    def search_batch(self, us: np.ndarray, vs: np.ndarray, max_steps=-1):
        """:meth:`CRankSearch.search_batch` for bidirectional BFS.

        The ``expanded``/``pruned`` arrays are zeros: the ``bibfs``
        family's searches never count into :class:`QueryStats`.
        """
        counter = self.dispatch_counter
        if counter is not None:
            counter.inc()
        codes = _sweep(self._batch, self._ctx_addr, self, us, vs, max_steps)
        zeros = np.zeros(len(codes), dtype=np.int64)
        return codes, zeros, zeros


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


# ---------------------------------------------------------------------------
# the set-up passes
# ---------------------------------------------------------------------------
#
# Each wrapper runs one sequential set-up pass of repro.graph in C and
# returns what its python loop would, or ``None`` when that loop must
# run instead: the library does not load, an input is not an int64,
# C-contiguous run of the right length, or C met a vertex outside
# ``0..n-1``.  Roots arrive range-checked from repro.graph; every
# worklist holds ``len(roots) + n``, so repeated roots stay in bounds.


def _i64_run(values, length: int | None = None) -> np.ndarray | None:
    """``values`` as a flat ``int64`` C-contiguous array (``length``
    long, when given), or ``None``.  An ``array('l')`` comes through
    as a writable view."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        return None
    if (arr.dtype != np.int64 or arr.ndim != 1
            or not arr.flags.c_contiguous
            or (length is not None and len(arr) != length)):
        return None
    return arr


def _call(fn, *args) -> int:
    """``fn(*args)``, each ndarray passed as its data's address (the
    arguments hold the arrays alive through the call)."""
    return fn(*[_ref(a) if isinstance(a, np.ndarray) else a for a in args])


def _pass_args(graph, roots, indices=None):
    """``(lib, room, csr)`` for a pass over ``graph``'s out-rows
    (``indices``: the caller's reordering of them) from ``roots``
    (``None``: every vertex in id order): ``csr`` is the pass's leading
    arguments ``(n, indptr, indices, roots, len(roots))`` and ``room``
    a worklist's length.  ``None`` when the pass cannot run in C."""
    lib = _c_library()
    if lib is None:
        return None
    n = graph.num_vertices
    csr = graph.csr()
    indptr = _i64_run(csr.out_indptr, n + 1)
    if indptr is None:
        return None
    indices = _i64_run(
        csr.out_indices if indices is None else indices, int(indptr[n])
    )
    if indices is None:
        return None
    num_roots = 0
    if roots is not None:
        roots = _i64_run(roots)
        if roots is None:
            return None
        num_roots = len(roots)
    return lib, n + num_roots, (n, indptr, indices, roots, num_roots)


def c_post_order(graph, roots, stop_at_cycle: bool):
    """:func:`repro.graph.toposort._dfs_post_order` in C:
    ``(ranks, cyclic)``, ``ranks`` an ``array('l')``, or ``None``."""
    bound = _pass_args(graph, roots)
    if bound is None:
        return None
    lib, room, csr = bound
    n = csr[0]
    ranks = array("l", bytes(8 * n))
    code = _call(
        lib.dfs_post_order, *csr, int(stop_at_cycle),
        np.empty(n, dtype=np.int64), np.zeros(n, dtype=np.uint8),
        np.empty(room, dtype=np.int64), np.asarray(ranks),
    )
    return None if code < 0 else (ranks, code == 1)


def c_lifo_kahn(graph, indices, roots):
    """:func:`repro.graph.toposort.lifo_kahn_order`'s peel in C:
    ``(order, indegree)``, ``order`` a list (shorter than ``n`` when the
    graph has a cycle) and ``indegree`` what the peel left, or
    ``None``."""
    bound = _pass_args(graph, roots, indices)
    if bound is None:
        return None
    lib, room, csr = bound
    indegree = np.diff(graph.csr().in_indptr)
    order = np.empty(room, dtype=np.int64)
    count = _call(
        lib.lifo_kahn, *csr, indegree, np.empty(room, dtype=np.int64), order
    )
    return None if count < 0 else (order[:count].tolist(), indegree)


def c_spanning_forest(graph, roots):
    """:func:`repro.graph.spanning.extract_spanning_forest`'s traversal
    in C: ``(parent, order)``, an ``array('l')`` and a list, or
    ``None``."""
    bound = _pass_args(graph, roots)
    if bound is None:
        return None
    lib, room, csr = bound
    n = csr[0]
    parent = array("l", [-1]) * n
    order = np.empty(room, dtype=np.int64)
    count = _call(
        lib.spanning_forest, *csr, np.asarray(parent),
        np.zeros(n, dtype=np.uint8), np.empty(room, dtype=np.int64), order,
    )
    return None if count < 0 else (parent, order[:count].tolist())


def c_subtree_pass(name: str, order, parent, values: np.ndarray):
    """One of :func:`repro.graph.spanning.minpost_intervals_tree`'s
    passes over a forest's visit ``order`` in C, in place on ``values``
    (``n + 1`` int64 slots, slot ``n`` standing for a root's parent):
    ``"subtree_sizes"`` up the order, ``"subtree_bases"`` down it.
    Returns ``values``, or ``None`` (``subtree_bases`` then leaves
    ``values`` untouched)."""
    lib = _c_library()
    n = len(parent)
    order, parent = _i64_run(order), _i64_run(parent, n)
    if (lib is None or order is None or parent is None
            or _i64_run(values, n + 1) is None):
        return None
    code = _call(getattr(lib, name), n, len(order), order, parent, values)
    return None if code < 0 else values
