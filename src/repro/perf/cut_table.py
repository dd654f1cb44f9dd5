"""Cut tables: an index's O(1) cuts as batch-ready numpy views.

Every index family in this library answers a query in two steps: a
handful of constant-time predicates over per-vertex arrays (the *cuts*),
then — only when the cuts are inconclusive — an online search.  The cut
predicates all share one shape, "compare a few per-vertex attributes of
``u`` and ``v``", which makes them trivially vectorizable; what used to
block that was the per-call conversion of the underlying ``array``
storage into numpy arrays.

A :class:`CutTable` is the fix: built **once** per index at ``build()``
time (see :meth:`repro.baselines.base.ReachabilityIndex._make_cut_table`),
it holds numpy views of the cut structures and implements
:meth:`CutTable.classify` — the whole-batch cut pass — and
:meth:`CutTable.classify_one`, the same cuts for one pair.  The
generic engine (:mod:`repro.perf.engine`) drives the first and the
scalar query chain the second, identically for every family.

Contract
--------
``classify(sources, targets)`` receives two aligned ``int64`` arrays and
returns ``(positive, negative)`` boolean masks:

* ``positive[i]`` — pair ``i`` is *proved* reachable by an O(1) cut;
* ``negative[i]`` — pair ``i`` is *disproved* by an O(1) cut;
* neither — the pair needs an online search.

The masks must be disjoint.  Reflexive pairs are handled — and masked
out — before the table runs, so tables may classify them arbitrarily.

``classify_one(u, v)`` is the same cuts for one ``u != v`` pair, the
step the scalar :meth:`~repro.baselines.base.ReachabilityIndex.query`
and ``explain`` take: ``None`` for a survivor, otherwise the name of
the cut that fired, in :data:`repro.obs.explain.CUTS` terms
(``"positive-cut"``, ``"negative-cut"``, ``"level-filter"``,
``"negative-cut-reversed"``).  The verdict is a function of the name:
``"positive-cut"`` proves the pair, every other name disproves it.  A
scalar call costs a couple of microseconds of Python, so
``classify_one`` reads the index's own ``array``/list storage with
plain ints — a length-1 numpy pass would cost more than the cuts.  The
two methods must agree on every pair; the tests check it for every
registered family.

``counts_cuts`` declares whether decided pairs move
``QueryStats.positive_cuts`` / ``negative_cuts`` (the materialized
transitive closure counts nothing: its lookup *is* the answer).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CutTable",
    "SearchOnlyCutTable",
    "SwappedCutTable",
    "view_i64",
    "pack_bigints",
    "segmented_arrays",
    "segment_keys",
]


def view_i64(values) -> np.ndarray:
    """A zero-copy ``int64`` numpy view of ``values`` where possible.

    ``array('l')`` / ``array('q')`` buffers and ``np.memmap`` segments
    come through as views; a differently-sized itemsize (32-bit ``long``
    platforms) falls back to one conversion — still once per build, not
    once per batch.
    """
    out = np.asarray(values)
    if out.dtype != np.int64:
        out = out.astype(np.int64)
    return out


def pack_bigints(bitsets, num_bits: int) -> np.ndarray:
    """Pack per-vertex Python-int bitsets into a ``(n, ceil(bits/8))``
    ``uint8`` matrix (little-endian), enabling vectorized ``AND`` tests.
    """
    width = (num_bits + 7) // 8
    if width == 0 or not bitsets:
        return np.zeros((len(bitsets), width), dtype=np.uint8)
    payload = b"".join(bits.to_bytes(width, "little") for bits in bitsets)
    return np.frombuffer(payload, dtype=np.uint8).reshape(len(bitsets), width)


def segmented_arrays(lists) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-vertex integer sequences into ``(flat, indptr)``.

    ``flat[indptr[v]:indptr[v+1]]`` is vertex ``v``'s sequence; both
    arrays are ``int64``.
    """
    lens = np.fromiter(
        (len(lst) for lst in lists), dtype=np.int64, count=len(lists)
    )
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    flat = np.empty(int(indptr[-1]), dtype=np.int64)
    for v, lst in enumerate(lists):
        if len(lst):
            flat[indptr[v] : indptr[v + 1]] = lst
    return flat, indptr


def segment_keys(flat: np.ndarray, indptr: np.ndarray, universe: int) -> np.ndarray:
    """Globally-sorted search keys ``vertex * universe + value``.

    Requires each segment of ``flat`` to be sorted with values in
    ``[0, universe)`` — then the combined key array is globally sorted,
    so one :func:`numpy.searchsorted` answers per-vertex membership /
    predecessor probes for a whole batch (the segmented-bisect trick
    behind the FERRARI, INTERVAL and TF-Label tables).
    """
    lens = np.diff(indptr)
    owners = np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64), lens
    )
    return owners * np.int64(universe) + flat


class CutTable:
    """Base class for per-family cut passes (see module doc)."""

    #: Whether decided pairs move the positive/negative_cuts counters.
    counts_cuts: bool = True

    def classify(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized O(1) cuts: ``(positive, negative)`` masks."""
        raise NotImplementedError

    def classify_one(self, u: int, v: int) -> str | None:
        """The O(1) cuts for one ``u != v`` pair: the name of the cut
        that fired, or ``None`` when the pair needs a search."""
        raise NotImplementedError


class SearchOnlyCutTable(CutTable):
    """Families with no O(1) cuts (pure online search: DFS/BFS/biBFS).

    Every non-equal pair is undecided — the engine still classifies the
    batch in one vectorized pass (the reflexive cut) and routes the rest
    straight to the search loop / pool.  The base
    :meth:`~repro.baselines.base.ReachabilityIndex._make_cut_table`
    returns this table, so an index that defines only ``_search_pair``
    answers every pair by search.
    """

    def classify(self, sources, targets):
        undecided = np.zeros(len(sources), dtype=bool)
        return undecided, undecided.copy()

    def classify_one(self, u, v):
        return None


class SwappedCutTable(CutTable):
    """Delegates to another table with ``u``/``v`` swapped.

    FELINE-I answers ``r(u, v)`` as ``r(v, u)`` on the edge-reversed
    index, so its batch cut pass is the inner FELINE table queried with
    the argument order flipped.
    """

    def __init__(self, inner: CutTable) -> None:
        self.inner = inner
        self.counts_cuts = inner.counts_cuts

    def classify(self, sources, targets):
        return self.inner.classify(targets, sources)

    def classify_one(self, u, v):
        return self.inner.classify_one(v, u)
