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

Rank rows
---------
FELINE's dominance over topological orders (§3.1), its level filter and
tree-interval positive cut (§3.4), FELINE-B's reversed dominance,
FELINE-K's ``k`` ranks and GRAIL's interval labels are all one test: a
*rank row* ``left[s] ≤ right[t]`` (``<`` when strict), where ``(s, t)``
is ``(u, v)``, or ``(v, u)`` for a reversed row.  Those families only
declare an ordered tuple of :class:`RankRow` and let one
:class:`RankCuts` table run it:

* a row named ``"positive-cut"`` belongs to the *positive group*; every
  other row is *negative*;
* the first negative row that fails disproves the pair, and its name
  is the explain cut (``"negative-cut"``, ``"negative-cut-reversed"``,
  ``"level-filter"``);
* when every negative row holds, the pair is proved when every row of
  the positive group holds (an empty group proves nothing), and is a
  survivor otherwise.

:meth:`RankCuts.classify` runs one numpy pass per row,
:meth:`RankCuts.classify_one` the rows in declaration order on plain
ints, and :meth:`RankCuts.search` the pruned DFS that applies the same
rows to ``(child, v)`` for every child it meets.  Rows hold the index's
own ``int64`` numpy views (:func:`view_i64`: zero-copy over the
``array`` storage, or the shared-memory pages an index adopted); the
plain-int path reads the same buffers through memoryviews, so a table
copies nothing.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "CutTable",
    "SearchOnlyCutTable",
    "RankRow",
    "RankCuts",
    "filter_rows",
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


#: The name of the positive group's rows (and of the verdict they give).
POSITIVE_CUT = "positive-cut"


class RankRow(NamedTuple):
    """One cut row: ``left[s] ≤ right[t]``, or ``<`` when ``strict``.

    ``(s, t)`` is ``(u, v)``, or ``(v, u)`` when ``reverse``; ``right``
    defaults to ``left``.  ``left``/``right`` are ``int64`` numpy
    views of the index's storage (see the module doc).
    """

    name: str
    left: np.ndarray
    right: np.ndarray | None = None
    strict: bool = False
    reverse: bool = False


def filter_rows(levels, intervals) -> list[RankRow]:
    """The §3.4 filters as rows, each left out when it is off: the
    strict ``level-filter`` row ``levels[u] < levels[v]`` unless
    ``levels`` is ``None``, then the tree-interval positive group
    ``start[u] ≤ start[v]`` ∧ ``post[v] ≤ post[u]`` (``I_v ⊆ I_u``)
    over ``intervals.start``/``.post`` unless ``intervals`` (or its
    ``start``) is ``None``."""
    rows = []
    if levels is not None:
        rows.append(RankRow("level-filter", view_i64(levels), strict=True))
    if intervals is not None and intervals.start is not None:
        rows.append(RankRow(POSITIVE_CUT, view_i64(intervals.start)))
        rows.append(
            RankRow(POSITIVE_CUT, view_i64(intervals.post), reverse=True)
        )
    return rows


class RankCuts(CutTable):
    """A family's cuts as an ordered tuple of :class:`RankRow`.

    ``rows`` splits, in order, into the negative rows and the positive
    group (rows named :data:`POSITIVE_CUT`); see the module doc for the
    verdict rule.
    """

    def __init__(self, rows: Iterable[RankRow]) -> None:
        self.rows = tuple(
            row if row.right is not None else row._replace(right=row.left)
            for row in rows
        )
        self.negative = tuple(r for r in self.rows if r.name != POSITIVE_CUT)
        self.positive = tuple(r for r in self.rows if r.name == POSITIVE_CUT)
        # Each row unpacked once: the numpy comparison for classify, and
        # memoryviews of the same buffers for the plain-int paths.
        self._negative_masks = self._masks(self.negative)
        self._positive_masks = self._masks(self.positive)
        self._negative_ints = self._plain(self.negative)
        self._positive_ints = self._plain(self.positive)

    @staticmethod
    def _masks(rows) -> tuple:
        return tuple(
            (np.less if r.strict else np.less_equal, r.left, r.right, r.reverse)
            for r in rows
        )

    @staticmethod
    def _plain(rows) -> tuple:
        return tuple(
            (r.name, memoryview(r.left), memoryview(r.right), r.strict, r.reverse)
            for r in rows
        )

    def classify(self, sources, targets):
        holds = _holding(self._negative_masks, sources, targets)
        if holds is None:
            holds = np.ones(len(sources), dtype=bool)
        if self._positive_masks:
            positive = _holding(
                self._positive_masks, sources, targets, holds.copy()
            )
        else:
            positive = np.zeros(len(sources), dtype=bool)
        return positive, ~holds

    def classify_one(self, u, v):
        for name, left, right, strict, reverse in self._negative_ints:
            if reverse:
                a, b = left[v], right[u]
            else:
                a, b = left[u], right[v]
            if a > b or strict and a == b:
                return name
        for _, left, right, strict, reverse in self._positive_ints:
            if reverse:
                a, b = left[v], right[u]
            else:
                a, b = left[u], right[v]
            if a > b or strict and a == b:
                return None
        return POSITIVE_CUT if self._positive_ints else None

    def search(self, index, u: int, v: int) -> bool:
        """The pruned DFS from ``u`` for a pair no cut decided.

        Walks ``index.graph``'s out-CSR with the index's timestamped
        ``_visited`` marks.  Each first-seen child is tested as
        ``classify_one(child, v)`` would test it: a failing negative
        row prunes it (``stats.pruned += 1``), a holding positive group
        proves the pair.  ``stats.expanded`` counts each popped vertex
        before the active guard's ``step()``.
        """
        below, above = _child_bounds(self._negative_ints, v)
        proof = _child_bounds(self._positive_ints, v)
        prove = bool(self._positive_ints)
        graph = index.graph
        indptr, indices = graph.out_indptr, graph.out_indices
        stats = index.stats
        guard = index._guard

        index._stamp += 1
        stamp = index._stamp
        visited = index._visited
        visited[u] = stamp
        stack = [u]
        while stack:
            w = stack.pop()
            stats.expanded += 1
            if guard is not None:
                guard.step()
            for k in range(indptr[w], indptr[w + 1]):
                child = indices[k]
                if child == v:
                    return True
                if visited[child] == stamp:
                    continue
                visited[child] = stamp
                for values, bound in below:
                    if values[child] > bound:
                        break
                else:
                    for values, bound in above:
                        if values[child] < bound:
                            break
                    else:
                        if prove and _admits(*proof, child):
                            return True
                        stack.append(child)
                        continue
                stats.pruned += 1
        return False


def _holding(rows, sources, targets, out=None):
    """``out`` AND the batch mask of every :meth:`RankCuts._masks` row
    (``out`` itself when ``rows`` is empty)."""
    for compare, left, right, reverse in rows:
        if reverse:
            held = compare(left[targets], right[sources])
        else:
            held = compare(left[sources], right[targets])
        if out is None:
            out = held
        else:
            out &= held
    return out


def _child_bounds(rows, v: int) -> tuple[tuple, tuple]:
    """Plain-int ``rows`` as bounds on a child ``c`` for the fixed
    target ``v``: a forward row holds iff ``left[c] ≤ right[v] -
    strict`` (``below``), a reversed row iff ``right[c] ≥ left[v] +
    strict`` (``above``)."""
    below = tuple(
        (left, right[v] - strict)
        for _, left, right, strict, reverse in rows
        if not reverse
    )
    above = tuple(
        (right, left[v] + strict)
        for _, left, right, strict, reverse in rows
        if reverse
    )
    return below, above


def _admits(below, above, child: int) -> bool:
    """Whether every bound of :func:`_child_bounds` holds for ``child``."""
    for values, bound in below:
        if values[child] > bound:
            return False
    for values, bound in above:
        if values[child] < bound:
            return False
    return True
