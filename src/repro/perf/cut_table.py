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
rows to ``(child, v)`` for every child it meets — the python reference
of every rank-row family's search, whose C tier is ``rank_dfs`` in
``_search.c``.  A table may name a *key* row that a search adjacency is
sorted by; the search then bisects each adjacency row by the key
instead of testing the key row per child.  Rows hold the index's own
``int64`` numpy views (:func:`view_i64`: zero-copy over the ``array``
storage, or the shared-memory pages an index adopted); the plain-int
path reads the same buffers (:func:`plain_view`), so a table copies
nothing.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "CutTable",
    "SearchOnlyCutTable",
    "RankRow",
    "RankCuts",
    "filter_rows",
    "view_i64",
    "plain_view",
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


def plain_view(values: np.ndarray):
    """A zero-copy sequence that reads the ``int64`` ``values`` as plain
    ints: the ``array`` a :func:`view_i64` view wraps whole (it indexes
    faster than any memoryview), else a memoryview cast through bytes
    to the native format (numpy exports an unaligned array — one mapped
    from an index file, say — as ``=q``, which a memoryview cannot
    index).
    """
    owner = getattr(values.base, "obj", None)
    if (
        isinstance(owner, array)
        and owner.itemsize == 8
        and owner.buffer_info() == (values.ctypes.data, len(values))
    ):
        return owner
    return memoryview(np.ascontiguousarray(values)).cast("B").cast("q")


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
    verdict rule.  ``key`` names the position of a negative, forward,
    non-strict row with ``right is left`` that a search adjacency may
    be sorted by (see :meth:`search`).
    """

    def __init__(self, rows: Iterable[RankRow], key: int | None = None) -> None:
        self.rows = tuple(
            row if row.right is not None else row._replace(right=row.left)
            for row in rows
        )
        self.negative = tuple(r for r in self.rows if r.name != POSITIVE_CUT)
        self.positive = tuple(r for r in self.rows if r.name == POSITIVE_CUT)
        self.key = None if key is None else self.rows[key]
        # The bisect must never cut v itself: v meets its own key bound.
        if self.key is not None and (
            self.key.name == POSITIVE_CUT
            or self.key.strict
            or self.key.reverse
            or self.key.right is not self.key.left
        ):
            raise ValueError(f"row {key} cannot be a search key")
        #: The negative rows a child of a key-sorted row is tested by.
        self.unkeyed = tuple(r for r in self.negative if r is not self.key)
        # Each row unpacked once: the numpy comparison for classify, and
        # plain-int views of the same buffers for the scalar paths.
        self._negative_masks = self._masks(self.negative)
        self._positive_masks = self._masks(self.positive)
        self._negative_ints = self._plain(self.negative)
        self._positive_ints = self._plain(self.positive)
        # The search's rows as bounds on a child, walking the graph's
        # CSR or, bisecting by the key, a key-sorted adjacency.
        self._search_plan = _bound_plan(self._negative_ints, self._positive_ints)
        if self.key is not None:
            self._keyed_plan = _bound_plan(
                self._plain(self.unkeyed), self._positive_ints
            )
            self._key_right = plain_view(self.key.right)

    @staticmethod
    def _masks(rows) -> tuple:
        return tuple(
            (np.less if r.strict else np.less_equal, r.left, r.right, r.reverse)
            for r in rows
        )

    @staticmethod
    def _plain(rows) -> tuple:
        return tuple(
            (r.name, plain_view(r.left), plain_view(r.right), r.strict, r.reverse)
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

    def search(self, index, u: int, v: int, adjacency=None) -> bool:
        """The pruned DFS from ``u`` for a pair no cut decided: the
        python reference of every rank-row family's search.

        Walks ``index.graph``'s out-CSR with the index's timestamped
        ``_visited`` marks, or, when the table has a ``key`` and
        ``adjacency`` is given, the rows of ``adjacency`` (an
        :class:`~repro.core.index.XSortedAdjacency` sorted by the key
        row).  Then one ``bisect_right`` per expanded
        vertex finds ``cut``, the first child failing the key row, and
        the suffix ``[cut, hi)`` is pruned as a block
        (``stats.pruned += hi - cut``).  Each first-seen child of the
        rest is tested as ``classify_one(child, v)`` would test it: a
        failing negative row prunes it (``stats.pruned += 1``), a holding
        positive group proves the pair.  ``stats.expanded`` counts each
        popped vertex before the active guard's ``step()``; the counters
        reach ``index.stats`` even when the guard raises.
        """
        graph = index.graph
        indptr = graph.out_indptr
        if self.key is None or adjacency is None:
            indices, keys = graph.out_indices, None
            plan = self._search_plan
        else:
            indices, keys = adjacency.indices, adjacency.keys
            key_bound = self._key_right[v]
            plan = self._keyed_plan
        below, above, proof_below, proof_above = _child_bounds(plan, v)
        prove = bool(self._positive_ints)
        guard = index._guard

        index._stamp += 1
        stamp = index._stamp
        visited = index._visited
        visited[u] = stamp
        stack = [u]
        pop, push = stack.pop, stack.append
        expanded = pruned = 0
        try:
            while stack:
                w = pop()
                expanded += 1
                if guard is not None:
                    guard.step()
                lo = indptr[w]
                cut = hi = indptr[w + 1]
                if keys is not None:
                    cut = bisect_right(keys, key_bound, lo, hi)
                    pruned += hi - cut
                for k in range(lo, cut):
                    child = indices[k]
                    if child == v:
                        return True
                    if visited[child] == stamp:
                        continue
                    visited[child] = stamp
                    # A failing negative row prunes the child; a
                    # positive group that holds proves the pair.
                    for values, bound in below:
                        if values[child] > bound:
                            break
                    else:
                        for values, bound in above:
                            if values[child] < bound:
                                break
                        else:
                            for values, bound in proof_below:
                                if values[child] > bound:
                                    break
                            else:
                                for values, bound in proof_above:
                                    if values[child] < bound:
                                        break
                                else:
                                    if prove:
                                        return True
                            push(child)
                            continue
                    pruned += 1
            return False
        finally:
            stats = index.stats
            stats.expanded += expanded
            stats.pruned += pruned


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


def _bound_plan(negative, positive) -> tuple:
    """Plain-int negative and positive rows as four groups of
    ``(values, source, offset)``: a child ``c`` meets a row of the
    *below* groups iff ``values[c] ≤ source[v] + offset`` and one of the
    *above* groups iff ``values[c] ≥ source[v] + offset``.  A forward
    row is ``left[c] ≤ right[v] - strict`` (below), a reversed one
    ``right[c] ≥ left[v] + strict`` (above)."""
    return tuple(
        tuple(
            (right, left, strict) if reverse else (left, right, -strict)
            for _, left, right, strict, reverse in rows
            if reverse == above
        )
        for rows in (negative, positive)
        for above in (False, True)
    )


def _child_bounds(plan, v: int) -> list:
    """A :func:`_bound_plan` as bounds for the target ``v``: four lists
    of ``(values, bound)`` — negative below, negative above, positive
    below, positive above.  Plain loops: a comprehension costs a call
    per group, which a short search notices."""
    bounds = []
    for group in plan:
        bound = []
        for values, source, offset in group:
            bound.append((values, source[v] + offset))
        bounds.append(bound)
    return bounds
