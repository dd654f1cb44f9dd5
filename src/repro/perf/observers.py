"""Observer cuts: O'Reach-style supporting vertices in front of any index.

O'Reach (PAPERS.md) shows that a handful of well-chosen *supporting
vertices* plus topological min/max intervals answer a large fraction of
reachability queries in O(1) — *before* any index-specific structure is
consulted.  This module packages that idea as an :class:`ObserverLayer` that
runs in front of **every** family's
:class:`~repro.perf.cut_table.CutTable`: the batch engine
(:mod:`repro.perf.engine`) runs :meth:`ObserverLayer.classify` as a
vectorized pre-pass, and the scalar query chain
(:meth:`~repro.baselines.base.ReachabilityIndex._answer`) runs
:meth:`ObserverLayer.decide` before the table's ``classify_one``.

The layer holds a few numpy arrays over the DAG's ``n`` vertices:

* ``t1`` / ``t2`` — two topological rank arrays (DFS-based and Kahn);
  ``u ⇝ v`` with ``u != v`` forces ``t1[u] < t1[v]`` *and*
  ``t2[u] < t2[v]``, so either rank out of order is a negative cut
  (the FELINE dominance argument, reused here as the cheapest check);
* ``fmax`` — ``fmax[u] = max{t1[w] : u ⇝ w}``: a target ranked above
  everything reachable from ``u`` is unreachable;
* ``bmin`` — ``bmin[v] = min{t1[w] : w ⇝ v}``: a source ranked below
  everything reaching ``v`` cannot reach it;
* ``supports`` + ``fwd_bits`` / ``bwd_bits`` — ``k`` supporting
  vertices ``s_i`` with per-vertex bitsets: bit ``i`` of ``fwd_bits[v]``
  means ``s_i ⇝ v``, bit ``i`` of ``bwd_bits[v]`` means ``v ⇝ s_i``
  (both reflexive).  They give one O(k/64) positive cut and two
  negative contrapositives:

  - **positive**: ``∃i: u ⇝ s_i ∧ s_i ⇝ v  ⇒  u ⇝ v``;
  - **negative**: ``∃i: s_i ⇝ u ∧ ¬(s_i ⇝ v)  ⇒  ¬(u ⇝ v)`` (anything
    below an observer that sees ``u`` would also be seen by it);
  - **negative**: ``∃i: v ⇝ s_i ∧ ¬(u ⇝ s_i)  ⇒  ¬(u ⇝ v)``.

Every check is a sound deduction from exact reachability data, so the
layer never contradicts the index behind it — it only shrinks the
survivor set the online search must process.  Supporting vertices are
selected by :func:`build_observers` at build time: degree-ranked
candidates get exact ancestor/descendant sets (one bitset DP over the
DAG's levels), scored by the number of (ordered) pairs each would
decide, and the top ``k`` win.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.levels import edge_positions, level_order
from repro.graph.toposort import (
    dfs_topological_order,
    kahn_order,
    ranks_from_order,
)

__all__ = ["ObserverLayer", "build_observers"]

_FIELDS = ("t1", "t2", "fmax", "bmin", "supports", "fwd_bits", "bwd_bits")


class ObserverLayer:
    """The built observer arrays plus their scalar and batch checks.

    Instances are immutable value objects produced by
    :func:`build_observers` (or reattached by
    :mod:`repro.core.persistence`); attach one to an index with
    :meth:`~repro.baselines.base.ReachabilityIndex.attach_observers`.
    """

    def __init__(
        self,
        t1: np.ndarray,
        t2: np.ndarray,
        fmax: np.ndarray,
        bmin: np.ndarray,
        supports: np.ndarray,
        fwd_bits: np.ndarray,
        bwd_bits: np.ndarray,
    ) -> None:
        self.t1, self.t2, self.fmax, self.bmin = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (t1, t2, fmax, bmin)
        )
        # decide() reads plain ints through memoryviews of the same
        # buffers: no numpy scalars, no copy, and an mmap-loaded layer
        # stays lazy.
        self._t1, self._t2, self._fmax, self._bmin = map(
            memoryview, (self.t1, self.t2, self.fmax, self.bmin)
        )
        self.supports = np.asarray(supports, dtype=np.int64)
        self.fwd_bits = np.asarray(fwd_bits, dtype=np.uint8)
        self.bwd_bits = np.asarray(bwd_bits, dtype=np.uint8)
        # Python-int mirrors of the bit rows for the scalar decide();
        # built lazily so an mmap-loaded layer stays lazy until the
        # scalar path is actually used.
        self._fwd_ints: list[int] | None = None
        self._bwd_ints: list[int] | None = None

    def __reduce__(self):
        # The memoryviews do not pickle; rebuild them from the arrays.
        return ObserverLayer, tuple(getattr(self, a) for a in _FIELDS)

    @property
    def num_vertices(self) -> int:
        return len(self.t1)

    @property
    def k(self) -> int:
        """Number of supporting vertices (0 = interval checks only)."""
        return len(self.supports)

    def memory_bytes(self) -> int:
        """Size of the observer arrays (the layer's index-size share)."""
        return sum(
            arr.nbytes
            for arr in (
                self.t1, self.t2, self.fmax, self.bmin,
                self.supports, self.fwd_bits, self.bwd_bits,
            )
        )

    # -- batch ----------------------------------------------------------
    def classify(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized observer cuts: disjoint ``(positive, negative)``
        masks, same contract as :meth:`CutTable.classify` (reflexive
        pairs may classify arbitrarily; the engine masks them out).
        """
        t1s, t1t = self.t1[sources], self.t1[targets]
        negative = (t1s >= t1t) | (self.t2[sources] >= self.t2[targets])
        negative |= t1t > self.fmax[sources]
        negative |= t1s < self.bmin[targets]
        if self.k:
            fwd_t = self.fwd_bits[targets]
            bwd_s = self.bwd_bits[sources]
            positive = (bwd_s & fwd_t).any(axis=1) & ~negative
            contrapositive = (
                (self.fwd_bits[sources] & ~fwd_t).any(axis=1)
                | (self.bwd_bits[targets] & ~bwd_s).any(axis=1)
            )
            negative |= contrapositive & ~positive
        else:
            positive = np.zeros(len(sources), dtype=bool)
        return positive, negative

    # -- scalar ---------------------------------------------------------
    def _ensure_ints(self) -> None:
        if self._fwd_ints is None:
            self._fwd_ints = [
                int.from_bytes(row.tobytes(), "little")
                for row in self.fwd_bits
            ]
            self._bwd_ints = [
                int.from_bytes(row.tobytes(), "little")
                for row in self.bwd_bits
            ]

    def decide(self, u: int, v: int) -> bool | None:
        """One pair through the same checks, in the same priority, as
        :meth:`classify`; ``None`` when no observer decides.

        Intended for ``u != v`` (the engine and scalar query handle the
        reflexive cut before observers run).
        """
        t1 = self._t1
        if t1[u] >= t1[v] or self._t2[u] >= self._t2[v]:
            return False
        if t1[v] > self._fmax[u] or t1[u] < self._bmin[v]:
            return False
        if self.k:
            self._ensure_ints()
            fwd_u, fwd_v = self._fwd_ints[u], self._fwd_ints[v]
            bwd_u, bwd_v = self._bwd_ints[u], self._bwd_ints[v]
            if bwd_u & fwd_v:
                return True
            if (fwd_u & ~fwd_v) or (bwd_v & ~bwd_u):
                return False
        return None

    def __repr__(self) -> str:
        return (
            f"<ObserverLayer n={self.num_vertices} k={self.k} "
            f"{self.memory_bytes()} bytes>"
        )


class _LevelSweep:
    """Level-by-level ``reduceat`` sweeps of a per-vertex DP over a DAG.

    A vertex's predecessors all sit on lower levels and its successors on
    higher ones, so one level is a batch whose inputs are final: the DP
    runs one numpy step per level instead of one Python step per vertex.
    A numpy step costs far more than a Python one, so a deep DAG — fewer
    than ``SWEEP_MIN_WORK`` vertices plus edges a level on average —
    sweeps vertex by vertex in level order instead (64 is the measured
    break-even on layered DAGs).
    """

    SWEEP_MIN_WORK = 64

    def __init__(self, graph: DiGraph) -> None:
        order, bounds = level_order(graph)
        work = graph.num_vertices + graph.num_edges
        self._order: list[int] | None = None
        if work < self.SWEEP_MIN_WORK * (len(bounds) - 1):
            self._order = order.tolist()
            self._graph = graph
            return
        views = graph.csr()
        groups = np.split(order, bounds[1:-1])
        # Per direction: (vertices with an edge, their neighbours, the
        # reduceat offsets) for each level.
        self._up = [
            self._segments(views.in_indptr, views.in_indices, g)
            for g in groups
        ]
        self._down = [
            self._segments(views.out_indptr, views.out_indices, g)
            for g in reversed(groups)
        ]

    @staticmethod
    def _segments(indptr, indices, group):
        group = group[indptr[group + 1] > indptr[group]]
        positions, starts = edge_positions(indptr, group)
        return group, indices[positions], starts

    def run(self, values: np.ndarray, reduce: np.ufunc, down: bool) -> None:
        """``values[v] = reduce(values[v], values[w] for each neighbour
        w)``, in place: over in-edges level by level upwards
        (``down=False``), or over out-edges from the deepest level down.
        """
        if self._order is not None:
            self._run_per_vertex(values, reduce, down)
            return
        for group, neighbours, starts in self._down if down else self._up:
            if len(group):
                folded = reduce.reduceat(values[neighbours], starts, axis=0)
                values[group] = reduce(values[group], folded)

    _SCALAR = {np.maximum: max, np.minimum: min, np.bitwise_or: operator.or_}

    def _run_per_vertex(
        self, values: np.ndarray, reduce: np.ufunc, down: bool
    ) -> None:
        # Rows of a 2-D ``uint64`` matrix become one Python int each.
        combine = self._SCALAR[reduce]
        if values.ndim == 1:
            cells = values.tolist()
        else:
            width = values.shape[1] * 8
            raw = values.astype("<u8", copy=False).tobytes()
            cells = [
                int.from_bytes(raw[i:i + width], "little")
                for i in range(0, len(raw), width)
            ]
        graph = self._graph
        if down:
            order = reversed(self._order)
            indptr, indices = graph.out_indptr, graph.out_indices
        else:
            order = self._order
            indptr, indices = graph.in_indptr, graph.in_indices
        for v in order:
            lo, hi = indptr[v], indptr[v + 1]
            if lo < hi:
                acc = cells[v]
                for k in range(lo, hi):
                    acc = combine(acc, cells[indices[k]])
                cells[v] = acc
        if values.ndim == 1:
            values[:] = cells
        else:
            raw = b"".join(cell.to_bytes(width, "little") for cell in cells)
            values[:] = np.frombuffer(raw, dtype="<u8").reshape(values.shape)


def _reach_matrix(
    sweep: _LevelSweep, n: int, candidates: np.ndarray, forward: bool
) -> np.ndarray:
    """Exact reachability bitsets for ``candidates``, one DP sweep.

    Returns an ``(n, len(candidates))`` boolean matrix ``M`` with
    ``M[v, j] = candidate_j ⇝ v`` (``forward=True``) or ``v ⇝
    candidate_j`` (``forward=False``); reflexive in both directions.  The
    sweep ORs ``uint64`` words (64 candidates each), unpacked once.
    """
    count = len(candidates)
    columns = np.arange(count)
    words = np.zeros((n, (count + 63) // 64), dtype=np.uint64)
    words[candidates, columns // 64] = np.left_shift(
        np.uint64(1), (columns % 64).astype(np.uint64)
    )
    sweep.run(words, np.bitwise_or, down=not forward)
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :count].astype(bool)


def build_observers(
    graph: DiGraph, k: int = 8, candidate_factor: int = 4
) -> ObserverLayer:
    """Select ``k`` supporting vertices over ``graph`` (a DAG) and build
    the full :class:`ObserverLayer`.

    ``k = 0`` still yields a useful layer (the topological interval and
    rank checks need no supports).  Candidates are the
    ``candidate_factor * k`` vertices with the largest in×out degree
    product; each gets exact ancestor/descendant sets via one bitset DP
    over the DAG's levels, is scored by the ordered pairs it would
    decide — ``|anc|·|desc|`` positives plus
    ``|desc|·(n−|desc|) + |anc|·(n−|anc|)`` contrapositive negatives —
    and the best ``k`` win.  ``t1``, the levels and the DP sweeps reuse
    the order and levels cached on ``graph``.
    """
    if k < 0:
        raise ValueError(f"observer count must be >= 0, got {k}")
    n = graph.num_vertices
    order = dfs_topological_order(graph)
    t1 = np.asarray(ranks_from_order(order), dtype=np.int64)
    t2 = np.asarray(ranks_from_order(kahn_order(graph)), dtype=np.int64)

    sweep = _LevelSweep(graph)
    fmax = t1.copy()
    sweep.run(fmax, np.maximum, down=True)
    bmin = t1.copy()
    sweep.run(bmin, np.minimum, down=False)

    k_eff = min(k, n)
    if k_eff:
        out_deg = np.diff(np.asarray(graph.out_indptr, dtype=np.int64))
        in_deg = np.diff(np.asarray(graph.in_indptr, dtype=np.int64))
        attractiveness = (in_deg + 1) * (out_deg + 1)
        pool = min(n, max(k_eff * max(candidate_factor, 1), k_eff))
        candidates = np.argsort(-attractiveness, kind="stable")[:pool]
        desc = _reach_matrix(sweep, n, candidates, forward=True)
        anc = _reach_matrix(sweep, n, candidates, forward=False)
        num_desc = desc.sum(axis=0, dtype=np.int64)
        num_anc = anc.sum(axis=0, dtype=np.int64)
        score = (
            num_anc * num_desc
            + num_desc * (n - num_desc)
            + num_anc * (n - num_anc)
        )
        chosen = np.argsort(-score, kind="stable")[:k_eff]
        supports = candidates[chosen].astype(np.int64)
        fwd_bits = np.packbits(desc[:, chosen], axis=1, bitorder="little")
        bwd_bits = np.packbits(anc[:, chosen], axis=1, bitorder="little")
    else:
        supports = np.zeros(0, dtype=np.int64)
        fwd_bits = np.zeros((n, 0), dtype=np.uint8)
        bwd_bits = np.zeros((n, 0), dtype=np.uint8)

    return ObserverLayer(
        t1=t1, t2=t2, fmax=fmax, bmin=bmin,
        supports=supports, fwd_bits=fwd_bits, bwd_bits=bwd_bits,
    )
