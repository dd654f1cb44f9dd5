"""Compact directed-graph representation.

:class:`DiGraph` stores a directed graph in *compressed sparse row* (CSR)
form, once for the out-direction and once for the in-direction.  This is the
substrate every index in this library is built on:

* vertices are the dense integers ``0 .. n-1`` (the paper numbers them
  ``1 .. |V|``; we follow the Python convention);
* ``successors(u)`` / ``predecessors(u)`` are O(1) slices into flat arrays;
* the raw CSR arrays are exposed (``out_indptr``, ``out_indices``,
  ``in_indptr``, ``in_indices``) so that hot loops — index construction and
  DFS-based query answering — can avoid per-call overhead.

Instances are immutable once constructed.  Use
:class:`repro.graph.builder.GraphBuilder` to accumulate edges, the
convenience classmethods :meth:`DiGraph.from_edges` and
:meth:`DiGraph.from_adjacency`, or :meth:`DiGraph.from_arrays` when the
endpoints are already numpy arrays.  Because a graph never changes, the
per-DAG artifacts several indexes share (DFS post-order, topological
order, levels) are computed once and cached on it; see
:meth:`DiGraph.artifact`.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any, NamedTuple

import numpy as np

from repro.exceptions import GraphError

__all__ = ["DiGraph", "CsrViews", "long_array", "MAX_VERTICES"]

# C `long` is 8 bytes on LP64 but 4 on Windows/32-bit platforms; the
# numpy dtype the CSR storage is copied through must match it.
_L_DTYPE = np.dtype(f"i{array('l').itemsize}")

#: The largest vertex count the ``array('l')`` storage can index; every
#: vertex id is below it.
MAX_VERTICES = int(np.iinfo(_L_DTYPE).max)


class CsrViews(NamedTuple):
    """Int64 numpy views of a graph's four CSR arrays.

    Produced once per graph by :meth:`DiGraph.csr` and consumed by every
    numpy/C consumer (search kernels, shared-memory pages) so hot
    paths never pay a per-call ``array`` → ``ndarray`` conversion.
    """

    out_indptr: "np.ndarray"
    out_indices: "np.ndarray"
    in_indptr: "np.ndarray"
    in_indices: "np.ndarray"


def long_array(values) -> array:
    """Copy an integer numpy array into an ``array('l')`` (one memcpy).

    ``array('l')`` is the storage of every scalar-path structure in this
    library; numpy builders hand their results back through this.
    """
    out = array("l")
    out.frombytes(np.ascontiguousarray(values, dtype=_L_DTYPE).tobytes())
    return out


def _csr_from_arrays(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[array, array]:
    """Build (indptr, indices) CSR arrays grouping ``targets`` by source.

    O(|V| + |E| log |E|) in numpy: ``bincount`` + ``cumsum`` give the
    offsets and a *stable* argsort by source places the targets, so
    within each source bucket the targets keep their input order.
    """
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_vertices), out=indptr[1:])
    indices = targets[np.argsort(sources, kind="stable")]
    return long_array(indptr), long_array(indices)


def _check_count(num_vertices: int) -> None:
    if num_vertices < 0:
        raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
    if num_vertices > MAX_VERTICES:
        raise GraphError(
            f"num_vertices {num_vertices} exceeds the largest supported "
            f"count {MAX_VERTICES}"
        )


def _first_out_of_range(edge_list, n: int) -> int | None:
    """The first endpoint outside ``[0, n)``, sources scanned first."""
    for side in (0, 1):
        for edge in edge_list:
            if not 0 <= edge[side] < n:
                return edge[side]
    return None


class DiGraph:
    """An immutable directed graph over vertices ``0 .. n-1`` in CSR form.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertex ids are ``0 .. n-1``.
    edges:
        Iterable of ``(source, target)`` pairs.  Duplicate edges are kept
        as given (deduplicate in :class:`GraphBuilder` if needed); self
        loops are allowed here and removed by SCC condensation.

    Notes
    -----
    The class checks vertex ids once at construction, so traversal code can
    skip bounds checks.
    """

    __slots__ = (
        "_num_vertices",
        "_num_edges",
        "out_indptr",
        "out_indices",
        "in_indptr",
        "in_indices",
        "_csr_views",
        "_artifacts",
        "name",
        # Weak referenceability: per-graph caches (traversal scratch
        # buffers, kernel registries) key on the graph without pinning it.
        "__weakref__",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        name: str = "",
    ) -> None:
        _check_count(num_vertices)
        edge_list = edges if isinstance(edges, (list, tuple)) else list(edges)
        try:
            sources = array("l", [u for u, _ in edge_list])
            targets = array("l", [v for _, v in edge_list])
        except OverflowError:
            # An id past the C long range is out of range for any graph.
            bad = _first_out_of_range(edge_list, num_vertices)
            if bad is None:
                raise
            raise GraphError(
                f"edge endpoint {bad} out of range [0, {num_vertices})"
            ) from None
        self._init_csr(
            num_vertices,
            np.frombuffer(sources, dtype=_L_DTYPE),
            np.frombuffer(targets, dtype=_L_DTYPE),
            name,
        )

    def _init_csr(
        self,
        num_vertices: int,
        sources: np.ndarray,
        targets: np.ndarray,
        name: str,
    ) -> None:
        n = num_vertices
        for endpoint in (sources, targets):
            bad = (endpoint < 0) | (endpoint >= n)
            if bad.any():
                raise GraphError(
                    f"edge endpoint {int(endpoint[bad.argmax()])} out of "
                    f"range [0, {n})"
                )
        sources = sources.astype(np.int64, copy=False)
        targets = targets.astype(np.int64, copy=False)
        self._num_vertices = n
        self._num_edges = len(sources)
        self.out_indptr, self.out_indices = _csr_from_arrays(n, sources, targets)
        self.in_indptr, self.in_indices = _csr_from_arrays(n, targets, sources)
        self._csr_views = None
        self._artifacts = None
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        num_vertices: int | None = None,
        name: str = "",
    ) -> "DiGraph":
        """Build a graph from an edge list, inferring ``n`` when omitted.

        When ``num_vertices`` is ``None``, ``n`` is one more than the largest
        endpoint mentioned (0 for an empty edge list).
        """
        edge_list = list(edges)
        if num_vertices is None:
            num_vertices = (
                1 + max(max(u, v) for u, v in edge_list) if edge_list else 0
            )
        return cls(num_vertices, edge_list, name=name)

    @classmethod
    def from_arrays(
        cls,
        num_vertices: int,
        sources,
        targets,
        name: str = "",
    ) -> "DiGraph":
        """Build a graph from two parallel integer arrays of endpoints.

        Edge ``i`` is ``(sources[i], targets[i])``; the result equals
        ``DiGraph(num_vertices, zip(sources, targets), name)`` — same CSR
        arrays, same out-of-range :class:`GraphError` (the first bad
        source, else the first bad target) — without a Python loop over
        the edges.  File readers and the condensation build through it.
        """
        _check_count(num_vertices)
        sources = np.asarray(sources)
        targets = np.asarray(targets)
        if sources.ndim != 1 or sources.shape != targets.shape:
            raise GraphError(
                "sources and targets must be 1-D arrays of equal length, "
                f"got shapes {sources.shape} and {targets.shape}"
            )
        if len(sources) and (
            sources.dtype.kind not in "iu" or targets.dtype.kind not in "iu"
        ):
            raise GraphError(
                "edge endpoints must be integers, got dtypes "
                f"{sources.dtype} and {targets.dtype}"
            )
        graph = cls.__new__(cls)
        graph._init_csr(num_vertices, sources, targets, name)
        return graph

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Sequence[Iterable[int]],
        name: str = "",
    ) -> "DiGraph":
        """Build a graph from per-vertex successor lists."""
        edges = [
            (u, v) for u, succ in enumerate(adjacency) for v in succ
        ]
        return cls(len(adjacency), edges, name=name)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of directed edges (duplicates counted)."""
        return self._num_edges

    def vertices(self) -> range:
        """The vertex ids, as a :class:`range`."""
        return range(self._num_vertices)

    def successors(self, u: int) -> array:
        """The out-neighbours of ``u`` (a fresh array slice)."""
        return self.out_indices[self.out_indptr[u] : self.out_indptr[u + 1]]

    def predecessors(self, u: int) -> array:
        """The in-neighbours of ``u`` (a fresh array slice)."""
        return self.in_indices[self.in_indptr[u] : self.in_indptr[u + 1]]

    def out_degree(self, u: int) -> int:
        """Number of out-edges of ``u``."""
        return self.out_indptr[u + 1] - self.out_indptr[u]

    def in_degree(self, u: int) -> int:
        """Number of in-edges of ``u``."""
        return self.in_indptr[u + 1] - self.in_indptr[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all directed edges as ``(source, target)`` pairs."""
        indptr, indices = self.out_indptr, self.out_indices
        for u in range(self._num_vertices):
            for k in range(indptr[u], indptr[u + 1]):
                yield u, indices[k]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as ``int64`` ``(sources, targets)`` arrays, in the
        order :meth:`edges` yields them (the targets are the cached
        :meth:`csr` view, not a copy)."""
        views = self.csr()
        sources = np.repeat(
            np.arange(self._num_vertices, dtype=np.int64),
            np.diff(views.out_indptr),
        )
        return sources, views.out_indices

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` exists (linear in deg(u))."""
        indptr = self.out_indptr
        indices = self.out_indices
        for k in range(indptr[u], indptr[u + 1]):
            if indices[k] == v:
                return True
        return False

    def roots(self) -> list[int]:
        """Vertices with no incoming edges."""
        indptr = self.in_indptr
        return [v for v in range(self._num_vertices) if indptr[v] == indptr[v + 1]]

    def leaves(self) -> list[int]:
        """Vertices with no outgoing edges."""
        indptr = self.out_indptr
        return [v for v in range(self._num_vertices) if indptr[v] == indptr[v + 1]]

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "DiGraph":
        """The graph with every edge direction flipped.

        Used by FELINE-I / FELINE-B: the reversed index answers ``r(u, v)``
        on this graph as ``r(v, u)`` on the reversal.
        """
        rev = DiGraph.__new__(DiGraph)
        rev._num_vertices = self._num_vertices
        rev._num_edges = self._num_edges
        rev.out_indptr = self.in_indptr
        rev.out_indices = self.in_indices
        rev.in_indptr = self.out_indptr
        rev.in_indices = self.out_indices
        views = self._csr_views
        rev._csr_views = (
            CsrViews(
                out_indptr=views.in_indptr,
                out_indices=views.in_indices,
                in_indptr=views.out_indptr,
                in_indices=views.out_indices,
            )
            if views is not None
            else None
        )
        rev._artifacts = None  # orders and levels differ on the reversal
        rev.name = f"{self.name}-reversed" if self.name else "reversed"
        return rev

    # ------------------------------------------------------------------
    # flat numpy export (search kernels, shared-memory pages)
    # ------------------------------------------------------------------
    def csr(self) -> CsrViews:
        """Cached ``int64`` numpy views of the four CSR arrays.

        Created on first use (zero-copy where the platform ``long`` is
        already 8 bytes) and reused by every kernel invocation;
        :meth:`adopt_csr` swaps them for shared-memory-backed copies.
        """
        views = self._csr_views
        if views is None:
            from repro.perf.cut_table import view_i64

            views = CsrViews(
                out_indptr=view_i64(self.out_indptr),
                out_indices=view_i64(self.out_indices),
                in_indptr=view_i64(self.in_indptr),
                in_indices=view_i64(self.in_indices),
            )
            self._csr_views = views
        return views

    def adopt_csr(self, views: CsrViews) -> CsrViews:
        """Replace the cached numpy CSR views (shared-memory adoption).

        Returns the previous views so callers can restore them when the
        shared arena is torn down.  The ``array`` storage is untouched —
        scalar traversals keep reading it — only numpy consumers move to
        the adopted arrays.
        """
        previous = self.csr()
        self._csr_views = views
        return previous

    def artifact(self, key: str, build: Callable[[], Any]) -> Any:
        """The derived artifact ``key``, built by ``build()`` on first use.

        Graph algorithms (DFS post-order, topological order, levels)
        cache their default-argument results here, so the several indexes
        and observer layers built on one DAG share a single computation.
        The stored object is shared: callers must hand out copies.  A
        failed ``build()`` caches nothing.
        """
        cache = self._artifacts
        if cache is None:
            cache = self._artifacts = {}
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the CSR arrays, in bytes."""
        return sum(
            arr.itemsize * len(arr)
            for arr in (
                self.out_indptr,
                self.out_indices,
                self.in_indptr,
                self.in_indices,
            )
        )

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_vertices

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<DiGraph{label} |V|={self._num_vertices} |E|={self._num_edges}>"
        )
