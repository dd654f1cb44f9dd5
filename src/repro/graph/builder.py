"""Mutable accumulator for constructing :class:`~repro.graph.digraph.DiGraph`.

:class:`GraphBuilder` collects edges incrementally — from generators, file
parsers or algorithmic constructions — and produces an immutable CSR graph
at the end.  Duplicate edges and self loops, the two clean-ups every
dataset loader in this library needs, are governed by per-kind policies:

* ``"keep"`` — record the edge as-is (the default; matches raw input);
* ``"drop"`` — silently discard it (what permissive loaders want);
* ``"error"`` — raise :class:`~repro.exceptions.GraphError` (what the
  strict ingestion paths of :mod:`repro.graph.io` want: a malformed
  dataset should fail loudly at the line that is wrong, not produce a
  subtly different graph).

The legacy boolean knobs ``dedup`` / ``drop_self_loops`` remain accepted
and map to the ``"drop"`` policies.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import GraphError
from repro.graph.digraph import MAX_VERTICES, DiGraph

__all__ = ["GraphBuilder", "EDGE_POLICIES"]

#: Valid values for ``on_duplicate`` / ``on_self_loop``.
EDGE_POLICIES = ("keep", "drop", "error")


class GraphBuilder:
    """Accumulates edges and vertices, then builds a :class:`DiGraph`.

    Parameters
    ----------
    num_vertices:
        Initial vertex count.  May grow via :meth:`add_vertex` or
        automatically when ``auto_grow`` is true and an edge mentions a
        vertex id beyond the current count.
    dedup:
        Legacy alias for ``on_duplicate="drop"``.
    drop_self_loops:
        Legacy alias for ``on_self_loop="drop"``.
    on_duplicate, on_self_loop:
        One of :data:`EDGE_POLICIES`; override the legacy booleans when
        given.
    max_vertices:
        Upper bound on the vertex count; growing past it (explicitly or
        via ``auto_grow``) raises :class:`GraphError`.  Guards loaders
        against a corrupt id (e.g. ``999999999999``) silently allocating
        gigabytes of CSR arrays.

    Examples
    --------
    >>> b = GraphBuilder(auto_grow=True)
    >>> b.add_edge(0, 1)
    >>> b.add_edge(1, 2)
    >>> g = b.build()
    >>> g.num_vertices, g.num_edges
    (3, 2)
    """

    def __init__(
        self,
        num_vertices: int = 0,
        dedup: bool = False,
        drop_self_loops: bool = False,
        auto_grow: bool = False,
        on_duplicate: str | None = None,
        on_self_loop: str | None = None,
        max_vertices: int | None = None,
    ) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        if on_duplicate is None:
            on_duplicate = "drop" if dedup else "keep"
        if on_self_loop is None:
            on_self_loop = "drop" if drop_self_loops else "keep"
        for name, policy in (
            ("on_duplicate", on_duplicate),
            ("on_self_loop", on_self_loop),
        ):
            if policy not in EDGE_POLICIES:
                raise GraphError(
                    f"{name} must be one of {EDGE_POLICIES}, got {policy!r}"
                )
        if max_vertices is not None and num_vertices > max_vertices:
            raise GraphError(
                f"num_vertices {num_vertices} exceeds max_vertices "
                f"{max_vertices}"
            )
        self._num_vertices = num_vertices
        self._edges: list[tuple[int, int]] = []
        self._on_duplicate = on_duplicate
        self._on_self_loop = on_self_loop
        self._seen: set[tuple[int, int]] | None = (
            set() if on_duplicate != "keep" else None
        )
        self._auto_grow = auto_grow
        self._max_vertices = max_vertices

    @property
    def num_vertices(self) -> int:
        """Current vertex count."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges accumulated so far (after dedup / loop drops)."""
        return len(self._edges)

    def _grow_to(self, count: int) -> None:
        if self._max_vertices is not None and count > self._max_vertices:
            raise GraphError(
                f"vertex count {count} exceeds max_vertices "
                f"{self._max_vertices}"
            )
        if count > MAX_VERTICES:
            raise GraphError(
                f"vertex count {count} exceeds the largest supported "
                f"count {MAX_VERTICES}"
            )
        self._num_vertices = count

    def add_vertex(self) -> int:
        """Allocate one more vertex and return its id."""
        vid = self._num_vertices
        self._grow_to(vid + 1)
        return vid

    def ensure_vertices(self, count: int) -> None:
        """Grow the vertex count to at least ``count``."""
        if count > self._num_vertices:
            self._grow_to(count)

    def add_edge(self, u: int, v: int) -> None:
        """Record the directed edge ``(u, v)``.

        Raises :class:`GraphError` if an endpoint is out of range and
        ``auto_grow`` is off, if growth would pass ``max_vertices``, or
        if the edge trips an ``"error"`` duplicate/self-loop policy.
        """
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex id in edge ({u}, {v})")
        top = max(u, v)
        if top >= self._num_vertices:
            if not self._auto_grow:
                raise GraphError(
                    f"edge ({u}, {v}) exceeds vertex count "
                    f"{self._num_vertices} (auto_grow is off)"
                )
            self._grow_to(top + 1)
        if u == v and self._on_self_loop != "keep":
            if self._on_self_loop == "error":
                raise GraphError(f"self-loop ({u}, {v}) not allowed")
            return
        if self._seen is not None:
            key = (u, v)
            if key in self._seen:
                if self._on_duplicate == "error":
                    raise GraphError(f"duplicate edge ({u}, {v})")
                return
            self._seen.add(key)
        self._edges.append((u, v))

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Record many edges; equivalent to repeated :meth:`add_edge`."""
        for u, v in edges:
            self.add_edge(u, v)

    def build(self, name: str = "") -> DiGraph:
        """Produce the immutable CSR graph from the accumulated edges."""
        return DiGraph(self._num_vertices, self._edges, name=name)
