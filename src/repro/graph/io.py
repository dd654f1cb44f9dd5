"""Graph serialisation: edge lists, the GRAIL ``.gra`` format, and DOT.

The datasets the paper uses ship in the GRAIL adjacency format (``.gra``):

.. code-block:: text

    graph_for_greach
    <num_vertices>
    <vertex_id>: <succ_1> <succ_2> ... #
    ...

We read and write that format so our stand-in graphs interoperate with the
original C++ tools, plus plain whitespace edge lists (one ``u v`` pair per
line, ``#`` comments) and Graphviz DOT export for small-figure rendering.
"""

from __future__ import annotations

import gzip
import io
import warnings
from pathlib import Path
from typing import IO

import numpy as np

from repro.exceptions import CycleError, GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import MAX_VERTICES, DiGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_gra",
    "write_gra",
    "to_dot",
]


def _open_text(path: str | Path, mode: str) -> IO[str]:
    """Open ``path`` as text, transparently handling ``.gz`` suffixes."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _read_bytes(path: str | Path) -> bytes:
    """The raw bytes of ``path``, decompressing ``.gz`` like
    :func:`_open_text`."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as handle:
            return handle.read()
    return path.read_bytes()


# Bytes a clean edge-list body may hold.  Anything else (signs, '.', 'e',
# '_', '#', non-ASCII digits, ...) may parse differently in numpy than in
# ``int()`` — or differently across numpy versions — so it never reaches
# ``np.loadtxt``.
_CLEAN_BYTES = b"0123456789 \t\n"
# An id of 19+ digits may not fit int64, and numpy 1.x parses an integer
# that overflows through float instead of failing.
_MAX_ID_DIGITS = 18


def _clean_edge_array(data: bytes) -> np.ndarray | None:
    """The ``(m, 2)`` int64 edges of a clean edge list, else ``None``.

    Clean means: after leading blank and ``#`` lines (valid UTF-8), only
    ASCII digits, spaces, tabs and line breaks, ids of at most 18 digits,
    and exactly two ids on every non-blank line.  On such input
    ``np.loadtxt`` and the line loop of :func:`read_edge_list` agree.
    """
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start = 0
    while True:
        end = data.find(b"\n", start)
        line = data[start:] if end < 0 else data[start:end]
        stripped = line.strip()
        if stripped and not stripped.startswith(b"#"):
            break
        if end < 0:
            return None  # no edge at all: not worth a fast path
        start = end + 1
    body = data[start:]
    try:
        data[:start].decode("utf-8")
    except UnicodeDecodeError:
        return None
    if body.translate(None, _CLEAN_BYTES):
        return None
    chars = np.frombuffer(body, dtype=np.uint8)
    breaks = np.flatnonzero(chars < ord("0"))
    longest = np.diff(breaks, prepend=-1, append=len(chars)).max() - 1
    if longest > _MAX_ID_DIGITS:
        return None
    with warnings.catch_warnings():
        # A numpy that warns here parses differently from the loop.
        warnings.simplefilter("error")
        try:
            pairs = np.loadtxt(
                io.StringIO(body.decode("ascii")), dtype=np.int64, ndmin=2
            )
        except (ValueError, OverflowError, Warning):
            return None
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        return None
    return pairs


def _check_dag(graph: DiGraph, path: str | Path) -> DiGraph:
    """Raise :class:`CycleError` with a witness cycle if ``graph`` is cyclic."""
    from repro.graph.traversal import find_cycle

    cycle = find_cycle(graph)
    if cycle is not None:
        raise CycleError(
            f"{path}: graph contains a directed cycle "
            f"({' -> '.join(map(str, cycle))} -> {cycle[0]})",
            cycle=cycle,
        )
    return graph


def read_edge_list(
    path: str | Path,
    dedup: bool = False,
    name: str = "",
    strict: bool = False,
    on_duplicate: str | None = None,
    on_self_loop: str | None = None,
    max_vertices: int | None = None,
    require_dag: bool = False,
) -> DiGraph:
    """Load a whitespace edge list: one ``u v`` pair per line.

    Blank lines and lines starting with ``#`` are skipped.  Vertex count is
    inferred from the largest id mentioned.

    ``strict=True`` turns tolerated irregularities into line-numbered
    :class:`GraphError`\\ s: trailing tokens after ``u v``, duplicate edges
    and self loops all fail (the latter two overridable via the explicit
    ``on_duplicate`` / ``on_self_loop`` policies).  ``max_vertices`` caps
    the inferred vertex count so one corrupt id cannot balloon the CSR
    arrays.  ``require_dag=True`` additionally rejects cyclic inputs with
    a :class:`~repro.exceptions.CycleError` carrying a witness cycle.

    In the default mode (not ``strict``, duplicates and self loops kept),
    a clean file — ``#`` lines only at the top, then nothing but ASCII
    digits and whitespace, two ids of at most 18 digits per line — is
    parsed by ``np.loadtxt`` and built with :meth:`DiGraph.from_arrays`,
    with no Python loop per edge.  Any other input (signs, floats,
    ``1_0``, non-ASCII digits, comments after the first edge, rows of one
    or three ids, longer ids, a ``max_vertices`` overflow) takes the line
    loop, so the graph and every error are the same on both paths.
    """
    if on_duplicate is None and strict:
        on_duplicate = "error"
    if on_self_loop is None and strict:
        on_self_loop = "error"
    if (
        not dedup
        and on_duplicate in (None, "keep")
        and on_self_loop in (None, "keep")
    ):
        pairs = _clean_edge_array(_read_bytes(path))
        if pairs is not None:
            num_vertices = int(pairs.max()) + 1
            if max_vertices is None or num_vertices <= max_vertices:
                graph = DiGraph.from_arrays(
                    num_vertices,
                    pairs[:, 0],
                    pairs[:, 1],
                    name=name or Path(path).stem,
                )
                if require_dag:
                    _check_dag(graph, path)
                return graph
    builder = GraphBuilder(
        dedup=dedup,
        auto_grow=True,
        on_duplicate=on_duplicate,
        on_self_loop=on_self_loop,
        max_vertices=max_vertices,
    )
    with _open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2 or (strict and len(parts) != 2):
                raise GraphError(
                    f"{path}:{line_no}: expected 'u v', got {stripped!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(
                    f"{path}:{line_no}: non-integer vertex id in {stripped!r}"
                ) from exc
            try:
                builder.add_edge(u, v)
            except GraphError as exc:
                raise GraphError(f"{path}:{line_no}: {exc}") from exc
    graph = builder.build(name=name or Path(path).stem)
    if require_dag:
        _check_dag(graph, path)
    return graph


def write_edge_list(graph: DiGraph, path: str | Path) -> None:
    """Write ``graph`` as a whitespace edge list (with a header comment)."""
    with _open_text(path, "w") as handle:
        handle.write(f"# |V|={graph.num_vertices} |E|={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_gra(
    path: str | Path,
    name: str = "",
    strict: bool = False,
    on_duplicate: str | None = None,
    on_self_loop: str | None = None,
    require_dag: bool = False,
) -> DiGraph:
    """Load a graph in GRAIL's ``.gra`` adjacency format.

    Every malformed token raises a line-numbered :class:`GraphError` (never
    a bare :class:`ValueError`).  ``strict=True`` additionally requires the
    ``#`` terminator on each adjacency line and makes duplicate edges and
    self loops errors; ``require_dag=True`` rejects cyclic inputs with a
    :class:`~repro.exceptions.CycleError` carrying a witness cycle.
    """
    if on_duplicate is None and strict:
        on_duplicate = "error"
    if on_self_loop is None and strict:
        on_self_loop = "error"
    with _open_text(path, "r") as handle:
        header = handle.readline()
        if not header:
            raise GraphError(f"{path}: empty file")
        count_line = handle.readline().strip()
        try:
            num_vertices = int(count_line)
        except ValueError as exc:
            raise GraphError(
                f"{path}: expected vertex count on line 2, got {count_line!r}"
            ) from exc
        if num_vertices < 0:
            raise GraphError(
                f"{path}: negative vertex count {num_vertices} on line 2"
            )
        if num_vertices > MAX_VERTICES:
            raise GraphError(
                f"{path}: vertex count {num_vertices} on line 2 exceeds the "
                f"largest supported count {MAX_VERTICES}"
            )
        builder = GraphBuilder(
            num_vertices=num_vertices,
            on_duplicate=on_duplicate,
            on_self_loop=on_self_loop,
        )
        for line_no, line in enumerate(handle, start=3):
            stripped = line.strip()
            if not stripped:
                continue
            head, _, tail = stripped.partition(":")
            try:
                u = int(head)
            except ValueError as exc:
                raise GraphError(
                    f"{path}:{line_no}: bad vertex id {head!r}"
                ) from exc
            tokens = tail.split()
            terminated = False
            for token in tokens:
                if token == "#":
                    terminated = True
                    break
                try:
                    v = int(token)
                except ValueError as exc:
                    raise GraphError(
                        f"{path}:{line_no}: non-integer successor {token!r}"
                    ) from exc
                try:
                    builder.add_edge(u, v)
                except GraphError as exc:
                    raise GraphError(f"{path}:{line_no}: {exc}") from exc
            if strict and not terminated:
                raise GraphError(
                    f"{path}:{line_no}: adjacency line missing the '#' "
                    f"terminator"
                )
    graph = builder.build(name=name or Path(path).stem)
    if require_dag:
        _check_dag(graph, path)
    return graph


def write_gra(graph: DiGraph, path: str | Path) -> None:
    """Write ``graph`` in GRAIL's ``.gra`` adjacency format."""
    with _open_text(path, "w") as handle:
        handle.write("graph_for_greach\n")
        handle.write(f"{graph.num_vertices}\n")
        for u in range(graph.num_vertices):
            succ = " ".join(str(v) for v in graph.successors(u))
            handle.write(f"{u}: {succ}{' ' if succ else ''}#\n")


def to_dot(graph: DiGraph, labels: dict[int, str] | None = None) -> str:
    """Render ``graph`` as Graphviz DOT text (small graphs only)."""
    lines = ["digraph G {"]
    if labels:
        for v, label in sorted(labels.items()):
            lines.append(f'  {v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines)
