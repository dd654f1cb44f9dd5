"""FELINE index persistence — build once, reload or memory-map later.

The paper's conclusion lists an *out-of-core* FELINE among the planned
extensions.  The index is four flat integer arrays, which makes it
naturally storage-friendly; this module defines a binary format and two
loading modes:

* ``mmap=False`` — read the arrays back into RAM (fast queries,
  construction cost skipped);
* ``mmap=True`` — back the arrays with :class:`numpy.memmap`, so the
  index pages in on demand and the resident footprint stays O(pages
  touched), the out-of-core access pattern (queries only touch the
  coordinates of vertices the pruned DFS actually visits).

Two on-disk versions exist.  v1 (little-endian)::

    magic     8 bytes  b"FELINEi1"
    n         u64      vertex count
    flags     u64      bit 0: levels present, bit 1: tree intervals present
    x         n × i64
    y         n × i64
    [levels   n × i64]
    [start    n × i64]
    [post     n × i64]

v2 — the default written format — adds integrity checksums so silent
bit-rot is detected at load time instead of surfacing as wrong answers::

    magic       8 bytes  b"FELINEi2"
    n           u64
    flags       u64      low 32: feature bits, high 32: observer count k
    header_crc  u32      CRC32 over magic ‖ n ‖ flags
    crc[i]      u32 × S  CRC32 of each section payload (S from flags)
    sections    payloads in flag order (sizes from the section layout)

Flag bit 2 marks an attached :class:`~repro.perf.ObserverLayer`
(:mod:`repro.perf.observers`): four ``n × i64`` rank/interval arrays,
the ``k × i64`` supporting vertices, and two ``n × ⌈k/8⌉`` packed
reachability bit matrices ride behind the coordinate sections, each
with its own checksum.  Observer persistence is v2-only — the layer's
bit matrices need the variable-size section layout.

Every load failure raises a structured :class:`PersistenceError` (with
``path`` and the byte ``offset`` where the problem was detected) or its
subclass :class:`ChecksumError` (with the failing ``section``) — never a
raw :class:`struct.error` or numpy exception.  v1 files remain readable;
they simply carry no checksums to verify.

The graph itself is *not* stored — FELINE is an online-search index, so
the caller keeps the graph (e.g. via :mod:`repro.graph.io`) and pairs it
with the loaded coordinates.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from pathlib import Path

import numpy as np

from repro.core.index import FelineCoordinates
from repro.core.query import FelineIndex
from repro.exceptions import ChecksumError, PersistenceError
from repro.graph.digraph import DiGraph
from repro.graph.spanning import IntervalLabels
from repro.resilience import chaos

__all__ = [
    "FORMAT_VERSIONS",
    "save_coordinates",
    "load_coordinates",
    "save_index",
    "load_index",
]

_MAGIC_V1 = b"FELINEi1"
_MAGIC_V2 = b"FELINEi2"
_FLAG_LEVELS = 1
_FLAG_INTERVALS = 2
_FLAG_OBSERVERS = 4
_KNOWN_FLAGS = _FLAG_LEVELS | _FLAG_INTERVALS | _FLAG_OBSERVERS
_CRC_CHUNK = 1 << 20

FORMAT_VERSIONS = (1, 2)


def _array_bytes(values) -> bytes:
    return np.asarray(values, dtype="<i8").tobytes()


def _section_layout(n: int, flags: int) -> list[tuple[str, int]]:
    """The file's ``(section name, payload bytes)`` list, in disk order.

    Derived purely from the header so reader and writer can never
    disagree; observer sections are variable-size (``k`` lives in the
    high 32 bits of ``flags``).
    """
    layout = [("x", 8 * n), ("y", 8 * n)]
    if flags & _FLAG_LEVELS:
        layout.append(("levels", 8 * n))
    if flags & _FLAG_INTERVALS:
        layout.extend([("start", 8 * n), ("post", 8 * n)])
    if flags & _FLAG_OBSERVERS:
        k = flags >> 32
        row = (k + 7) // 8
        layout.extend([
            ("obs_t1", 8 * n),
            ("obs_t2", 8 * n),
            ("obs_fmax", 8 * n),
            ("obs_bmin", 8 * n),
            ("obs_supports", 8 * k),
            ("obs_fwd", row * n),
            ("obs_bwd", row * n),
        ])
    return layout


def _read_exact(handle, count: int, path: Path, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise PersistenceError(
            f"{path}: truncated index file while reading {what} "
            f"(wanted {count} bytes, got {len(data)})",
            path=path,
            offset=handle.tell() - len(data),
        )
    return data


def _crc_range(handle, offset: int, length: int) -> int:
    """CRC32 of ``length`` bytes at ``offset``, streamed in chunks."""
    handle.seek(offset)
    crc = 0
    remaining = length
    while remaining:
        chunk = handle.read(min(_CRC_CHUNK, remaining))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
        remaining -= len(chunk)
    return crc


def save_coordinates(
    coords: FelineCoordinates,
    path: str | Path,
    version: int = 2,
    observers=None,
) -> None:
    """Write a :class:`FelineCoordinates` to ``path``.

    ``version=2`` (the default) writes the checksummed format; ``version=1``
    writes the legacy format for interchange with older readers.  An
    attached :class:`~repro.perf.ObserverLayer` rides along via
    ``observers`` (v2 only — v1 has no variable-size sections).
    """
    if version not in FORMAT_VERSIONS:
        raise PersistenceError(
            f"unsupported index format version {version}", path=path
        )
    if observers is not None and version != 2:
        raise PersistenceError(
            "observer layers need format version 2 "
            "(v1 cannot carry variable-size sections)",
            path=path,
        )
    path = Path(path)
    chaos.fire("persistence.save", path=str(path), version=version)
    flags = 0
    if coords.levels is not None:
        flags |= _FLAG_LEVELS
    if coords.tree_intervals is not None:
        flags |= _FLAG_INTERVALS

    payloads = [_array_bytes(coords.x), _array_bytes(coords.y)]
    if coords.levels is not None:
        payloads.append(_array_bytes(coords.levels))
    if coords.tree_intervals is not None:
        payloads.append(_array_bytes(coords.tree_intervals.start))
        payloads.append(_array_bytes(coords.tree_intervals.post))
    if observers is not None:
        if observers.num_vertices != coords.num_vertices:
            raise PersistenceError(
                f"observer layer covers {observers.num_vertices} vertices "
                f"but the coordinates cover {coords.num_vertices}",
                path=path,
            )
        flags |= _FLAG_OBSERVERS | (observers.k << 32)
        payloads.extend([
            _array_bytes(observers.t1),
            _array_bytes(observers.t2),
            _array_bytes(observers.fmax),
            _array_bytes(observers.bmin),
            _array_bytes(observers.supports),
            np.ascontiguousarray(
                observers.fwd_bits, dtype=np.uint8
            ).tobytes(),
            np.ascontiguousarray(
                observers.bwd_bits, dtype=np.uint8
            ).tobytes(),
        ])

    magic = _MAGIC_V1 if version == 1 else _MAGIC_V2
    header = struct.pack("<QQ", coords.num_vertices, flags)
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(header)
        if version == 2:
            handle.write(struct.pack("<I", zlib.crc32(magic + header)))
            for payload in payloads:
                handle.write(struct.pack("<I", zlib.crc32(payload)))
        for payload in payloads:
            handle.write(payload)


def load_coordinates(
    path: str | Path, mmap: bool = False, with_observers: bool = False
):
    """Read coordinates back; ``mmap=True`` pages them in lazily.

    Both v1 and v2 files are accepted (the magic selects the decoder).
    For v2 files every section checksum is verified up front — also in
    mmap mode, where verification streams the file once so later page-ins
    are known-good.

    Returns the :class:`FelineCoordinates`; with ``with_observers=True``
    returns ``(coords, observer_layer_or_None)`` instead, decoding any
    persisted :class:`~repro.perf.ObserverLayer` sections.
    """
    path = Path(path)
    chaos.fire("persistence.load", path=str(path), mmap=mmap)
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC_V2))
        if len(magic) < len(_MAGIC_V2):
            raise PersistenceError(
                f"{path}: truncated index file (no complete magic; "
                f"got {len(magic)} bytes)",
                path=path,
                offset=0,
            )
        if magic == _MAGIC_V1:
            version = 1
        elif magic == _MAGIC_V2:
            version = 2
        else:
            raise PersistenceError(
                f"{path}: not a FELINE index file (bad magic {magic!r})",
                path=path,
                offset=0,
            )
        header = _read_exact(handle, 16, path, "header")
        n, flags = struct.unpack("<QQ", header)
        feature_bits = flags & 0xFFFFFFFF
        if feature_bits & ~_KNOWN_FLAGS or (
            flags >> 32 and not feature_bits & _FLAG_OBSERVERS
        ):
            raise PersistenceError(
                f"{path}: unknown flag bits {flags:#x} in index header",
                path=path,
                offset=len(magic) + 8,
            )
        if version == 1 and feature_bits & _FLAG_OBSERVERS:
            raise PersistenceError(
                f"{path}: v1 index files cannot carry observer sections",
                path=path,
                offset=len(magic) + 8,
            )
        layout = _section_layout(n, flags)
        section_crcs: tuple[int, ...] | None = None
        if version == 2:
            stored = struct.unpack(
                "<I", _read_exact(handle, 4, path, "header checksum")
            )[0]
            if stored != zlib.crc32(magic + header):
                raise ChecksumError(
                    f"{path}: header checksum mismatch "
                    f"(file is corrupt or was partially written)",
                    path=path,
                    offset=len(magic) + 16,
                    section="header",
                )
            table = _read_exact(
                handle, 4 * len(layout), path, "section checksum table"
            )
            section_crcs = struct.unpack(f"<{len(layout)}I", table)
        data_start = handle.tell()

        offsets: dict[str, int] = {}
        sizes: dict[str, int] = {}
        cursor = data_start
        for name, nbytes in layout:
            offsets[name] = cursor
            sizes[name] = nbytes
            cursor += nbytes
        expected = cursor
        actual = path.stat().st_size
        if actual != expected:
            raise PersistenceError(
                f"{path}: truncated or corrupt index "
                f"(expected {expected} bytes, found {actual})",
                path=path,
                offset=min(actual, expected),
            )

        if section_crcs is not None:
            for i, (name, nbytes) in enumerate(layout):
                chaos.fire(
                    "persistence.load.section", path=str(path), section=name
                )
                if _crc_range(
                    handle, offsets[name], nbytes
                ) != section_crcs[i]:
                    raise ChecksumError(
                        f"{path}: checksum mismatch in section {name!r} "
                        f"(corrupt index data)",
                        path=path,
                        offset=offsets[name],
                        section=name,
                    )

    def int_section(name: str, count: int):
        """An ``i64`` section as a numpy (mmap) or stdlib array."""
        if not count:
            return np.zeros(0, dtype=np.int64)
        if mmap:
            return np.memmap(
                path, dtype="<i8", mode="r",
                offset=offsets[name], shape=(count,),
            )
        data = np.fromfile(
            path, dtype="<i8", count=count, offset=offsets[name]
        )
        return array("l", data.tolist())

    def bit_section(name: str, rows: int, row_bytes: int):
        """A packed ``uint8`` bit-matrix section (observer bitsets)."""
        if not rows * row_bytes:
            return np.zeros((rows, row_bytes), dtype=np.uint8)
        if mmap:
            return np.memmap(
                path, dtype=np.uint8, mode="r",
                offset=offsets[name], shape=(rows, row_bytes),
            )
        return np.fromfile(
            path, dtype=np.uint8, count=rows * row_bytes,
            offset=offsets[name],
        ).reshape(rows, row_bytes)

    x = int_section("x", n)
    y = int_section("y", n)
    levels = int_section("levels", n) if flags & _FLAG_LEVELS else None
    tree_intervals = None
    if flags & _FLAG_INTERVALS:
        tree_intervals = IntervalLabels(
            start=int_section("start", n), post=int_section("post", n)
        )
    coords = FelineCoordinates(
        x=x, y=y, levels=levels, tree_intervals=tree_intervals
    )
    if not with_observers:
        return coords
    observers = None
    if feature_bits & _FLAG_OBSERVERS:
        from repro.perf.observers import ObserverLayer

        k = flags >> 32
        row = (k + 7) // 8
        observers = ObserverLayer(
            t1=np.asarray(int_section("obs_t1", n), dtype=np.int64),
            t2=np.asarray(int_section("obs_t2", n), dtype=np.int64),
            fmax=np.asarray(int_section("obs_fmax", n), dtype=np.int64),
            bmin=np.asarray(int_section("obs_bmin", n), dtype=np.int64),
            supports=np.asarray(
                int_section("obs_supports", k), dtype=np.int64
            ),
            fwd_bits=bit_section("obs_fwd", n, row),
            bwd_bits=bit_section("obs_bwd", n, row),
        )
    return coords, observers


def save_index(
    index: FelineIndex, path: str | Path, version: int = 2
) -> None:
    """Persist a built :class:`FelineIndex`'s coordinate structure.

    An attached observer layer is persisted alongside (v2 only), so a
    reload restores the exact same pre-pass behaviour.
    """
    if index.coordinates is None:
        raise PersistenceError(
            "cannot save an unbuilt index; call build() first", path=path
        )
    save_coordinates(
        index.coordinates, path, version=version, observers=index.observers
    )


def load_index(
    graph: DiGraph, path: str | Path, mmap: bool = False
) -> FelineIndex:
    """Reattach saved coordinates to ``graph``, skipping construction.

    The caller is responsible for pairing the file with the same graph it
    was built on; a vertex-count mismatch is rejected, anything subtler
    is caught by :func:`repro.resilience.verify_index` (the format stores
    no graph fingerprint to stay O(index) on disk).  Persisted observer
    sections are reattached via
    :meth:`~repro.baselines.base.ReachabilityIndex.attach_observers`.
    """
    coords, observers = load_coordinates(
        path, mmap=mmap, with_observers=True
    )
    if coords.num_vertices != graph.num_vertices:
        raise PersistenceError(
            f"index file covers {coords.num_vertices} vertices but the "
            f"graph has {graph.num_vertices}",
            path=path,
        )
    index = FelineIndex(graph)
    # Loaded indexes skip build(), so derive the X-sorted adjacency,
    # materialize the batch engine's cut table and bind the search
    # kernel here; numpy views work over both in-memory and mmap arrays.
    index.attach_coordinates(coords)
    index._cut_table = index._make_cut_table()
    index._built = True
    index._bind_kernel()
    index._bind_classify()
    if observers is not None:
        index.attach_observers(observers)
    return index
