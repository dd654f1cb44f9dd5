"""Shared-memory index pages.

Forked workers (:class:`~repro.perf.pool.SearchPool`, the
``repro.shard`` tier) nominally share the parent's index copy-on-write —
but CPython touches refcounts and GC bits as objects are *read*, so the
"shared" pages silently duplicate, one copy per worker.
:class:`SharedIndexPages` fixes this for the data that matters: the flat
numpy arrays the native kernels, cut tables and batch engine read (CSR
arrays, FELINE coordinate views, observer bitsets).  They are copied
once into a single ``multiprocessing.shared_memory`` segment
(``MAP_SHARED``, typically ``/dev/shm``), and every consumer is
re-pointed at zero-copy views of that segment — after which a fork maps
the one physical copy, refcount traffic notwithstanding (numpy views
carry their refcounts in small Python objects, not in the data pages).

Lifecycle: the creating process owns the segment and unlinks it in
:meth:`close` (with a ``weakref.finalize`` backstop, so a dropped arena
cannot leak ``/dev/shm`` entries past interpreter exit).  Forked workers
need no attach step — they inherit the mapping — while unrelated
processes can :meth:`attach` by manifest.  Where POSIX shared memory is
unavailable, :meth:`create` returns ``None`` and callers gracefully stay
on fork-COW.
"""

from __future__ import annotations

import os
import weakref

import numpy as np

from repro.exceptions import ReproError

__all__ = ["SharedIndexPages", "shared_memory_available"]

# Segment offsets are rounded up to this, so every array in the arena
# starts cache-line/SIMD aligned.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def shared_memory_available() -> bool:
    """Whether POSIX shared memory works on this platform."""
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=1)
    except Exception:
        return False
    try:
        probe.close()
        probe.unlink()
    except Exception:
        pass
    return True


def _untrack(name: str) -> None:
    """Drop a segment from this process's resource tracker, if present.

    An attaching process must not let its tracker unlink a segment it
    does not own (Python < 3.13 registers unconditionally on attach).
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def _release_descriptor(shm) -> None:
    """Finish a ``SharedMemory.close`` that live buffer exports refused.

    ``close`` has already released ``shm.buf``; the mmap object stays
    alive through the views' exports and unmaps when the last one goes.
    """
    try:
        shm._mmap = None
        if shm._fd >= 0:
            os.close(shm._fd)
            shm._fd = -1
    except (AttributeError, OSError):
        pass


class SharedIndexPages:
    """One shared-memory segment holding named read-only numpy arrays.

    Build with :meth:`create` (copies the arrays in, owner semantics) or
    :meth:`attach` (maps an existing arena by :meth:`manifest`, borrower
    semantics).  :meth:`view` returns a zero-copy ndarray over the
    segment.  :meth:`close` detaches — and, for the owner, unlinks — the
    segment; live views keep the mapping alive until they are dropped,
    but the name disappears from ``/dev/shm`` immediately.
    """

    def __init__(self, shm, layout: dict, label: str, owner: bool) -> None:
        self._shm = shm
        self._layout = layout
        self.label = label
        self._owner = owner
        self._closed = False
        self.nbytes = shm.size
        # Unlink even if the arena object is dropped without close():
        # pytest's /dev/shm leak check relies on this backstop.
        self._finalizer = weakref.finalize(
            self, SharedIndexPages._cleanup, shm, owner
        )

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, arrays: dict[str, np.ndarray], label: str = "index"
    ) -> "SharedIndexPages | None":
        """Copy ``arrays`` into a fresh arena; ``None`` if shm is unusable.

        ``arrays`` maps names to numpy arrays (any dtype/shape); each is
        copied once, 64-byte aligned, into one segment sized to fit.
        """
        total = 0
        layout: dict[str, tuple[int, str, tuple[int, ...]]] = {}
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            total = _aligned(total)
            layout[name] = (total, arr.dtype.str, arr.shape)
            total += arr.nbytes
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(
                create=True, size=max(total, 1)
            )
        except Exception:
            return None
        pages = cls(shm, layout, label, owner=True)
        for name, arr in arrays.items():
            pages.view(name)[...] = np.ascontiguousarray(arr)
        return pages

    @classmethod
    def attach(cls, manifest: dict) -> "SharedIndexPages":
        """Map an existing arena from another process's :meth:`manifest`."""
        from multiprocessing import shared_memory

        name = manifest["shm_name"]
        try:
            try:
                # Python 3.13+: never register with the resource tracker.
                shm = shared_memory.SharedMemory(name=name, track=False)
            except TypeError:
                shm = shared_memory.SharedMemory(name=name)
                _untrack(name)
        except FileNotFoundError:
            raise ReproError(
                f"shared index pages segment {name!r} no longer exists"
            ) from None
        layout = {
            key: (int(offset), dtype, tuple(shape))
            for key, (offset, dtype, shape) in manifest["layout"].items()
        }
        return cls(shm, layout, manifest.get("label", "index"), owner=False)

    # ------------------------------------------------------------------
    def manifest(self) -> dict:
        """A picklable description other processes can :meth:`attach` by."""
        return {
            "shm_name": self._shm.name,
            "label": self.label,
            "layout": {
                name: (offset, dtype, list(shape))
                for name, (offset, dtype, shape) in self._layout.items()
            },
        }

    def names(self) -> list[str]:
        """The arena's array names."""
        return list(self._layout)

    def view(self, name: str) -> np.ndarray:
        """A zero-copy ndarray over the named array's pages."""
        if self._closed:
            raise ReproError(
                f"shared index pages {self.label!r} are closed"
            )
        offset, dtype, shape = self._layout[name]
        count = int(np.prod(shape, dtype=np.int64))
        if count == 0:
            return np.empty(shape, dtype=np.dtype(dtype))
        # np.frombuffer holds a buffer export on the mapping, so a view
        # outliving close() keeps its pages mapped (np.ndarray(buffer=)
        # does not: closing under it would unmap live memory).
        return np.frombuffer(
            self._shm.buf, dtype=np.dtype(dtype), count=count, offset=offset
        ).reshape(shape)

    # ------------------------------------------------------------------
    @staticmethod
    def _cleanup(shm, owner: bool) -> None:
        try:
            shm.close()
        except BufferError:
            # Live views still hold the mapping; the unlink below still
            # removes the /dev/shm name, and the memory goes when the
            # last view does.  Hand the mapping over to those views and
            # close the descriptor now, so SharedMemory.__del__ finds
            # nothing left to close.
            _release_descriptor(shm)
        except Exception:
            pass
        if owner:
            try:
                shm.unlink()
            except Exception:
                pass

    def close(self) -> None:
        """Detach (owner: and unlink) the segment.  Idempotent.

        Consumers should restore/drop their views first; a view kept
        alive past ``close`` stays valid (the mapping persists) but the
        segment name is gone, so no new process can attach.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        self._cleanup(self._shm, self._owner)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SharedIndexPages":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "owner" if self._owner else "attached"
        )
        return (
            f"<SharedIndexPages {self.label!r} {state} "
            f"{len(self._layout)} arrays {self.nbytes}B>"
        )
