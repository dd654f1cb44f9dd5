"""In-memory spans recorded around calls into the program's layers.

The traced run wraps public entry points of each layer (a module
function, or a method on one object) so every call records a span:
name, start, end and the span that caused it.  Nothing in the program
itself changes; the wrappers are installed for the traced run only and
removed afterwards.  A layer's self time is its span's duration minus
what its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter_ns


class Spans:
    """Spans of one traced run, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.records: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self._open: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` in place until :meth:`unpatch`."""
        original = getattr(owner, attr)
        had_own = attr in getattr(owner, "__dict__", {})
        setattr(owner, attr, self.wrap(name, original))
        self._undo.append((owner, attr, original, had_own))

    def unpatch(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:  # a method found on the class, shadowed on the instance
                delattr(owner, attr)

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        records, open_ = self.records, self._open
        parent = open_[-1] if open_ else -1
        slot = len(records)
        records.append((name, _now(), 0, parent))
        open_.append(slot)
        try:
            yield
        finally:
            open_.pop()
            records[slot] = (name, records[slot][1], _now(), parent)

    def self_times(self) -> tuple[dict, dict]:
        """Per-name ``(self_ns, total_ns)``."""
        child_ns = defaultdict(int)
        for _, start, end, parent in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        for slot, (name, start, end, _) in enumerate(self.records):
            self_ns[name] += end - start - child_ns[slot]
            total_ns[name] += end - start
        return self_ns, total_ns

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w") as handle:
            for slot, (name, start, end, parent) in enumerate(self.records):
                handle.write(
                    json.dumps(
                        {"id": slot, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent}
                    )
                    + "\n"
                )
