"""Bounded slow-query log: the serving triad's second leg.

A :class:`SlowQueryLog` is a thread-safe ring buffer of
:class:`SlowQueryRecord` entries, attachable to any index
(:meth:`repro.baselines.base.ReachabilityIndex.attach_slow_log`), the
facade (:meth:`repro.Reachability.enable_slow_log`), or the shard
service (:meth:`repro.shard.ShardService.attach_slow_log`).  Two
sampling modes:

* ``mode="threshold"`` (default) — record every query at or above
  ``threshold_ns``; the classic slow-query log.
* ``mode="reservoir"`` — uniform reservoir sampling (Vitter's
  algorithm R) over *all* queries, for latency forensics on workloads
  where nothing crosses a fixed threshold.

The buffer is bounded (``capacity`` records, oldest evicted in threshold
mode) and the ``observed`` counter keeps running, so sampling pressure is
visible.  Records ship as JSON through the ``/slow`` endpoint of
:class:`repro.serve.ReachServer`.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass

from repro.obs.spans import format_trace_id

__all__ = ["SlowQueryRecord", "SlowQueryLog"]


@dataclass(frozen=True)
class SlowQueryRecord:
    """One logged query: who, what, how slow, and how it was answered.

    ``trace_id`` carries the request's distributed trace (when tracing
    was on), so a slow entry joins its ``/trace`` tree; ``shard`` is the
    owning shard for queries the shard tier routed to one worker.
    """

    seq: int
    method: str
    u: int
    v: int
    verdict: object
    elapsed_ns: int
    cut: str | None = None
    trace_id: int | None = None
    shard: int | None = None

    def as_dict(self) -> dict:
        """JSON-ready view (``UNKNOWN`` verdicts render as a string)."""
        verdict = self.verdict if isinstance(self.verdict, bool) else str(
            self.verdict
        )
        out: dict = {
            "seq": self.seq,
            "method": self.method,
            "u": self.u,
            "v": self.v,
            "verdict": verdict,
            "elapsed_ns": self.elapsed_ns,
            "elapsed_us": self.elapsed_ns / 1000.0,
        }
        if self.cut is not None:
            out["cut"] = self.cut
        if self.trace_id is not None:
            out["trace_id"] = format_trace_id(self.trace_id)
        if self.shard is not None:
            out["shard"] = self.shard
        return out


class SlowQueryLog:
    """Ring buffer of slow (or sampled) queries.

    Parameters
    ----------
    capacity:
        Maximum records retained.
    threshold_ns:
        Threshold-mode cutoff: queries faster than this are not logged.
        The default (1 ms) is far above any cut-answered query, so a
        default log captures exactly the pathological searches.
    mode:
        ``"threshold"`` or ``"reservoir"`` (see module docstring).
    seed:
        Reservoir-mode RNG seed, for reproducible sampling in tests.
    """

    def __init__(
        self,
        capacity: int = 128,
        threshold_ns: int = 1_000_000,
        mode: str = "threshold",
        seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if mode not in ("threshold", "reservoir"):
            raise ValueError(
                f"unknown slow-log mode {mode!r}; "
                "use 'threshold' or 'reservoir'"
            )
        self.capacity = capacity
        self.threshold_ns = threshold_ns
        self.mode = mode
        #: Queries offered to the log (recorded or not) since creation.
        self.observed = 0
        self._records: deque[SlowQueryRecord] | list[SlowQueryRecord]
        if mode == "threshold":
            self._records = deque(maxlen=capacity)
        else:
            self._records = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def record(
        self,
        u: int,
        v: int,
        verdict,
        elapsed_ns: int,
        method: str,
        cut: str | None = None,
        trace_id: int | None = None,
        shard: int | None = None,
    ) -> SlowQueryRecord | None:
        """Offer one query; returns the stored record or ``None``.

        Threshold mode drops fast queries; reservoir mode keeps a uniform
        sample of everything offered.  Thread-safe — the serving tier's
        flushes and a scrape can race this.
        """
        with self._lock:
            self.observed += 1
            seq = self.observed
            if self.mode == "threshold":
                if elapsed_ns < self.threshold_ns:
                    return None
                rec = SlowQueryRecord(
                    seq, method, u, v, verdict, elapsed_ns, cut,
                    trace_id=trace_id, shard=shard,
                )
                self._records.append(rec)
                return rec
            # Reservoir (algorithm R): the first `capacity` fill the
            # buffer; afterwards each new query replaces a uniformly
            # random slot with probability capacity/seq.
            rec = SlowQueryRecord(
                seq, method, u, v, verdict, elapsed_ns, cut,
                trace_id=trace_id, shard=shard,
            )
            if len(self._records) < self.capacity:
                self._records.append(rec)
                return rec
            slot = self._rng.randrange(seq)
            if slot < self.capacity:
                self._records[slot] = rec
                return rec
            return None

    def record_many(
        self,
        us,
        vs,
        verdicts,
        elapsed_ns: int,
        method: str,
        trace_id: int | None = None,
    ) -> None:
        """Offer a batch of queries that each took ``elapsed_ns``.

        Equivalent to :meth:`record` per ``(u, v, verdict)`` triple; in
        threshold mode a batch under the threshold only advances
        ``observed``.  ``us``/``vs``/``verdicts`` are aligned sequences
        (numpy arrays included).
        """
        if self.mode == "threshold" and elapsed_ns < self.threshold_ns:
            with self._lock:
                self.observed += len(us)
            return
        if hasattr(us, "tolist"):  # numpy arrays: plain ints and bools
            us, vs, verdicts = us.tolist(), vs.tolist(), verdicts.tolist()
        for u, v, verdict in zip(us, vs, verdicts):
            self.record(u, v, verdict, elapsed_ns, method, trace_id=trace_id)

    def records(self) -> list[SlowQueryRecord]:
        """Retained records, insertion order (threshold) or slot order."""
        with self._lock:
            return list(self._records)

    def slowest(self, limit: int = 10) -> list[SlowQueryRecord]:
        """The ``limit`` slowest retained records, slowest first."""
        return sorted(
            self.records(), key=lambda r: r.elapsed_ns, reverse=True
        )[:limit]

    def as_dicts(self) -> list[dict]:
        """Every retained record as a JSON-ready dict (the ``/slow`` body)."""
        return [rec.as_dict() for rec in self.records()]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"<SlowQueryLog mode={self.mode!r} {len(self)}/{self.capacity} "
            f"records, {self.observed} observed>"
        )
