"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  More specific
subclasses communicate *what* went wrong:

* :class:`GraphError` — structurally invalid graph input (bad vertex ids,
  malformed edge lists, ...).
* :class:`NotADAGError` — an algorithm that requires a DAG received a graph
  with at least one directed cycle.
* :class:`CycleError` — a :class:`NotADAGError` that names a concrete
  witness cycle, raised by the strict ingestion paths.
* :class:`InvalidVertexError` — a query mentioned a vertex id outside
  ``0 .. n-1``; raised uniformly by every index class.
* :class:`IndexNotBuiltError` — a query was issued against an index whose
  :meth:`build` method has not run yet.
* :class:`IndexBuildError` — index construction failed; the ``reason``
  attribute carries a machine-readable cause (e.g. ``"memory-budget"`` for
  the emulated INTERVAL memory exhaustion from the paper's evaluation).
* :class:`IndexIntegrityError` — a persisted or in-memory index violates
  the Theorem 1 soundness invariants (see ``repro.resilience.verify``).
* :class:`QueryBudgetExceeded` — a budgeted query ran out of search steps
  or wall-clock time (see ``repro.resilience.budget``).
* :class:`PersistenceError` — an index file is unreadable: wrong magic,
  truncated, or failing its checksums; ``path`` and ``offset`` locate the
  damage.  :class:`ChecksumError` is the CRC-mismatch subclass.
* :class:`WorkerError` — a shard worker process failed an RPC; the
  shard service retries these with jittered backoff.
* :class:`DatasetError` — an unknown dataset name or unusable dataset
  parameters.
* :class:`UnknownMethodError` — a method name not present in the index
  registry (subclasses :class:`DatasetError` for back-compat: older code
  caught that type around :func:`repro.baselines.base.create_index`).
* :class:`WorkloadError` — a query workload could not be generated (e.g.
  asking for positive-only pairs on an edgeless graph).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """A graph argument is structurally invalid."""


class NotADAGError(GraphError):
    """An operation that requires an acyclic graph received a cyclic one.

    The optional ``cycle_hint`` attribute carries one vertex known to lie on
    a cycle, which makes error messages actionable on large graphs.
    """

    def __init__(self, message: str, cycle_hint: int | None = None) -> None:
        super().__init__(message)
        self.cycle_hint = cycle_hint


class CycleError(NotADAGError):
    """A DAG was required but the input contains a directed cycle.

    Unlike the plain :class:`NotADAGError` hint, ``cycle`` is a complete
    witness: a vertex list ``[v0, v1, ..., vk]`` where each consecutive
    pair is an edge and ``(vk, v0)`` closes the loop.
    """

    def __init__(self, message: str, cycle: list[int]) -> None:
        super().__init__(message, cycle_hint=cycle[0] if cycle else None)
        self.cycle = cycle


class InvalidVertexError(ReproError):
    """A query referenced a vertex id outside the graph's ``0 .. n-1``.

    ``vertex`` is the offending id, ``num_vertices`` the graph size.
    Every index class raises this same type from ``query`` and
    ``query_many``, so callers validate once, uniformly.
    """

    def __init__(self, vertex: int, num_vertices: int) -> None:
        super().__init__(
            f"vertex {vertex} out of range for a graph with "
            f"{num_vertices} vertices (valid ids: 0..{num_vertices - 1})"
        )
        self.vertex = vertex
        self.num_vertices = num_vertices


class IndexNotBuiltError(ReproError):
    """A reachability query was issued before the index was built."""


class IndexBuildError(ReproError):
    """Index construction failed.

    ``reason`` is a short machine-readable cause.  The benchmark harness
    uses ``reason == "memory-budget"`` to reproduce the paper's observation
    that Nuutila's INTERVAL fails on very large graphs.
    """

    def __init__(self, message: str, reason: str = "error") -> None:
        super().__init__(message)
        self.reason = reason


class IndexIntegrityError(ReproError):
    """A FELINE index violates its soundness invariants.

    Raised by ``VerificationReport.raise_if_failed``; ``violations`` is
    the list of human-readable findings from the failed checks.
    """

    def __init__(self, message: str, violations: list[str]) -> None:
        super().__init__(message)
        self.violations = violations


class QueryBudgetExceeded(ReproError):
    """A budgeted query exhausted its step or wall-clock allowance.

    ``resource`` is ``"steps"`` or ``"deadline"``; ``steps`` counts the
    vertices expanded before exhaustion; ``elapsed_s`` is the wall time
    spent in the guarded search.  Only surfaced to callers when the
    budget's policy is ``"raise"`` — the ``"unknown"`` and ``"fallback"``
    policies absorb it (see ``repro.resilience.budget``).
    """

    def __init__(
        self,
        message: str,
        resource: str = "steps",
        steps: int = 0,
        elapsed_s: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.resource = resource
        self.steps = steps
        self.elapsed_s = elapsed_s


class PersistenceError(ReproError):
    """An index file could not be read back safely.

    ``path`` is the offending file; ``offset`` (when known) is the byte
    position where the damage was detected.  Raised instead of raw
    ``struct.error`` / numpy reshape errors for empty, truncated or
    wrong-magic files, in both read and ``mmap`` modes.
    """

    def __init__(
        self, message: str, path: str | None = None, offset: int | None = None
    ) -> None:
        super().__init__(message)
        self.path = path
        self.offset = offset


class ChecksumError(PersistenceError):
    """A v2 index section failed its CRC32 check.

    ``section`` names the damaged array (``"x"``, ``"y"``, ``"levels"``,
    ``"start"``, ``"post"``, or ``"header"``).
    """

    def __init__(
        self,
        message: str,
        path: str | None = None,
        offset: int | None = None,
        section: str = "",
    ) -> None:
        super().__init__(message, path=path, offset=offset)
        self.section = section


class WorkerError(ReproError):
    """A shard worker process failed to serve an RPC.

    Raised by :class:`repro.shard.WorkerChannel` on a timeout, an error
    reply or a dead worker.  ``shard_id`` identifies the worker;
    ``transient`` signals whether :class:`repro.shard.ShardService` should
    retry (with :class:`~repro.resilience.retry.RetryPolicy` backoff) or
    fail fast.
    """

    def __init__(
        self, message: str, shard_id: int = -1, transient: bool = True
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.transient = transient


class DatasetError(ReproError):
    """An unknown dataset name or invalid dataset parameters."""


class UnknownMethodError(DatasetError):
    """A reachability-method name is not in the index registry.

    ``method`` is the offending name, ``known`` the sorted registry keys
    at raise time.  Subclasses :class:`DatasetError` only because
    :func:`~repro.baselines.base.create_index` historically raised that
    (misleading) type; catch :class:`UnknownMethodError` in new code.
    """

    def __init__(self, message: str, method: str, known: list[str]) -> None:
        super().__init__(message)
        self.method = method
        self.known = known


class WorkloadError(ReproError):
    """A query workload could not be generated with the given parameters."""
