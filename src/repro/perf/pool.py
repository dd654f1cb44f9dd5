"""SearchPool: fork-based parallel execution of survivor searches.

After the vectorized cut pass (:mod:`repro.perf.engine`) the pairs that
remain undecided each need an online graph search — pure Python work
that dominates batch latency on search-heavy workloads.  A
:class:`SearchPool` partitions those survivors into contiguous chunks
and runs them across ``fork``-started worker processes.  Forking after
``build()`` means the CSR arrays, index labels and cut tables are all
shared copy-on-write: workers inherit the built index through forked
memory with zero serialization, and only the ``(u, v)`` task lists and
boolean answers cross the process boundary.

Guarantees and caveats:

* **Deterministic ordering** — chunks are contiguous slices of the
  survivor list and results are merged with an ordered ``map``, so
  answers are independent of worker scheduling.
* **Graceful fallback** — on platforms without ``fork`` (or with
  ``workers <= 1``) the pool runs the searches in process; same
  answers, no crash.
* **Budgets stay in process** — with a
  :class:`~repro.resilience.budget.QueryBudget` (or a slow log) on
  ``query_many`` the engine searches the survivors in process, each
  under its own guard (the budget is per query), so pooled searches
  never carry a guard.
* **Crash hardening** — chunks are dispatched asynchronously and the
  pool is watched while they run: a worker that dies mid-batch (OOM
  kill, SIGKILL, segfault) is detected by pid/exitcode change, finished
  chunks are salvaged, and the affected chunks are recomputed inline in
  the parent — the batch always completes with correct answers.  Each
  incident increments ``repro_pool_worker_deaths_total`` and the pool is
  respawned (bounded; after ``MAX_RESPAWNS`` incidents it degrades to
  inline mode for the rest of its life).
* **Worker-side stats** — each chunk returns its ``expanded``/``pruned``
  deltas, merged into the parent's :class:`QueryStats`; metric
  observations made inside workers (the ``_observe_searches`` wrapper)
  live in the forked registry copy and are discarded.  SCARAB's
  survivor search also increments its *inner* base index's counters,
  which are likewise worker-local and not merged back.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from time import monotonic, perf_counter, sleep

import numpy as np

from repro.obs.distributed import TelemetryMerger, build_aux, ingest_aux
from repro.obs.metrics import get_registry, reset_instruments
from repro.obs.spans import get_tracer

__all__ = ["SearchPool", "fork_available", "MAX_RESPAWNS"]

#: Pool respawns allowed after worker deaths before degrading to inline.
MAX_RESPAWNS = 2

#: Poll cadence while waiting on dispatched chunks, and the grace window
#: given to surviving workers to finish their chunks after a death.
_POLL_S = 0.005
_SALVAGE_GRACE_S = 0.25


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform.

    ``False`` on Windows and other spawn-only platforms; tests
    monkeypatch this to exercise the in-process fallback.
    """
    return "fork" in multiprocessing.get_all_start_methods()


# The built index a worker process serves.  Set once per worker by
# _pool_worker_init: under the fork start method initargs are inherited
# through forked memory (no pickling), which is the whole point — the
# CSR arrays and cut tables arrive copy-on-write.
_WORKER_INDEX = None


def _pool_worker_init(index) -> None:
    global _WORKER_INDEX
    _WORKER_INDEX = index
    # The forked copy must never re-enter pooled dispatch.
    index._search_pool = None
    # The fork also copied the parent's tracer ring and registry totals;
    # both belong to the parent.  Clearing/zeroing them (in place — the
    # index's observability handles were resolved pre-fork) makes
    # everything this worker records from here on worker-pure, so it can
    # ship back on chunk results without double counting.
    tracer = get_tracer()
    if tracer.enabled:
        tracer.clear()
    registry = get_registry()
    if registry.enabled:
        reset_instruments(registry)


def _run_chunk(task):
    """Worker body: answer one contiguous chunk of survivor pairs.

    Returns ``(chunk_id, answers, deltas, elapsed_s, aux)`` — ``deltas``
    is a per-pair list of ``(expanded, pruned)`` increments against the
    worker's (forked) stats copy, merged (and multiplicity-weighted, for
    deduplicated batch pairs) by the parent; ``aux`` is the piggyback
    envelope (worker spans + telemetry snapshot, see
    :mod:`repro.obs.distributed`), ``None`` when observability is off.
    """
    chunk_id, pairs = task
    index = _WORKER_INDEX
    stats = index.stats
    tracer = get_tracer()
    span = (
        tracer.span("worker.pool_chunk", chunk=chunk_id, pairs=len(pairs))
        if tracer.enabled
        else None
    )
    if span is not None:
        span.__enter__()
    start = perf_counter()
    batch = (
        index._search_pairs_batch(
            np.fromiter(
                (u for u, _ in pairs), dtype=np.int64, count=len(pairs)
            ),
            np.fromiter(
                (v for _, v in pairs), dtype=np.int64, count=len(pairs)
            ),
        )
        if pairs
        else None
    )
    if batch is not None:
        # The native batch sweep: per-pair deltas come back directly
        # (worker stats are discarded anyway, see module doc).
        codes, expanded, pruned = batch
        answers = (codes == 1).tolist()
        deltas = list(zip(expanded.tolist(), pruned.tolist()))
    else:
        search = index._search_pair
        answers = []
        deltas = []
        for u, v in pairs:
            expanded, pruned = stats.expanded, stats.pruned
            answers.append(bool(search(u, v)))
            deltas.append((stats.expanded - expanded, stats.pruned - pruned))
    elapsed = perf_counter() - start
    if span is not None:
        span.__exit__(None, None, None)
    registry = get_registry()
    aux = None
    if tracer.enabled or registry.enabled:
        # The trace/parent ids are placeholders: the parent overwrites
        # them with its ``pool.dispatch`` span before adoption (chunk
        # results return out of band, not on a traced RPC).
        aux = build_aux(
            tracer=tracer,
            registry=registry,
            trace_ctx=(None, None) if tracer.enabled else None,
            pid=os.getpid(),
            ship_telemetry=registry.enabled,
        )
    return chunk_id, answers, deltas, elapsed, aux


def _abandon_pool(pool) -> None:
    """Tear a (possibly poisoned) ``Pool`` down without deadlocking.

    ``Pool.terminate`` drains the shared task queue under its lock — a
    lock that a SIGKILLed worker may have died holding, in which case
    the drain blocks forever.  So the stdlib teardown runs on a daemon
    thread with a bounded wait (its first action flips the pool state,
    which stops the maintenance thread from respawning workers), and the
    worker processes are then SIGKILLed and reaped regardless of whether
    the graceful path got through.
    """
    try:
        procs = list(pool._pool)
    except AttributeError:  # pragma: no cover - stdlib internals moved
        procs = []
    terminator = threading.Thread(
        target=pool.terminate, name="repro-pool-terminate", daemon=True
    )
    terminator.start()
    terminator.join(timeout=1.0)
    for proc in procs:
        if proc.is_alive() and proc.pid is not None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    for proc in procs:
        proc.join(timeout=0.5)


class SearchPool:
    """Partition survivor searches across forked worker processes.

    Construct *after* ``index.build()`` (the fork snapshot must contain
    the built structures) — :meth:`ReachabilityIndex.enable_search_pool`
    does this.  ``min_batch`` is the survivor count below which the
    engine skips dispatch entirely (per-pair IPC overhead beats any
    parallelism on tiny batches).
    """

    def __init__(self, index, workers: int = 2, min_batch: int = 32) -> None:
        self.index = index
        self.workers = max(1, int(workers))
        self.min_batch = max(1, int(min_batch))
        self.worker_deaths = 0
        self._respawns = 0
        self._pool = None
        self._cohort_pids: set = set()
        # Worker chunk telemetry folds back through here, labeled
        # ``pool_worker=<pid>`` (same delta semantics as shard workers).
        self._telemetry = TelemetryMerger()
        if self.workers > 1 and fork_available():
            self.mode = "fork"
            self._pool = self._make_pool()
        else:
            self.mode = "inline"

    def _make_pool(self):
        ctx = multiprocessing.get_context("fork")
        pool = ctx.Pool(
            self.workers,
            initializer=_pool_worker_init,
            initargs=(self.index,),
        )
        # The spawn-time cohort: any deviation later (pid gone, exitcode
        # set) is evidence of a death — even one that happened *between*
        # batches, which still poisons the pool (a worker killed while
        # holding the shared task-queue lock deadlocks its siblings).
        self._cohort_pids = {proc.pid for proc in pool._pool}
        return pool

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (inline pools never close)."""
        return self.mode == "fork" and self._pool is None

    def run(self, index, sources, targets, survivors, weights=None) -> np.ndarray:
        """Answer the survivor pairs; returns a bool array aligned with
        ``survivors``.

        ``sources``/``targets`` are the full batch arrays and
        ``survivors`` the undecided positions (the engine's calling
        convention).  ``weights``, when given, is aligned with
        ``survivors`` and carries each pair's multiplicity in the
        original batch (the engine deduplicates before dispatch): each
        pair is searched once and its ``expanded``/``pruned`` deltas are
        folded back scaled by the weight, so parent stats stay
        bit-identical to the scalar loop that would have repeated the
        search.  Order of answers is deterministic in both modes.
        """
        pairs = [
            (int(sources[i]), int(targets[i])) for i in survivors
        ]
        if weights is None:
            weights = [1] * len(pairs)
        else:
            weights = [int(w) for w in weights]
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_pool_tasks_total",
                help="Survivor searches dispatched through the pool.",
                method=index.method_name,
                mode=self.mode,
            ).inc(len(pairs))
        if self._pool is None:
            return self._run_inline(index, pairs, weights)

        bounds = np.array_split(np.arange(len(pairs)), self.workers)
        tasks = [
            (chunk_id, [pairs[i] for i in chunk])
            for chunk_id, chunk in enumerate(bounds)
            if len(chunk)
        ]
        task_weights = [
            [weights[i] for i in chunk] for chunk in bounds if len(chunk)
        ]
        tracer = get_tracer()
        with tracer.span(
            "pool.dispatch",
            method=index.method_name,
            workers=self.workers,
            pairs=len(pairs),
            chunks=len(tasks),
        ) as dispatch_span:
            results = self._dispatch(tasks)

        answers = np.empty(len(pairs), dtype=bool)
        offset = 0
        stats = index.stats
        chunk_hist = None
        if registry.enabled:
            chunk_hist = registry.histogram
        for (chunk_id, chunk_pairs), chunk_weights, result in zip(
            tasks, task_weights, results
        ):
            size = len(chunk_pairs)
            if result is None:
                # The chunk was lost with its worker: recompute inline.
                # Stats accrue directly on the parent's counters here.
                answers[offset : offset + size] = self._run_inline(
                    index, chunk_pairs, chunk_weights
                )
                offset += size
                continue
            _, chunk_answers, deltas, elapsed, aux = result
            answers[offset : offset + size] = chunk_answers
            offset += size
            for (expanded, pruned), weight in zip(deltas, chunk_weights):
                stats.expanded += expanded * weight
                stats.pruned += pruned * weight
            if isinstance(aux, dict):
                if aux.get("spans") and tracer.enabled:
                    aux["trace_id"] = dispatch_span.trace_id
                    aux["parent_id"] = dispatch_span.span_id
                pid = aux.get("pid")
                ingest_aux(
                    aux,
                    merger=self._telemetry,
                    source=pid,
                    pool_worker=str(pid),
                )
            if chunk_hist is not None:
                chunk_hist(
                    "repro_pool_chunk_seconds",
                    help="Wall time per pooled survivor-search chunk.",
                    method=index.method_name,
                    worker=str(chunk_id),
                ).observe(elapsed)
        return answers

    @staticmethod
    def _run_inline(index, pairs, weights) -> np.ndarray:
        """Answer ``pairs`` in process, scaling stats by multiplicity."""
        stats = index.stats
        search = index._search_pair
        answers = np.empty(len(pairs), dtype=bool)
        for i, (u, v) in enumerate(pairs):
            weight = weights[i]
            if weight == 1:
                answers[i] = search(u, v)
                continue
            expanded, pruned = stats.expanded, stats.pruned
            answers[i] = search(u, v)
            stats.expanded += (stats.expanded - expanded) * (weight - 1)
            stats.pruned += (stats.pruned - pruned) * (weight - 1)
        return answers

    def _worker_snapshot(self) -> list:
        """The pool's current worker processes (internal but stable API)."""
        pool = self._pool
        if pool is None:
            return []
        try:
            return list(pool._pool)
        except AttributeError:  # pragma: no cover - stdlib internals moved
            return []

    def _pool_damaged(self) -> bool:
        """Whether a worker from the spawn-time cohort is gone.

        Detects a dead-but-unreaped worker (exitcode set) and one
        already silently replaced by ``Pool``'s maintenance thread (pid
        set changed).  Either way the pool is condemned: an in-flight
        chunk may never return, and a worker killed mid-``get`` leaves
        the shared task-queue lock held forever, deadlocking even the
        replacement workers — which is why respawn rebuilds the whole
        pool rather than trusting the self-repair.
        """
        procs = self._worker_snapshot()
        if not procs:
            return True
        if {proc.pid for proc in procs} != self._cohort_pids:
            return True
        return any(proc.exitcode is not None for proc in procs)

    def _collect_ready(self, asyncs, results, pending) -> None:
        for i in list(pending):
            if not asyncs[i].ready():
                continue
            try:
                results[i] = asyncs[i].get()
            except Exception:  # noqa: BLE001 - chunk recomputed inline
                results[i] = None
            pending.discard(i)

    def _dispatch(self, tasks) -> list:
        """Run chunks through the pool, surviving worker deaths.

        Returns one entry per task: the ``_run_chunk`` result, or
        ``None`` for a chunk that must be recomputed inline (its worker
        died, or its remote execution raised).
        """
        asyncs = [self._pool.apply_async(_run_chunk, (t,)) for t in tasks]
        results: list = [None] * len(tasks)
        pending = set(range(len(tasks)))
        while pending:
            self._collect_ready(asyncs, results, pending)
            if not pending:
                break
            if self._pool_damaged():
                # Salvage: surviving workers get a short grace window to
                # hand over their finished chunks, then whatever is
                # still pending is declared lost (recomputed inline).
                grace_end = monotonic() + _SALVAGE_GRACE_S
                while pending and monotonic() < grace_end:
                    self._collect_ready(asyncs, results, pending)
                    if pending:
                        sleep(_POLL_S)
                self._on_worker_death(lost=len(pending))
                break
            sleep(_POLL_S)
        return results

    def _on_worker_death(self, lost: int) -> None:
        """Account a worker death and respawn (bounded) or go inline."""
        self.worker_deaths += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_pool_worker_deaths_total",
                help="Pool workers that died mid-batch; the affected "
                "chunks were recomputed inline.",
                method=self.index.method_name,
            ).inc()
        old = self._pool
        self._pool = None
        if old is not None:
            _abandon_pool(old)
        if self._respawns < MAX_RESPAWNS:
            self._respawns += 1
            self._pool = self._make_pool()
        else:
            self.mode = "inline"

    def close(self) -> None:
        """Terminate the worker processes (idempotent).

        Deadlock-safe even when a worker died with a queue lock held:
        the stdlib teardown gets a bounded attempt, then the workers are
        SIGKILLed outright.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            _abandon_pool(pool)

    def __enter__(self) -> "SearchPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"<SearchPool mode={self.mode} workers={self.workers} "
            f"min_batch={self.min_batch}>"
        )
