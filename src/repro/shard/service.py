"""The fault-tolerant multi-process shard service.

:class:`ShardService` is the distributed FELINE the paper's
conclusion announces: the input graph is condensed, partitioned into
X-rank slabs (see :mod:`repro.shard.plan`), and each slab is served by an actual forked
worker process owning its own FELINE index.  The coordinator keeps the
global FELINE coordinates (O(1) cuts), the SCARAB backbone routing
index, and a replica of the condensed DAG for degraded-mode fallback.

The headline is fault tolerance, not distribution:

* **Supervision.**  A supervisor thread heartbeats every worker and
  restarts dead or wedged ones; restarts re-fork from the coordinator's
  prebuilt plan, so failover is a fork, not an index rebuild.
* **Deadline propagation.**  A per-query deadline (from
  ``QueryBudget.deadline_s`` or ``ShardConfig.default_deadline_ms``)
  bounds every blocking step end-to-end — RPC waits, worker-side search
  budgets, the backbone gateway product — so an admitted query returns
  within its deadline, correct or honestly :data:`UNKNOWN`, even while
  workers are being murdered.
* **Failover.**  Shard RPCs are idempotent (pure functions of the
  immutable plan), so a failed dispatch is retried through
  :class:`~repro.resilience.retry.RetryPolicy` backoff with hedged
  re-dispatch to a freshly restarted worker (a wedged-but-alive worker
  is SIGKILLed first — fencing — since a stale answer must never race a
  retried one; sequence matching guards the wire besides).
* **Degradation.**  On unrecoverable shard loss the query degrades per
  ``ShardConfig.on_shard_loss``: a node-bounded bidirectional BFS on
  the coordinator's DAG replica (``"fallback"``), or an immediate
  :data:`UNKNOWN` (``"unknown"``).  Never a hang, never a wrong
  ``True``/``False``.

The service quacks like :class:`repro.Reachability` where it matters —
``reachable`` / ``reachable_many`` with an optional budget, ``graph``,
``stats`` — so :class:`repro.serve.ReachServer` serves it unchanged.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from time import monotonic

import numpy as np

from repro.exceptions import QueryBudgetExceeded, ReproError, WorkerError
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense
from repro.graph.traversal import bounded_bidirectional_reachable
from repro.obs.distributed import TelemetryMerger, ingest_aux
from repro.obs.metrics import get_registry
from repro.obs.spans import get_tracer, new_trace_id
from repro.obs.timing import elapsed_ns, now_ns
from repro.perf.engine import (
    ANSWERS,
    CUT_NEGATIVE,
    CUT_POSITIVE,
    EQUAL,
    SURVIVOR,
    as_pair_array,
)
from repro.perf.kernels import bind_table_classify
from repro.resilience import chaos
from repro.resilience.budget import UNKNOWN, QueryBudget
from repro.resilience.retry import RetryPolicy
from repro.shard.plan import ShardPlan, build_shard_plan
from repro.shard.rpc import WorkerChannel
from repro.shard.worker import worker_main

__all__ = ["ShardConfig", "ShardService", "ShardServiceStats", "ShardLostError"]

ON_SHARD_LOSS = ("fallback", "unknown")


class ShardLostError(ReproError):
    """A shard is unrecoverable for this query (halted, or every retry
    within the deadline failed); the caller degrades per policy."""

    def __init__(self, message: str, shard_id: int) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class _DeadlineExceeded(Exception):
    """Internal: the per-query deadline ran out mid-protocol."""


@dataclass(frozen=True)
class ShardConfig:
    """Configuration of a :class:`ShardService`.

    Parameters
    ----------
    num_shards:
        Worker processes (clamped to the condensed vertex count).
    index_budget_bytes:
        FERRARI-style per-shard index budget: each shard builds the
        richest FELINE tier that fits (``None`` = unrestricted).
    observers:
        O'Reach-style supporting vertices per shard (``0`` = none);
        each worker's index gets an observer pre-pass built on its own
        slab, inherited copy-on-write through the fork (see
        :mod:`repro.perf.observers`).
    kernel:
        Search-kernel backend for every per-shard index and the
        coordinator's backbone index (``None`` = auto; see
        :mod:`repro.perf.kernels`).
    shared_pages:
        Move each shard index's read-only numpy pages into a
        :class:`~repro.perf.shm.SharedIndexPages` arena before the
        workers fork, so restarted workers re-map one physical copy
        instead of COW-duplicating (graceful COW fallback when shared
        memory is unavailable).
    rpc_timeout_s:
        Per-attempt RPC cap; the effective cap is the minimum of this
        and the query's remaining deadline.
    default_deadline_ms:
        Deadline applied to queries that carry no budget (``None`` =
        only ``rpc_timeout_s`` bounds each step).
    on_shard_loss:
        ``"fallback"`` (bounded biBFS on the coordinator's DAG replica)
        or ``"unknown"`` (degrade immediately on the wire).
    fallback_nodes:
        Node cap of the degraded-mode bidirectional BFS.
    max_attempts, retry_base_delay_s, retry_seed:
        The :class:`~repro.resilience.retry.RetryPolicy` curve for
        failed shard RPCs (backoff is recorded, not slept, by default —
        restart latency already paces the retries).
    supervise, heartbeat_interval_s, heartbeat_timeout_s,
    heartbeat_miss_limit:
        The supervisor loop: probe cadence, per-probe timeout, and how
        many consecutive missed heartbeats declare a worker wedged
        (it is then SIGKILLed and restarted).
    """

    num_shards: int = 2
    index_budget_bytes: int | None = None
    observers: int = 0
    kernel: str | None = None
    shared_pages: bool = True
    rpc_timeout_s: float = 1.0
    default_deadline_ms: float | None = None
    on_shard_loss: str = "fallback"
    fallback_nodes: int = 4096
    max_attempts: int = 3
    retry_base_delay_s: float = 0.002
    retry_seed: int = 0
    supervise: bool = True
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 0.5
    heartbeat_miss_limit: int = 2

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ReproError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.observers < 0:
            raise ReproError(
                f"observers must be >= 0, got {self.observers}"
            )
        if self.kernel is not None:
            from repro.perf.kernels import resolve_backend

            resolve_backend(self.kernel)  # fail at config time, not fork time
        if self.rpc_timeout_s <= 0:
            raise ReproError(
                f"rpc_timeout_s must be > 0, got {self.rpc_timeout_s}"
            )
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ReproError(
                f"default_deadline_ms must be > 0, got {self.default_deadline_ms}"
            )
        if self.on_shard_loss not in ON_SHARD_LOSS:
            raise ReproError(
                f"unknown on_shard_loss {self.on_shard_loss!r}; "
                f"use one of {', '.join(ON_SHARD_LOSS)}"
            )
        if self.fallback_nodes < 1:
            raise ReproError(
                f"fallback_nodes must be >= 1, got {self.fallback_nodes}"
            )
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.heartbeat_miss_limit < 1:
            raise ReproError(
                f"heartbeat_miss_limit must be >= 1, "
                f"got {self.heartbeat_miss_limit}"
            )


@dataclass
class ShardServiceStats:
    """Coordinator-side counters (mirrored to obs metrics when enabled).

    ``failover_latencies_s`` keeps the most recent failover recovery
    times (failure detection → successful retried dispatch), the number
    the chaos drill reports percentiles over.
    """

    queries: int = 0
    local_queries: int = 0
    cross_queries: int = 0
    negative_cuts: int = 0
    positive_cuts: int = 0
    rpc_failures: int = 0
    failovers: int = 0
    restarts: int = 0
    heartbeat_misses: int = 0
    degraded_fallback: int = 0
    degraded_unknown: int = 0
    deadline_unknowns: int = 0
    unknowns: int = 0
    failover_latencies_s: list[float] = field(default_factory=list)

    _MAX_LATENCIES = 4096

    def record_failover(self, latency_s: float) -> None:
        self.failovers += 1
        if len(self.failover_latencies_s) < self._MAX_LATENCIES:
            self.failover_latencies_s.append(latency_s)

    def as_dict(self) -> dict:
        doc = {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_") and key != "failover_latencies_s"
        }
        doc["failover_latencies_s"] = list(self.failover_latencies_s)
        return doc


def _by_shard(idxs, owner_of, condensed, side: int):
    """The pairs at ``idxs`` grouped by the shard owning their ``u``
    (``side=0``) or ``v`` (``side=1``), in shard order."""
    groups: dict[int, list[int]] = {}
    for i in idxs:
        groups.setdefault(owner_of[condensed[i][side]], []).append(i)
    return sorted(groups.items())


def _mask_codes(table, sources, targets):
    """The coordinator's cut pass on the numpy route: the codes and
    counts of :func:`repro.perf.engine.classify_codes` from ``table``'s
    masks and the reflexive test."""
    positive, negative = table.classify(sources, targets)
    codes = np.full(len(sources), SURVIVOR, dtype=np.uint8)
    codes[negative] = CUT_NEGATIVE
    codes[positive] = CUT_POSITIVE
    codes[sources == targets] = EQUAL
    return codes, np.bincount(codes, minlength=SURVIVOR + 1).tolist()


def _latest(envelope: dict, idxs):
    """The latest envelope among the pairs at ``idxs`` (``None`` when
    the pairs carry no deadline): a later frame serves them all."""
    deadlines = [envelope[i] for i in idxs]
    return None if None in deadlines else max(deadlines)


class ShardService:
    """Serve reachability queries from supervised shard worker processes.

    Examples
    --------
    >>> from repro.graph.generators import random_dag
    >>> service = ShardService(random_dag(300, avg_degree=2.0, seed=3),
    ...                        ShardConfig(num_shards=2, supervise=False))
    >>> with service:
    ...     answer = service.reachable(0, 299)
    >>> answer in (True, False)
    True
    """

    #: Cap on one ``local_many`` sub-batch: bounds a single RPC frame
    #: and the worker's time-to-first-reply under a deadline envelope.
    _LOCAL_MANY_CHUNK = 1024

    def __init__(
        self,
        graph: DiGraph | Iterable[tuple[int, int]],
        config: ShardConfig | None = None,
    ) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ReproError(
                "ShardService needs the fork start method (workers inherit "
                "the shard plan copy-on-write); this platform has none"
            )
        if not isinstance(graph, DiGraph):
            graph = DiGraph.from_edges(graph)
        self.graph = graph
        self.config = config if config is not None else ShardConfig()
        self.condensation = condense(graph)
        self._scc_view = np.asarray(self.condensation.scc_of, dtype=np.int64)
        self.plan: ShardPlan = build_shard_plan(
            self.condensation.dag,
            self.config.num_shards,
            self.config.index_budget_bytes,
            observers=self.config.observers,
        )
        if self.config.kernel is not None:
            self.plan.backbone_index.set_kernel(self.config.kernel)
        for state in self.plan.shards:
            if self.config.kernel is not None:
                state.index.set_kernel(self.config.kernel)
            if self.config.shared_pages:
                # Pre-fork, so every worker (including restarts) maps the
                # one shared physical copy of the read-only index pages.
                state.index.enable_shared_pages()
        self._classify = bind_table_classify(
            self.plan.cuts, self.plan.dag.num_vertices, self.config.kernel
        ) or partial(_mask_codes, self.plan.cuts)
        self.stats = ShardServiceStats()
        self.retry_policy = RetryPolicy(
            max_attempts=self.config.max_attempts,
            base_delay_s=self.config.retry_base_delay_s,
            seed=self.config.retry_seed,
        )
        self._ctx = multiprocessing.get_context("fork")
        self._channels: list[WorkerChannel | None] = [None] * self.num_shards
        self._restart_locks = [threading.Lock() for _ in range(self.num_shards)]
        self._lost: set[int] = set()
        self._closed = False
        self._hb_misses = [0] * self.num_shards
        self.slow_log = None
        # Worker telemetry lands here; the per-shard sinks are prebuilt
        # so the RPC hot path allocates no closure per call.
        self._telemetry = TelemetryMerger()
        self._aux_sinks = [
            (lambda aux, _sid=shard_id: self._ingest_aux(_sid, aux))
            for shard_id in range(self.num_shards)
        ]
        for shard_id in range(self.num_shards):
            self._channels[shard_id] = self._spawn(shard_id)
        self._stop_supervisor = threading.Event()
        self._supervisor: threading.Thread | None = None
        if self.config.supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-shard-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    # -- basics ---------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def worker_pids(self) -> list[int | None]:
        """Current worker pids (``None`` for halted shards) — the chaos
        suite's target list."""
        return [
            channel.pid if channel is not None and channel.alive() else None
            for channel in self._channels
        ]

    def alive_workers(self) -> int:
        return sum(1 for pid in self.worker_pids() if pid is not None)

    def __repr__(self) -> str:
        return (
            f"<ShardService shards={self.num_shards} "
            f"alive={self.alive_workers()} "
            f"|V|={self.graph.num_vertices} |E|={self.graph.num_edges}>"
        )

    def attach_slow_log(self, log) -> object:
        """Attach a :class:`~repro.obs.slowlog.SlowQueryLog`; returns it.

        Every pair is offered once, with its ``trace_id`` when tracing
        is on: cut-decided pairs as ``"shard"`` at their share of the
        cut pass, same-shard pairs as ``"shard.local_many"`` with their
        frame's wall time and owning shard, cross-shard pairs as
        ``"shard"`` with the cross route's wall time (the per-pair cost
        is not observable coordinator-side — the entry identifies the
        slow *batch*).
        """
        self.slow_log = log
        return log

    def _ingest_aux(self, shard_id: int, aux) -> None:
        """Fold one worker piggyback envelope in; never raises."""
        ingest_aux(
            aux,
            merger=self._telemetry,
            source=shard_id,
            shard=str(shard_id),
        )

    # -- worker lifecycle ----------------------------------------------
    def _spawn(self, shard_id: int) -> WorkerChannel:
        # A fresh worker starts from a zeroed registry: drop the merger's
        # baseline so its first snapshot is applied whole.
        self._telemetry.reset(shard_id)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(self.plan.shards[shard_id], child_conn),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent's copy of the child end
        return WorkerChannel(parent_conn, process, shard_id)

    def _count(self, name: str, help: str, **labels) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter(name, help=help, **labels).inc()

    def _replace_worker(
        self, shard_id: int, failed: WorkerChannel | None, reason: str
    ) -> WorkerChannel | None:
        """Restart the worker for ``shard_id`` (fencing a live one with
        SIGKILL first); returns the current channel, ``None`` if halted.

        Passing the channel the caller saw fail makes the replacement
        idempotent under races: if another thread already swapped in a
        fresh worker, that one is returned untouched.
        """
        with self._restart_locks[shard_id]:
            if shard_id in self._lost or self._closed:
                return None
            current = self._channels[shard_id]
            if failed is not None and current is not failed:
                return current  # somebody else already failed it over
            if current is not None:
                if current.process.is_alive() and current.pid is not None:
                    chaos.kill_process(current.pid)  # fence the old worker
                current.process.join(timeout=2.0)
                current.close()
            channel = self._spawn(shard_id)
            self._channels[shard_id] = channel
            self._hb_misses[shard_id] = 0
            self.stats.restarts += 1
            self._count(
                "repro_shard_worker_restarts_total",
                "Shard worker processes restarted by the supervisor or a "
                "failover, by reason.",
                shard=str(shard_id),
                reason=reason,
            )
            return channel

    def halt_worker(self, shard_id: int) -> None:
        """Kill a shard *permanently* (no restarts): unrecoverable loss.

        Queries touching the shard degrade per ``on_shard_loss`` until
        :meth:`revive_worker`.  This is the degraded-mode drill switch.
        """
        with self._restart_locks[shard_id]:
            self._lost.add(shard_id)
            channel = self._channels[shard_id]
            self._channels[shard_id] = None
        if channel is not None:
            if channel.process.is_alive() and channel.pid is not None:
                chaos.kill_process(channel.pid)
            channel.process.join(timeout=2.0)
            channel.close()

    def revive_worker(self, shard_id: int) -> None:
        """Bring a halted shard back (fresh fork of its prebuilt state)."""
        with self._restart_locks[shard_id]:
            if shard_id not in self._lost:
                return
            self._lost.discard(shard_id)
            self._channels[shard_id] = self._spawn(shard_id)
            self._hb_misses[shard_id] = 0
            self.stats.restarts += 1

    def _supervise(self) -> None:
        config = self.config
        while not self._stop_supervisor.wait(config.heartbeat_interval_s):
            if self._closed:
                return
            registry = get_registry()
            if registry.enabled:
                registry.gauge(
                    "repro_shard_workers_alive",
                    help="Shard workers currently alive.",
                ).set(self.alive_workers())
            for shard_id in range(self.num_shards):
                if self._closed:
                    return
                if shard_id in self._lost:
                    continue
                channel = self._channels[shard_id]
                if channel is None or not channel.process.is_alive():
                    self._replace_worker(shard_id, channel, reason="death")
                    continue
                try:
                    answer = channel.try_request(
                        "ping", None, config.heartbeat_timeout_s,
                        on_aux=self._aux_sinks[shard_id],
                    )
                except WorkerError:
                    answer = "miss"
                if answer is None:
                    continue  # channel busy serving a query: that's alive
                if answer == "pong":
                    self._hb_misses[shard_id] = 0
                    continue
                self._hb_misses[shard_id] += 1
                self.stats.heartbeat_misses += 1
                self._count(
                    "repro_shard_heartbeat_misses_total",
                    "Heartbeat probes that timed out or errored.",
                    shard=str(shard_id),
                )
                if self._hb_misses[shard_id] >= config.heartbeat_miss_limit:
                    self._replace_worker(shard_id, channel, reason="heartbeat")

    # -- RPC with failover ---------------------------------------------
    @staticmethod
    def _remaining_s(deadline_at: float | None) -> float | None:
        if deadline_at is None:
            return None
        return deadline_at - monotonic()

    def _rpc(
        self,
        shard_id: int,
        op: str,
        payload,
        deadline_at: float | None,
        timeout_s: float | None = None,
    ):
        """One idempotent shard RPC, retried with hedged re-dispatch.

        ``timeout_s`` overrides the per-attempt transport timeout
        (``ShardConfig.rpc_timeout_s``) — batched ops scale it with the
        sub-batch size so a legitimate long reply is not mistaken for a
        dead worker.  Raises :class:`ShardLostError` when the shard is
        halted or every attempt within the retry/deadline envelope
        failed, and :class:`_DeadlineExceeded` when the query's clock
        ran out.
        """
        policy = self.retry_policy
        first_failure: float | None = None
        tracer = get_tracer()
        for attempt in range(policy.max_attempts):
            if shard_id in self._lost:
                raise ShardLostError(
                    f"shard {shard_id} is halted", shard_id=shard_id
                )
            remaining = self._remaining_s(deadline_at)
            if remaining is not None and remaining <= 0:
                raise _DeadlineExceeded()
            channel = self._channels[shard_id]
            if channel is None or not channel.alive():
                channel = self._replace_worker(
                    shard_id, channel, reason="death"
                )
                if channel is None:
                    raise ShardLostError(
                        f"shard {shard_id} is halted", shard_id=shard_id
                    )
            timeout = (
                timeout_s if timeout_s is not None
                else self.config.rpc_timeout_s
            )
            if remaining is not None:
                timeout = min(timeout, remaining)
            try:
                if tracer.enabled:
                    with tracer.span(
                        "shard.rpc", shard=shard_id, op=op, attempt=attempt
                    ) as rpc_span:
                        result = channel.request(
                            op, payload, timeout,
                            trace_ctx=(rpc_span.trace_id, rpc_span.span_id),
                            on_aux=self._aux_sinks[shard_id],
                        )
                else:
                    result = channel.request(
                        op, payload, timeout,
                        on_aux=self._aux_sinks[shard_id],
                    )
            except WorkerError:
                self.stats.rpc_failures += 1
                self._count(
                    "repro_shard_rpc_total",
                    "Shard RPC attempts, by op and outcome.",
                    op=op, outcome="error",
                )
                if first_failure is None:
                    first_failure = monotonic()
                if attempt + 1 >= policy.max_attempts:
                    raise ShardLostError(
                        f"shard {shard_id}: {op} failed after "
                        f"{policy.max_attempts} attempts",
                        shard_id=shard_id,
                    ) from None
                # Hedged re-dispatch: fence whatever worker just failed
                # us (kill if wedged-alive) and retry on a fresh fork.
                policy.backoff(attempt)
                self._replace_worker(shard_id, channel, reason="failover")
                continue
            self._count(
                "repro_shard_rpc_total",
                "Shard RPC attempts, by op and outcome.",
                op=op, outcome="ok",
            )
            if first_failure is not None:
                latency = monotonic() - first_failure
                self.stats.record_failover(latency)
                self._count(
                    "repro_shard_failovers_total",
                    "Queries re-dispatched to a restarted worker.",
                    shard=str(shard_id),
                )
                registry = get_registry()
                if registry.enabled:
                    registry.histogram(
                        "repro_shard_failover_seconds",
                        help="Failure detection to successful retried "
                        "dispatch.",
                    ).observe(latency)
            return result
        raise ShardLostError(  # pragma: no cover - loop always returns/raises
            f"shard {shard_id}: retry loop exhausted", shard_id=shard_id
        )

    # -- the query protocol --------------------------------------------
    def _validated(self, pairs) -> np.ndarray:
        if self._closed:
            raise ReproError("ShardService is closed")
        return as_pair_array(pairs, self.graph.num_vertices)

    @staticmethod
    def _envelope(deadline_ms: float | None, size: int) -> float | None:
        """The deadline of a frame of ``size`` pairs sent now: each pair
        brings its own ``deadline_ms`` allowance."""
        if deadline_ms is None:
            return None
        return monotonic() + deadline_ms / 1000.0 * size

    def _degrade(self, cu: int, cv: int, deadline_at: float | None, mode: str):
        """Answer from the coordinator after shard loss or deadline."""
        self._count(
            "repro_shard_degraded_total",
            "Queries the shard tier could not answer normally, by mode.",
            mode=mode,
        )
        if mode == "deadline":
            self.stats.deadline_unknowns += 1
            self.stats.unknowns += 1
            return UNKNOWN
        if mode == "unknown":
            self.stats.degraded_unknown += 1
            self.stats.unknowns += 1
            return UNKNOWN
        # mode == "fallback": node-bounded biBFS on the DAG replica —
        # exact when it concludes, honestly unknown when the bound hits.
        self.stats.degraded_fallback += 1
        remaining = self._remaining_s(deadline_at)
        if remaining is not None and remaining <= 0:
            self.stats.deadline_unknowns += 1
            self.stats.unknowns += 1
            return UNKNOWN
        answer = bounded_bidirectional_reachable(
            self.plan.dag, cu, cv, self.config.fallback_nodes
        )
        if answer is None:
            self.stats.unknowns += 1
            return UNKNOWN
        return answer

    def _frame(
        self, shard_id, op, payload, idxs, deadline_at, condensed, answers
    ):
        """One RPC frame for the pairs at ``idxs``: the aligned replies,
        or ``None`` once every one of those pairs is degraded (a lost
        shard per ``on_shard_loss``, a spent deadline as ``"deadline"``).

        The transport timeout scales with the frame's pair count, so a
        legitimate long reply is not mistaken for a dead worker.
        """
        try:
            replies = self._rpc(
                shard_id, op, payload, deadline_at,
                timeout_s=self.config.rpc_timeout_s * len(idxs),
            )
            if not isinstance(replies, list) or len(replies) != len(idxs):
                raise ShardLostError(
                    f"shard {shard_id}: malformed {op} reply",
                    shard_id=shard_id,
                )
            return replies
        except _DeadlineExceeded:
            mode = "deadline"
        except ShardLostError:
            mode = self.config.on_shard_loss
        for i in idxs:
            answers[i] = self._degrade(*condensed[i], deadline_at, mode)
        return None

    def _local_many(
        self, shard_id, idxs, condensed, deadline_ms, answers, pairs, trace_id
    ) -> None:
        """One ``local_many`` frame for a same-shard sub-batch.

        ``deadline_ms`` is the *per-pair* allowance (the worker applies
        it to each pair); the frame's envelope scales with its size.
        With a slow log attached (``pairs`` given) every pair is
        recorded with the frame's wall time — the per-pair cost is not
        observable coordinator-side, so the entry identifies the slow
        *batch* — tagged with the owning shard and ``trace_id``.
        """
        deadline_at = self._envelope(deadline_ms, len(idxs))
        slow = self.slow_log if pairs is not None else None
        start = now_ns() if slow is not None else 0
        results = self._frame(
            shard_id, "local_many",
            ([condensed[i] for i in idxs], deadline_ms),
            idxs, deadline_at, condensed, answers,
        )
        if results is not None:
            for i, result in zip(idxs, results):
                answers[i] = (
                    self._degrade(*condensed[i], deadline_at, "deadline")
                    if result is None
                    else result
                )
        if slow is not None:
            elapsed = elapsed_ns(start)
            for i in idxs:
                u, v = pairs[i]
                slow.record(
                    u, v, answers[i], elapsed, "shard.local_many",
                    trace_id=trace_id, shard=shard_id,
                )

    def _cross(self, idxs, condensed, deadline_ms, answers) -> None:
        """Answer the cross-shard pairs at ``idxs`` over the backbone.

        One ``route_out`` frame per source shard reports each pair's
        direct edge and ``Out(u)``; one ``route_in`` frame per target
        shard reports ``In(v)`` for the pairs still open; then each
        pair's gateway product is searched on the backbone
        (:meth:`_gateway_product`).  A pair's envelope starts with its
        ``route_out`` frame and covers its whole route, so a lost or
        late frame degrades only the pairs it carried; its backbone
        search gets its own ``deadline_ms`` allowance, capped by what is
        left of that envelope.
        """
        owner = self.plan.owner_of
        envelope: dict[int, float | None] = {}
        outs: dict[int, tuple] = {}
        for shard_id, group in _by_shard(idxs, owner, condensed, 0):
            deadline_at = self._envelope(deadline_ms, len(group))
            replies = self._frame(
                shard_id, "route_out", [condensed[i] for i in group],
                group, deadline_at, condensed, answers,
            )
            for i, (direct, gateways) in zip(group, replies or ()):
                envelope[i] = deadline_at
                if direct or not gateways:
                    answers[i] = bool(direct)
                else:
                    outs[i] = gateways
        ins: dict[int, tuple] = {}
        for shard_id, group in _by_shard(outs, owner, condensed, 1):
            replies = self._frame(
                shard_id, "route_in", [condensed[i][1] for i in group],
                group, _latest(envelope, group), condensed, answers,
            )
            for i, gateways in zip(group, replies or ()):
                if gateways:
                    ins[i] = gateways
                else:
                    answers[i] = False
        for i in sorted(ins):
            deadline_at = envelope[i]
            if deadline_at is not None:
                deadline_at = min(deadline_at, monotonic() + deadline_ms / 1e3)
            verdict = self._gateway_product(outs[i], ins[i], deadline_at)
            answers[i] = (
                self._degrade(*condensed[i], deadline_at, "deadline")
                if verdict is UNKNOWN
                else verdict
            )

    def _gateway_product(self, out_gateways, in_gateways, deadline_at):
        """``∃ b1 ∈ Out(u), b2 ∈ In(v): r*(b1, b2)`` on the backbone.

        Stops at the first ``True``.  The clock is read before each base
        query, which runs under what is left of ``deadline_at``;
        :data:`UNKNOWN` once it runs out, and a ``False`` is only
        definitive when no base query degraded.
        """
        index = self.plan.backbone_index
        verdict = False
        for b1, b2 in product(out_gateways, in_gateways):
            budget = None
            if deadline_at is not None:
                remaining = deadline_at - monotonic()
                if remaining <= 0:
                    return UNKNOWN
                budget = QueryBudget(deadline_s=remaining, policy="unknown")
            answer = index.query(b1, b2, budget=budget)
            if answer is True:
                return True
            if answer is UNKNOWN:
                verdict = UNKNOWN
        return verdict

    def _route(self, pairs: np.ndarray, deadline_ms, trace_id) -> list:
        """Answer validated pairs: the one query path.

        FELINE's rank rows over the global coordinates and the
        reflexive test cut the batch first, in one compiled pass where
        the C tier is available (``bind_table_classify``); surviving
        same-shard pairs travel per owning shard as chunked
        ``local_many`` frames, and cross-shard pairs as one gateway
        route (:meth:`_cross`).  Each pair counts once in the stats.
        With a slow log, cut-decided pairs are offered as ``"shard"``
        at their share of the cut pass, cross-shard pairs as
        ``"shard"`` with the cross route's wall time.
        """
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        slow = self.slow_log
        start = now_ns() if slow is not None else 0
        num = len(pairs)
        sources, targets = self._scc_view[pairs.T]
        codes, counts = self._classify(sources, targets)
        stats = self.stats
        stats.queries += num
        stats.positive_cuts += counts[CUT_POSITIVE]
        stats.negative_cuts += counts[CUT_NEGATIVE]
        verdicts = ANSWERS[codes]
        answers = verdicts.tolist()
        # The slow log records the caller's ids as plain ints.
        originals = pairs.tolist() if slow is not None else None
        if slow is not None and counts[SURVIVOR] < num:
            decided = codes != SURVIVOR
            slow.record_many(
                pairs[decided, 0], pairs[decided, 1], verdicts[decided],
                elapsed_ns(start) // num, "shard", trace_id=trace_id,
            )
        if not counts[SURVIVOR]:
            return answers
        survivors = np.flatnonzero(codes == SURVIVOR).tolist()
        condensed = list(zip(sources.tolist(), targets.tolist()))
        owner = self.plan.owner_of
        local, cross = [], []
        for i in survivors:
            cu, cv = condensed[i]
            (local if owner[cu] == owner[cv] else cross).append(i)
        stats.local_queries += len(local)
        stats.cross_queries += len(cross)
        chunk = self._LOCAL_MANY_CHUNK
        for shard_id, group in _by_shard(local, owner, condensed, 0):
            for begin in range(0, len(group), chunk):
                self._local_many(
                    shard_id, group[begin:begin + chunk], condensed,
                    deadline_ms, answers, originals, trace_id,
                )
        if cross:
            begin = now_ns() if slow is not None else 0
            self._cross(cross, condensed, deadline_ms, answers)
            if slow is not None:
                elapsed = elapsed_ns(begin)
                for i in cross:
                    u, v = originals[i]
                    slow.record(
                        u, v, answers[i], elapsed, "shard", trace_id=trace_id
                    )
        return answers

    def _traced(self, name: str, pairs: np.ndarray, deadline_ms, **attributes):
        """:meth:`_route` inside a ``name`` span, which mints its own
        trace when no ambient one exists (this call is its own request
        edge)."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._route(pairs, deadline_ms, None)
        with tracer.span(name, shards=self.num_shards, **attributes) as span:
            if span.trace_id is None:
                span.trace_id = new_trace_id()
            answers = self._route(pairs, deadline_ms, span.trace_id)
            if len(answers) == 1:
                answer = answers[0]
                span.set_attribute(
                    "verdict", "unknown" if answer is UNKNOWN else answer
                )
            return answers

    def query(self, u: int, v: int, deadline_ms: float | None = None):
        """Answer ``r(u, v)`` through the shard protocol (ternary): a
        batch of one.

        ``deadline_ms`` (default ``ShardConfig.default_deadline_ms``)
        bounds the whole query; on expiry the answer is
        :data:`UNKNOWN`, never a guess and never a hang.
        """
        pairs = self._validated(((u, v),))
        return self._traced("shard.query", pairs, deadline_ms, u=u, v=v)[0]

    def query_many(self, pairs, deadline_ms: float | None = None) -> list:
        """Answer a batch of ``(u, v)`` pairs through the shard protocol.

        The coordinator cuts classify the whole batch in one pass;
        surviving same-shard pairs are grouped per owning shard and
        shipped as chunked ``local_many`` frames, and cross-shard pairs
        as one ``route_out`` frame per source shard, one ``route_in``
        frame per target shard and one backbone ``query_many``.
        Answers, stats and degradation match
        ``[self.query(u, v, deadline_ms) for u, v in pairs]``
        (``deadline_ms`` is per pair, as in :meth:`query`); a lost
        shard or a spent deadline degrades only the pairs whose frame
        it hit.

        ``pairs`` takes the same inputs as
        :meth:`repro.Reachability.reachable_many` — integer pairs or an
        ``(n, 2)`` integer ndarray — and rejects malformed ones the same
        way (:func:`repro.perf.engine.as_pair_array`), mapping vertices
        with one gather; the RPC frames carry tuples.
        """
        return self._many(self._validated(pairs), deadline_ms)

    def _many(self, pairs: np.ndarray, deadline_ms) -> list:
        if not len(pairs):
            return []
        return self._traced(
            "shard.query_many", pairs, deadline_ms, size=len(pairs)
        )

    # -- facade-compatible surface (ReachServer's oracle contract) ------
    def reachable(self, u: int, v: int, budget: QueryBudget | None = None):
        """Budget-compatible alias: ``budget.deadline_s`` propagates as
        the query deadline (the shard tier's only budget dimension —
        ``max_steps`` is a per-search knob the workers own locally).

        With ``policy="raise"`` a degraded answer raises
        :class:`~repro.exceptions.QueryBudgetExceeded`, matching the
        single-process budget contract.
        """
        deadline_ms = None
        if budget is not None and budget.deadline_s is not None:
            deadline_ms = budget.deadline_s * 1000.0
        answer = self.query(u, v, deadline_ms=deadline_ms)
        if answer is UNKNOWN and budget is not None and budget.policy == "raise":
            raise QueryBudgetExceeded(
                f"shard query ({u}, {v}) degraded to UNKNOWN within its "
                "deadline",
                resource="deadline",
            )
        return answer

    def reachable_many(self, pairs, budget: QueryBudget | None = None) -> list:
        """A batch of queries, each under its own deadline envelope.

        The batch path of :meth:`query_many`, validated once; answers
        and budget semantics match
        ``[self.reachable(u, v, budget=budget) for u, v in pairs]`` —
        with ``policy="raise"`` the first degraded pair (in batch order)
        raises :class:`~repro.exceptions.QueryBudgetExceeded`.
        """
        pairs = self._validated(pairs)
        deadline_ms = None
        if budget is not None and budget.deadline_s is not None:
            deadline_ms = budget.deadline_s * 1000.0
        answers = self._many(pairs, deadline_ms)
        if budget is not None and budget.policy == "raise":
            for position, answer in enumerate(answers):
                if answer is UNKNOWN:
                    u, v = pairs[position].tolist()
                    raise QueryBudgetExceeded(
                        f"shard query ({u}, {v}) degraded to UNKNOWN "
                        "within its deadline",
                        resource="deadline",
                    )
        return answers

    # -- shutdown -------------------------------------------------------
    def close(self) -> None:
        """Stop the supervisor and every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop_supervisor.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        for shard_id, channel in enumerate(self._channels):
            if channel is None:
                continue
            try:
                channel.request("stop", None, timeout_s=0.5)
            except WorkerError:
                pass
            if channel.process.is_alive() and channel.pid is not None:
                chaos.kill_process(channel.pid)
            channel.process.join(timeout=2.0)
            channel.close()
            self._channels[shard_id] = None
        for state in self.plan.shards:
            state.index.close_shared_pages()

    def __enter__(self) -> "ShardService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
