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
from time import monotonic

import numpy as np

from repro.exceptions import (
    InvalidVertexError,
    QueryBudgetExceeded,
    ReproError,
    WorkerError,
)
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense
from repro.graph.traversal import bounded_bidirectional_reachable
from repro.obs.distributed import TelemetryMerger, ingest_aux
from repro.obs.metrics import get_registry
from repro.obs.spans import get_tracer, new_trace_id
from repro.obs.timing import elapsed_ns, now_ns
from repro.perf.engine import as_pair_array
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

        Routed queries record per-pair entries carrying their
        ``trace_id`` (when tracing is on) and the owning shard;
        ``local_many`` sub-batches record each pair with the sub-batch
        RPC's wall time (the per-pair cost is not observable
        coordinator-side — the entry identifies the slow *batch*).
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
    def _map_vertex(self, vertex: int) -> int:
        if vertex < 0 or vertex >= self.graph.num_vertices:
            raise InvalidVertexError(vertex, self.graph.num_vertices)
        return self.condensation.scc_of[vertex]

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

    def _backbone_product(
        self,
        out_gateways,
        in_gateways,
        deadline_at: float | None,
    ):
        """``∃ b1 ∈ Out(u), b2 ∈ In(v): r*(b1, b2)`` on the coordinator.

        Deadline-aware: each base query is budgeted with the remaining
        time and the loop stops the moment the clock runs out.  A
        ``False`` is only definitive when *no* base query degraded.
        """
        index = self.plan.backbone_index
        any_unknown = False
        for b1 in out_gateways:
            for b2 in in_gateways:
                budget = None
                if deadline_at is not None:
                    remaining = deadline_at - monotonic()
                    if remaining <= 0:
                        raise _DeadlineExceeded()
                    budget = QueryBudget(
                        deadline_s=remaining, policy="unknown"
                    )
                answer = index.query(b1, b2, budget=budget)
                if answer is True:
                    return True
                if answer is UNKNOWN:
                    any_unknown = True
        return UNKNOWN if any_unknown else False

    def _cut_classify(self, cu: int, cv: int) -> bool | None:
        """Coordinator-side O(1) cuts; ``None`` means a shard must run.

        Shared by the scalar and batch paths so the grouped
        :meth:`query_many` counts cuts exactly like a per-pair loop.
        """
        stats = self.stats
        if cu == cv:
            return True
        coords = self.plan.coords
        if coords.x[cu] > coords.x[cv] or coords.y[cu] > coords.y[cv]:
            stats.negative_cuts += 1
            return False
        levels = coords.levels
        if levels is not None and levels[cu] >= levels[cv]:
            stats.negative_cuts += 1
            return False
        intervals = coords.tree_intervals
        if intervals is not None and intervals.contains(cu, cv):
            stats.positive_cuts += 1
            return True
        return None

    def _query_condensed(self, cu: int, cv: int, deadline_at: float | None):
        stats = self.stats
        verdict = self._cut_classify(cu, cv)
        if verdict is not None:
            return verdict

        owner_u = self.plan.owner_of[cu]
        owner_v = self.plan.owner_of[cv]
        try:
            if owner_u == owner_v:
                stats.local_queries += 1
                remaining = self._remaining_s(deadline_at)
                if remaining is not None and remaining <= 0:
                    raise _DeadlineExceeded()
                budget_ms = (
                    remaining * 1000.0 if remaining is not None else None
                )
                answer = self._rpc(
                    owner_u, "local", (cu, cv, budget_ms), deadline_at
                )
                if answer is None:
                    return self._degrade(cu, cv, deadline_at, "deadline")
                return answer

            stats.cross_queries += 1
            direct, out_gateways = self._rpc(
                owner_u, "route_out", (cu, cv), deadline_at
            )
            if direct:
                return True
            if not out_gateways:
                return False
            in_gateways = self._rpc(
                owner_v, "route_in", (cv,), deadline_at
            )
            if not in_gateways:
                return False
            answer = self._backbone_product(
                out_gateways, in_gateways, deadline_at
            )
            if answer is UNKNOWN:
                return self._degrade(cu, cv, deadline_at, "deadline")
            return answer
        except _DeadlineExceeded:
            return self._degrade(cu, cv, deadline_at, "deadline")
        except ShardLostError:
            return self._degrade(
                cu, cv, deadline_at, self.config.on_shard_loss
            )

    def query(self, u: int, v: int, deadline_ms: float | None = None):
        """Answer ``r(u, v)`` through the shard protocol (ternary).

        ``deadline_ms`` (default ``ShardConfig.default_deadline_ms``)
        bounds the whole query; on expiry the answer is
        :data:`UNKNOWN`, never a guess and never a hang.
        """
        if self._closed:
            raise ReproError("ShardService is closed")
        cu, cv = self._map_vertex(u), self._map_vertex(v)
        self.stats.queries += 1
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline_at = (
            monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        tracer = get_tracer()
        slow = self.slow_log
        if not tracer.enabled and slow is None:
            return self._query_condensed(cu, cv, deadline_at)
        span = (
            tracer.span("shard.query", u=u, v=v, shards=self.num_shards)
            if tracer.enabled
            else None
        )
        if span is not None:
            if span.trace_id is None:
                # No ambient trace (direct service use, not behind the
                # HTTP edge): this query is its own request edge.
                span.trace_id = new_trace_id()
            span.__enter__()
        start = now_ns() if slow is not None else 0
        try:
            answer = self._query_condensed(cu, cv, deadline_at)
            if span is not None:
                span.set_attribute(
                    "verdict", "unknown" if answer is UNKNOWN else answer
                )
            if slow is not None:
                owner_u = self.plan.owner_of[cu]
                owner_v = self.plan.owner_of[cv]
                slow.record(
                    u, v, answer, elapsed_ns(start), "shard",
                    trace_id=span.trace_id if span is not None else None,
                    shard=int(owner_u) if owner_u == owner_v else None,
                )
            return answer
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    def _local_many(
        self,
        shard_id: int,
        idxs: list[int],
        condensed: list[tuple[int, int]],
        deadline_ms: float | None,
        answers: list,
        pairs=None,
        trace_id: int | None = None,
    ) -> None:
        """One ``local_many`` RPC for a same-shard sub-batch.

        ``deadline_ms`` is the *per-pair* allowance (the worker applies
        it to each pair, like a run of ``local`` calls); the RPC's own
        envelope and transport timeout scale with the sub-batch size so
        a full batch is never cheated out of its per-pair budgets.
        Fills ``answers`` in place at ``idxs``; any failure degrades
        every pair of the sub-batch, exactly like the scalar path.
        With a slow log attached (and ``pairs`` given) every pair is
        recorded with the sub-batch RPC's wall time — the per-pair cost
        is not observable coordinator-side, so the entry identifies the
        slow *batch* — tagged with the owning shard and ``trace_id``.
        """
        self.stats.local_queries += len(idxs)
        chunk_pairs = [condensed[i] for i in idxs]
        deadline_at = (
            monotonic() + (deadline_ms / 1000.0) * len(idxs)
            if deadline_ms is not None
            else None
        )
        slow = self.slow_log if pairs is not None else None
        start = now_ns() if slow is not None else 0
        try:
            results = self._rpc(
                shard_id,
                "local_many",
                (chunk_pairs, deadline_ms),
                deadline_at,
                timeout_s=self.config.rpc_timeout_s * len(idxs),
            )
            if not isinstance(results, list) or len(results) != len(idxs):
                raise ShardLostError(
                    f"shard {shard_id}: malformed local_many reply",
                    shard_id=shard_id,
                )
        except _DeadlineExceeded:
            for i in idxs:
                cu, cv = condensed[i]
                answers[i] = self._degrade(cu, cv, deadline_at, "deadline")
        except ShardLostError:
            mode = self.config.on_shard_loss
            for i in idxs:
                cu, cv = condensed[i]
                answers[i] = self._degrade(cu, cv, deadline_at, mode)
        else:
            for i, result in zip(idxs, results):
                if result is None:
                    cu, cv = condensed[i]
                    answers[i] = self._degrade(cu, cv, deadline_at, "deadline")
                else:
                    answers[i] = result
        if slow is not None:
            elapsed = elapsed_ns(start)
            for i in idxs:
                u, v = pairs[i]
                slow.record(
                    u, v, answers[i], elapsed, "shard.local_many",
                    trace_id=trace_id, shard=shard_id,
                )

    def query_many(self, pairs, deadline_ms: float | None = None) -> list:
        """Answer a batch of ``(u, v)`` pairs through the shard protocol.

        The coordinator cuts classify every pair first; surviving
        same-shard pairs are grouped per owning shard and shipped as
        chunked ``local_many`` sub-batches — **one RPC per (shard,
        sub-batch)** instead of one per pair — while cross-shard pairs
        keep the per-pair gateway-product path.  Answers, degradation
        and deadline semantics are identical to
        ``[self.query(u, v, deadline_ms) for u, v in pairs]``
        (``deadline_ms`` is per pair, as in :meth:`query`).

        ``pairs`` takes the same inputs as
        :meth:`repro.Reachability.reachable_many` — integer pairs or an
        ``(n, 2)`` integer ndarray — and rejects malformed ones the same
        way (:func:`repro.perf.engine.as_pair_array`), mapping vertices
        with one gather; the RPC frames still carry tuples.
        """
        if self._closed:
            raise ReproError("ShardService is closed")
        pairs = as_pair_array(pairs, self.graph.num_vertices)
        if not len(pairs):
            return []
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        mapped = self._scc_view[pairs]
        condensed = list(zip(mapped[:, 0].tolist(), mapped[:, 1].tolist()))
        slow = self.slow_log
        # The slow log records the caller's ids as plain ints.
        originals = pairs.tolist() if slow is not None else None
        self.stats.queries += len(pairs)
        answers: list = [None] * len(pairs)
        groups: dict[int, list[int]] = {}
        cross: list[int] = []
        for i, (cu, cv) in enumerate(condensed):
            verdict = self._cut_classify(cu, cv)
            if verdict is not None:
                answers[i] = verdict
                continue
            owner_u = self.plan.owner_of[cu]
            if owner_u == self.plan.owner_of[cv]:
                groups.setdefault(int(owner_u), []).append(i)
            else:
                cross.append(i)
        tracer = get_tracer()
        span = (
            tracer.span(
                "shard.query_many", size=len(pairs), shards=self.num_shards
            )
            if tracer.enabled
            else None
        )
        if span is not None:
            if span.trace_id is None:
                # Batch equivalent of the scalar edge-minting above.
                span.trace_id = new_trace_id()
            span.__enter__()
        batch_trace = span.trace_id if span is not None else None
        try:
            chunk = self._LOCAL_MANY_CHUNK
            for shard_id in sorted(groups):
                idxs = groups[shard_id]
                for start in range(0, len(idxs), chunk):
                    self._local_many(
                        shard_id,
                        idxs[start:start + chunk],
                        condensed,
                        deadline_ms,
                        answers,
                        pairs=originals,
                        trace_id=batch_trace,
                    )
            for i in cross:
                cu, cv = condensed[i]
                deadline_at = (
                    monotonic() + deadline_ms / 1000.0
                    if deadline_ms is not None
                    else None
                )
                if slow is not None:
                    pair_start = now_ns()
                answers[i] = self._query_condensed(cu, cv, deadline_at)
                if slow is not None:
                    u, v = originals[i]
                    slow.record(
                        u, v, answers[i], elapsed_ns(pair_start), "shard",
                        trace_id=batch_trace,
                    )
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        return answers

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

        Routes through :meth:`query_many`, so same-shard pairs travel
        as grouped ``local_many`` sub-batches instead of one RPC per
        pair; answers and budget semantics match
        ``[self.reachable(u, v, budget=budget) for u, v in pairs]`` —
        with ``policy="raise"`` the first degraded pair (in batch
        order) raises :class:`~repro.exceptions.QueryBudgetExceeded`.
        """
        pairs = list(pairs)
        deadline_ms = None
        if budget is not None and budget.deadline_s is not None:
            deadline_ms = budget.deadline_s * 1000.0
        answers = self.query_many(pairs, deadline_ms=deadline_ms)
        if budget is not None and budget.policy == "raise":
            for (u, v), answer in zip(pairs, answers):
                if answer is UNKNOWN:
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
