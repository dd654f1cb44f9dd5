"""repro.shard — the fault-tolerant multi-process shard deployment.

The distributed FELINE the paper's conclusion announces, run as forked
worker processes on one host: each worker owns an X-slab partition of
the condensed DAG with its own (budgeted) FELINE index, and a
coordinator routes cross-shard queries through the SCARAB backbone, supervises workers with heartbeats,
propagates per-query deadlines end-to-end, fails over dead or wedged
workers by re-forking from the prebuilt plan, and degrades to a bounded
coordinator-side search (or an honest :data:`~repro.resilience.UNKNOWN`)
on unrecoverable shard loss.  Never a hang, never a wrong boolean.

Layout
------
* :mod:`repro.shard.plan` — partitioning + per-shard index budgets.
* :mod:`repro.shard.rpc` — the pipe protocol (sequence-matched,
  deadline-bounded, murder-aware).
* :mod:`repro.shard.worker` — the worker process loop (pure RPCs).
* :mod:`repro.shard.service` — :class:`ShardService`: supervision,
  failover, degradation, the budget-compatible query surface.
* :mod:`repro.shard.drill` — :func:`chaos_drill`, the kill-based suite
  behind ``repro chaos-drill`` and ``BENCH_pr7.json``.
"""

from repro.shard.drill import chaos_drill
from repro.shard.plan import INDEX_TIERS, ShardPlan, ShardState, build_shard_plan
from repro.shard.rpc import WorkerChannel
from repro.shard.service import (
    ShardConfig,
    ShardLostError,
    ShardService,
    ShardServiceStats,
)

__all__ = [
    "ShardService",
    "ShardConfig",
    "ShardServiceStats",
    "ShardLostError",
    "ShardPlan",
    "ShardState",
    "build_shard_plan",
    "INDEX_TIERS",
    "WorkerChannel",
    "chaos_drill",
]
