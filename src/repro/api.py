"""repro.api — the stable, versioned surface of the package.

Everything here is a supported, documented entry point; internals may
move between modules, but these names hold still.  Import from here when
embedding the oracle in another system::

    from repro import api

    oracle = api.build_index(edges)                  # any directed graph
    result = api.reach(oracle, 0, 42)                # typed ReachResult
    server = api.ReachServer(oracle, api.ServeConfig(port=8080))

The surface, by concern:

* **Building** — :func:`build_index` (the :class:`Reachability` facade:
  condensation, method registry, optional search pool), plus the raw
  index persistence pair :func:`save_index` / :func:`load_index` for
  build-once-serve-many deployments.
* **Querying** — :func:`reach` / :func:`reach_many` return typed
  :class:`ReachResult` objects (pair, JSON-safe answer, verdict,
  optional stats); the facade's own ``reachable`` / ``reachable_many``
  remain the lean bool/ternary hot path.
* **Serving** — :class:`ReachServer` behind :class:`ServeConfig`, the
  asyncio tier with request coalescing, and the load-generation entry
  points :func:`run_loadgen` / :func:`compare_serving`.
* **Sharding** — :class:`ShardService` behind :class:`ShardConfig`, the
  fault-tolerant multi-process deployment (supervised workers, deadline
  propagation, failover, degradation); it quacks like the facade, so
  ``ReachServer(ShardService(...))`` serves a cluster.
* **Resilience** — :class:`QueryBudget` and the :data:`UNKNOWN`
  sentinel, because degraded answers are part of the contract.

``repro.serve`` and the metrics/span machinery stay importable directly;
this module only curates, it does not wrap.
"""

from __future__ import annotations

# repro/__init__ binds Reachability before it imports this module.
from repro import Reachability
from repro.baselines.base import QueryStats, available_methods
from repro.core.persistence import load_index, save_index
from repro.exceptions import ReproError
from repro.graph.digraph import DiGraph
from repro.resilience import UNKNOWN, QueryBudget
from repro.serve import (
    ReachResult,
    ReachServer,
    ServeConfig,
    compare_serving,
    run_loadgen,
    verdict_of,
)
from repro.shard import ShardConfig, ShardService

__all__ = [
    # building
    "build_index",
    "save_index",
    "load_index",
    "Reachability",
    "DiGraph",
    "available_methods",
    # querying
    "reach",
    "reach_many",
    "ReachResult",
    "verdict_of",
    "QueryStats",
    # serving
    "ReachServer",
    "ServeConfig",
    "run_loadgen",
    "compare_serving",
    # sharding
    "ShardService",
    "ShardConfig",
    # resilience
    "QueryBudget",
    "UNKNOWN",
    "ReproError",
]


def build_index(graph, **options) -> Reachability:
    """Build a ready-to-query oracle over any directed graph.

    ``graph`` is a :class:`DiGraph` or an iterable of ``(u, v)`` edges;
    cycles are condensed automatically.  Returns a
    :class:`~repro.Reachability` — pass it straight to
    :class:`ReachServer` or query it in process.  ``options`` are the
    facade's own — ``method``, ``workers``, ``observers``, ``kernel``,
    ``shared_pages`` and index parameters; see :class:`Reachability`
    and ``docs/PERFORMANCE.md``.
    """
    return Reachability(graph, **options)


def reach(
    oracle, u: int, v: int, budget: QueryBudget | None = None
) -> ReachResult:
    """One reachability query as a typed :class:`ReachResult`.

    Wraps ``oracle.reachable(u, v, budget=...)``; a budget-degraded
    query yields ``verdict="unknown"`` with ``answer=None`` rather than
    raising (unless the budget's own policy raises).
    """
    return ReachResult.from_answer(u, v, oracle.reachable(u, v, budget=budget))


def reach_many(
    oracle, pairs, budget: QueryBudget | None = None
) -> list[ReachResult]:
    """A batch of queries as typed results, aligned with ``pairs``.

    Routed through ``oracle.reachable_many`` so vectorized engines
    answer the whole batch in one pass.
    """
    pairs = list(pairs)
    answers = oracle.reachable_many(pairs, budget=budget)
    return [
        ReachResult.from_answer(u, v, answer)
        for (u, v), answer in zip(pairs, answers)
    ]

