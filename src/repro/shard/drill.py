"""The kill-based chaos drill: murder workers, measure the contract.

:func:`chaos_drill` runs the shard service through three phases against
a ground-truth oracle and returns a JSON-safe report (what
``repro chaos-drill --out`` writes):

1. **baseline** — no faults; establishes throughput and checks that the
   shard protocol answers exactly.
2. **chaos** — a killer thread SIGKILLs (and occasionally SIGSTOPs) a
   random live worker on a fixed cadence while queries flow with a
   per-query deadline.  The drill asserts the fault-tolerance contract
   query by query: every answer is correct or :data:`UNKNOWN`, and every
   query returns within deadline + grace (the grace absorbs coordinator
   scheduling noise on a loaded box; the deadline itself bounds the
   blocking protocol steps).
3. **degraded** — one shard is halted *permanently* (no restarts) to
   measure degraded-mode throughput on the ``on_shard_loss`` path.

Faults are injected with OS signals against real pids — there is no
simulation layer anywhere in this file.
"""

from __future__ import annotations

import threading
from random import Random
from time import monotonic, perf_counter

from repro.core.query import FelineIndex
from repro.graph.digraph import DiGraph
from repro.resilience import chaos
from repro.resilience.budget import UNKNOWN
from repro.shard.service import ShardConfig, ShardService

__all__ = ["chaos_drill"]


def _percentile(values: list[float], q: float) -> float | None:
    if not values:
        return None
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[k]


def _latency_summary(latencies_s: list[float]) -> dict:
    return {
        "count": len(latencies_s),
        "p50_ms": _p_ms(latencies_s, 0.50),
        "p95_ms": _p_ms(latencies_s, 0.95),
        "p99_ms": _p_ms(latencies_s, 0.99),
        "max_ms": _p_ms(latencies_s, 1.0),
    }


def _p_ms(latencies_s: list[float], q: float) -> float | None:
    value = _percentile(latencies_s, q)
    return round(value * 1000.0, 3) if value is not None else None


class _Killer(threading.Thread):
    """Fault injector: every ``interval_s`` SIGKILL a random live worker
    (every ~4th fault is a SIGSTOP instead, exercising the heartbeat
    fencing path — the supervisor must detect the wedged-alive worker
    and SIGKILL it itself)."""

    def __init__(
        self, service: ShardService, interval_s: float, seed: int
    ) -> None:
        super().__init__(name="repro-chaos-killer", daemon=True)
        self.service = service
        self.interval_s = interval_s
        self.rng = Random(seed)
        self.stop_event = threading.Event()
        self.kills = 0
        self.freezes = 0

    def run(self) -> None:
        while not self.stop_event.wait(self.interval_s):
            pids = self.service.worker_pids()
            live = [(sid, pid) for sid, pid in enumerate(pids) if pid]
            if not live:
                continue
            _, pid = self.rng.choice(live)
            if self.rng.random() < 0.25:
                if chaos.freeze_process(pid):
                    self.freezes += 1
            elif chaos.kill_process(pid):
                self.kills += 1

    def stop(self) -> None:
        self.stop_event.set()
        self.join(timeout=5.0)


def _run_phase(
    service: ShardService,
    pairs: list[tuple[int, int]],
    truth: list[bool],
    duration_s: float,
    deadline_ms: float | None,
    grace_ms: float,
) -> dict:
    """Cycle through ``pairs`` for ``duration_s``, scoring every answer
    against the oracle and its wall time against the deadline."""
    latencies: list[float] = []
    wrong = unknown = violations = answered = 0
    end_at = monotonic() + duration_s
    i = 0
    while monotonic() < end_at:
        u, v = pairs[i % len(pairs)]
        expected = truth[i % len(pairs)]
        started = perf_counter()
        answer = service.query(u, v, deadline_ms=deadline_ms)
        elapsed = perf_counter() - started
        latencies.append(elapsed)
        answered += 1
        if answer is UNKNOWN:
            unknown += 1
        elif bool(answer) != expected:
            wrong += 1
        if (
            deadline_ms is not None
            and elapsed * 1000.0 > deadline_ms + grace_ms
        ):
            violations += 1
        i += 1
    elapsed_total = sum(latencies)
    return {
        "queries": answered,
        "duration_s": round(duration_s, 3),
        "qps": round(answered / elapsed_total, 1) if elapsed_total else None,
        "wrong": wrong,
        "unknown": unknown,
        "deadline_violations": violations,
        "latency": _latency_summary(latencies),
    }


def chaos_drill(
    graph: DiGraph,
    num_shards: int = 3,
    num_pairs: int = 200,
    deadline_ms: float = 250.0,
    grace_ms: float = 250.0,
    baseline_s: float = 2.0,
    chaos_s: float = 6.0,
    degraded_s: float = 2.0,
    kill_interval_s: float = 0.4,
    on_shard_loss: str = "fallback",
    seed: int = 0,
    config: ShardConfig | None = None,
) -> dict:
    """Run the three-phase drill; returns the report dict.

    ``config`` overrides the derived :class:`ShardConfig` wholesale when
    given (the drill still needs ``supervise=True`` to recover from the
    SIGSTOP faults).  The oracle is a coordinator-side FELINE index over
    the same condensed DAG the service routes on, so "wrong" means
    *provably* wrong.
    """
    if config is None:
        config = ShardConfig(
            num_shards=num_shards,
            on_shard_loss=on_shard_loss,
            heartbeat_interval_s=0.1,
            heartbeat_timeout_s=0.2,
            heartbeat_miss_limit=2,
        )
    rng = Random(seed)
    n = graph.num_vertices
    pairs = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(num_pairs)
    ]

    with ShardService(graph, config) as service:
        oracle = FelineIndex(service.plan.dag).build()
        scc_of = service.condensation.scc_of
        truth = [bool(oracle.query(scc_of[u], scc_of[v])) for u, v in pairs]

        baseline = _run_phase(
            service, pairs, truth, baseline_s, deadline_ms, grace_ms
        )

        killer = _Killer(service, kill_interval_s, seed=seed + 1)
        killer.start()
        try:
            chaos_phase = _run_phase(
                service, pairs, truth, chaos_s, deadline_ms, grace_ms
            )
        finally:
            killer.stop()
        # Let the supervisor finish any in-flight restart (and thaw
        # nothing: frozen workers were fenced with SIGKILL + refork).
        failover = _latency_summary(service.stats.failover_latencies_s)

        halted = service.num_shards // 2  # a middle slab: cross traffic
        degraded = None
        if service.num_shards > 1:
            service.halt_worker(halted)
            degraded = _run_phase(
                service, pairs, truth, degraded_s, deadline_ms, grace_ms
            )
            degraded["halted_shard"] = halted
            service.revive_worker(halted)

        stats = service.stats.as_dict()
        stats.pop("failover_latencies_s", None)
        report = {
            "bench": "shard-chaos-drill",
            "graph": {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "condensed_vertices": service.plan.dag.num_vertices,
            },
            "config": {
                "num_shards": service.num_shards,
                "deadline_ms": deadline_ms,
                "grace_ms": grace_ms,
                "kill_interval_s": kill_interval_s,
                "on_shard_loss": config.on_shard_loss,
                "seed": seed,
                "num_pairs": num_pairs,
            },
            "plan": {
                "shard_sizes": service.plan.shard_sizes(),
                "index_report": service.plan.index_report(),
            },
            "phases": {
                "baseline": baseline,
                "chaos": chaos_phase,
                "degraded": degraded,
            },
            "faults": {
                "sigkills": killer.kills,
                "sigstops": killer.freezes,
            },
            "failover_latency": failover,
            "service_stats": stats,
            "contract": {
                "wrong_answers": (
                    baseline["wrong"]
                    + chaos_phase["wrong"]
                    + (degraded["wrong"] if degraded else 0)
                ),
                "deadline_violations": (
                    baseline["deadline_violations"]
                    + chaos_phase["deadline_violations"]
                    + (degraded["deadline_violations"] if degraded else 0)
                ),
            },
        }
        return report
