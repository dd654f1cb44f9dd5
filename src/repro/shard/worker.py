"""The shard worker process: serve one partition, answer pure RPCs.

A worker is forked from the coordinator *after* the shard plan is built,
so its :class:`~repro.shard.plan.ShardState` (slab subgraph, budgeted
FELINE index, gateway tables) arrives through copy-on-write memory with
zero serialization — exactly the :class:`~repro.perf.pool.SearchPool`
trick, applied to a long-lived serving process.  Because the state is
immutable, every RPC is a pure function and the coordinator may freely
retry or re-dispatch one to a *restarted* worker.

Operations:

* ``ping`` — liveness probe for the supervisor.
* ``local_many (pairs, budget_ms)`` — a same-shard sub-batch answered
  by the shard's own FELINE index (exact: the slab is closed under
  paths, see :mod:`repro.shard.plan`) through its vectorized
  ``query_many``, or pair by pair with ``query`` for a frame of at most
  :data:`PER_PAIR_FRAME` pairs; ``budget_ms`` is each pair's own
  deadline allowance when set, and the answer is an aligned list of
  ``True`` / ``False`` / ``None`` (= UNKNOWN on the wire).
* ``route_out [(u, v), ...]`` — per pair, the direct-edge check plus
  ``Out(u) = ({u} ∪ N⁺(u)) ∩ B`` for the coordinator's gateway
  product: an aligned list of ``(direct, Out(u))``.
* ``route_in [v, ...]`` — the ``In(v)`` halves, an aligned list.
* ``stop`` — acknowledge and exit cleanly.

With tracing/metrics enabled before the service was built, a worker is a
first-class observability citizen: it inherits the coordinator's tracer
and registry objects through the fork, clears/zeroes them at startup (the
inherited contents belong to the parent), and then records spans and
instrument updates of its own.  Finished spans and cumulative telemetry
snapshots are *piggybacked* on RPC responses as an optional fourth frame
element and stitched coordinator-side (see :mod:`repro.obs.distributed`);
spans finished without a request's trace context are dropped here, never
shipped under a wrong parent.  With the default null tracer/registry the
worker does none of this and the response frames stay 3-tuples.

Chaos hook points (inherited through fork, so tests install them on the
coordinator *before* the service starts):

* ``shard.worker.request`` — fires on receipt; a raising hook turns
  into an error response (the coordinator sees a transient failure).
* ``shard.worker.respond`` — fires before the reply is sent; raising
  :class:`~repro.resilience.chaos.DropResponse` swallows the reply
  (lost message) and :class:`~repro.resilience.chaos.DuplicateResponse`
  sends it twice (duplicated message).
"""

from __future__ import annotations

import os
from time import monotonic

from repro.obs.distributed import TELEMETRY_INTERVAL_S, build_aux
from repro.obs.metrics import get_registry, reset_instruments
from repro.obs.spans import get_tracer
from repro.resilience import chaos
from repro.resilience.budget import UNKNOWN, QueryBudget
from repro.shard.plan import ShardState

__all__ = ["PER_PAIR_FRAME", "worker_main"]

#: A ``local_many`` frame of at most this many pairs is answered pair by
#: pair with ``index.query``.  A ``budget_ms`` frame needs it: its
#: deadline keeps ``query_many`` on the engine's guarded loop, whose fixed
#: cost (FELINE on ``random_dag(4000, avg_degree=3.0, seed=1)``, one
#: pinned CPU) is 26-41 µs for one pair against 5 µs pair by pair, and
#: 43-329 against 23-272 µs at 8 pairs; at 64 pairs ``query_many`` is
#: level or ahead (400-1,011 against 413-1,711 µs).  Without a deadline
#: the C tier's one-call batch is level at one pair (1.9 against
#: 1.7-2.1 µs) and 3-7× ahead at 8 (2.2-5.2 against 15-28 µs), but an
#: index with metrics on keeps the engine's route.  A scalar
#: ``ShardService.query`` sends one-pair frames.
PER_PAIR_FRAME = 8


def _handle(state: ShardState, op: str, payload):
    if op == "ping":
        return "pong"
    if op == "local_many":
        pairs, budget_ms = payload
        local_pairs = []
        for u, v in pairs:
            lu, lv = state.sub.local_of[u], state.sub.local_of[v]
            if lu == -1 or lv == -1:
                raise ValueError(
                    f"shard {state.shard_id} does not own pair ({u}, {v})"
                )
            local_pairs.append((lu, lv))
        budget = None
        if budget_ms is not None:
            if budget_ms <= 0:
                return [None] * len(local_pairs)
            # Per-pair allowance: every survivor search runs under a
            # fresh guard, whichever route answers the frame
            # (cut-decided pairs need none).
            budget = QueryBudget(
                deadline_s=budget_ms / 1000.0, policy="unknown"
            )
        index = state.index
        if len(local_pairs) <= PER_PAIR_FRAME:
            answers = [index.query(lu, lv, budget) for lu, lv in local_pairs]
        else:
            answers = index.query_many(local_pairs, budget=budget)
        return [None if a is UNKNOWN else bool(a) for a in answers]
    if op == "route_out":
        replies = []
        for u, v in payload:
            gateways = state.out_gateways.get(u)
            if gateways is None:
                raise ValueError(f"shard {state.shard_id} does not own {u}")
            replies.append((v in state.out_neighbors[u], gateways))
        return replies
    if op == "route_in":
        replies = []
        for v in payload:
            gateways = state.in_gateways.get(v)
            if gateways is None:
                raise ValueError(f"shard {state.shard_id} does not own {v}")
            replies.append(gateways)
        return replies
    raise ValueError(f"unknown shard op {op!r}")


def worker_main(state: ShardState, conn) -> None:
    """Serve RPCs over ``conn`` until ``stop``, EOF, or a closed pipe.

    Runs as the target of a forked ``multiprocessing.Process``.  The
    inherited tracer ring is cleared and the inherited registry zeroed
    *in place* at startup — the index's observability handles (resolved
    at build time, pre-fork) keep pointing at them, so everything the
    worker's index observes from here on is worker-pure and shippable;
    the pre-fork contents belong to the coordinator.  With the default
    null tracer/registry this is all skipped and the worker behaves
    exactly as before: pure RPCs, 3-tuple responses.
    """
    shard_id = state.shard_id
    tracer = get_tracer()
    tracing = tracer.enabled
    if tracing:
        tracer.clear()
    registry = get_registry()
    telemetry = registry.enabled
    if telemetry:
        reset_instruments(registry)
        registry.gauge(
            "repro_shard_index_tier_info",
            help="Index tier this worker serves (info gauge: value 1).",
            tier=state.index_tier,
        ).set(1)
    pid = os.getpid()
    last_ship = 0.0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        try:
            seq, op, payload = message[0], message[1], message[2]
        except (TypeError, IndexError, KeyError):
            continue  # garbage frame: a well-behaved worker ignores it
        trace_ctx = message[3] if isinstance(message, tuple) and len(message) > 3 else None
        if not (isinstance(trace_ctx, tuple) and len(trace_ctx) == 2):
            trace_ctx = None
        if op == "stop":
            try:
                conn.send((seq, "ok", None))
            except (BrokenPipeError, OSError):
                pass
            break
        aux = None
        try:
            chaos.fire(
                "shard.worker.request", shard_id=shard_id, op=op, seq=seq
            )
            if tracing and trace_ctx is not None and op != "ping":
                with tracer.span(
                    f"worker.{op}", trace_id=trace_ctx[0], shard=shard_id
                ):
                    result = _handle(state, op, payload)
            else:
                result = _handle(state, op, payload)
        except Exception as exc:  # noqa: BLE001 — relayed as error frame
            if tracing:
                tracer.clear()  # never ship spans of a failed request
            response = (seq, "error", f"{type(exc).__name__}: {exc}")
        else:
            now = monotonic()
            ship = telemetry and (
                op == "ping" or now - last_ship >= TELEMETRY_INTERVAL_S
            )
            if tracing or ship:
                aux = build_aux(
                    tracer=tracer,
                    registry=registry,
                    trace_ctx=trace_ctx if tracing else None,
                    pid=pid,
                    ship_telemetry=ship,
                )
            if ship:
                last_ship = now
            response = (
                (seq, "ok", result)
                if aux is None
                else (seq, "ok", result, aux)
            )
        copies = 1
        try:
            chaos.fire(
                "shard.worker.respond", shard_id=shard_id, op=op, seq=seq
            )
        except chaos.DropResponse:
            continue
        except chaos.DuplicateResponse:
            copies = 2
        try:
            for _ in range(copies):
                conn.send(response)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass
