"""The one compiled call per batch against today's engine route and the
scalar loop.

Where an index binds a compiled cut pass and a C sweep,
``Reachability.reachable_many`` and ``ReachabilityIndex.query_many``
hand the raw batch to :func:`~repro.perf.engine.compiled_query_many`
(``batch`` in ``_edge.c``).  Its answers and every ``QueryStats``
field, the degradation counters included, must equal those of the
engine's route (:func:`~repro.perf.engine.vectorized_query_many` over
:func:`~repro.perf.engine.as_pair_array`, the reference) and of the
scalar ``query`` loop, for every family with a C sweep, with and without
observers, over every input form, unbudgeted and under a step budget of
each policy.  Batches it declines — generators, unsigned arrays, every
malformed batch — take the engine's route and raise its exact errors
with the stats untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exceptions import QueryBudgetExceeded
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.perf import engine
from repro.resilience import QueryBudget, chaos

from tests.batch_cases import MALFORMED
from tests.property.test_kernel_equivalence import require_c

FAMILIES = ["feline", "feline-b", "feline-i", "feline-k", "grail", "bibfs"]

INPUTS = {
    "tuples": lambda pairs: [tuple(p) for p in pairs],
    "lists": lambda pairs: [list(p) for p in pairs],
    "tuple": lambda pairs: tuple(tuple(p) for p in pairs),
    "int64-array": lambda pairs: np.asarray(pairs, dtype=np.int64),
    "uint-array": lambda pairs: np.asarray(pairs, dtype=np.uint64),
    "generator": lambda pairs: (tuple(p) for p in pairs),
}

# Inputs the call takes whole; the others take the engine's route at the
# facade (and the call again at the index, on the mapped int64 array).
TAKEN = {"tuples", "lists", "tuple", "int64-array"}

BUDGETS = {
    "none": None,
    "unknown": QueryBudget(max_steps=2, policy="unknown"),
    "raise": QueryBudget(max_steps=2, policy="raise"),
    "fallback": QueryBudget(max_steps=2, policy="fallback"),
}


def _graph() -> DiGraph:
    """A DAG with a few cycles folded in, so the SCC map is not the
    identity."""
    dag = random_dag(60, avg_degree=2.5, seed=4)
    return DiGraph(60, [*dag.edges(), (7, 3), (30, 12), (45, 45)])


def _pairs() -> list[tuple[int, int]]:
    """Random pairs, each distinct one twice or more, reflexive pairs and
    two members of one SCC."""
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, 60, size=(150, 2)).tolist()
    pairs += pairs[:40] + pairs[:5] + [[9, 9], [45, 45], [3, 7], [7, 3]]
    return [tuple(pair) for pair in pairs]


def _facade(method: str, observers: int) -> repro.Reachability:
    return repro.Reachability(_graph(), method=method, observers=observers)


def _outcome(call):
    """``("ok", answers)`` or ``("raised", type, message, resource,
    steps)``."""
    try:
        return ("ok", call())
    except QueryBudgetExceeded as exc:
        return ("raised", type(exc), str(exc), exc.resource, exc.steps)


def _engine_route(facade, pairs, budget):
    """Today's facade route: the boundary, the SCC gather and the
    engine."""
    index = facade.index
    mapped = facade._scc_view[
        engine.as_pair_array(pairs, facade.graph.num_vertices)
    ]
    return engine.vectorized_query_many(index, mapped, budget)


def _refuse_engine_search(monkeypatch) -> None:
    """Fail on any call into the engine's survivor search."""

    def refuse(*args, **kwargs):
        raise AssertionError("the engine's survivor search ran")

    for name in ("_search_survivors", "_search_guarded"):
        monkeypatch.setattr(engine, name, refuse)


@pytest.fixture
def no_engine_search(monkeypatch):
    _refuse_engine_search(monkeypatch)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("form", sorted(INPUTS))
@pytest.mark.parametrize("observers", [0, 4])
@pytest.mark.parametrize("method", FAMILIES)
def test_matches_the_engine_route_and_the_scalar_loop(
    method, observers, form, budget
):
    require_c()
    pairs = _pairs()
    budget = BUDGETS[budget]
    routed = _facade(method, observers)
    assert routed.index._batch is not None
    # A form the facade declines reaches query_many as an int64 array,
    # which the call takes: the engine never searches.
    with pytest.MonkeyPatch.context() as patch:
        _refuse_engine_search(patch)
        batch = INPUTS[form](pairs)
        got = _outcome(lambda: routed.reachable_many(batch, budget))
    reference = _facade(method, observers)
    want = _outcome(lambda: _engine_route(reference, pairs, budget))
    assert got == want
    assert routed.stats.as_dict() == reference.stats.as_dict()
    if got[0] == "ok":
        assert all(a is b for a, b in zip(got[1], want[1]))
    else:
        assert budget.policy == "raise"
    if budget is not None and budget.policy == "raise":
        return  # the scalar loop stops counting at the raising pair
    scalar = _facade(method, observers)
    answers = [scalar.reachable(u, v, budget) for u, v in pairs]
    assert got == ("ok", answers)
    assert routed.stats.as_dict() == scalar.stats.as_dict()
    if budget is not None:
        assert routed.stats.budget_exhausted > 0


@pytest.mark.parametrize("method", FAMILIES)
def test_index_batches_take_the_call(method, no_engine_search):
    # query_many hands its raw batch over too: the engine never
    # searches, and the answers are the scalar loop's.
    require_c()
    pairs = _pairs()
    graph = random_dag(60, avg_degree=2.5, seed=4)
    index = repro.Reachability(graph, method=method).index
    for form in sorted(TAKEN):
        assert index.query_many(INPUTS[form](pairs)) == [
            index.query(u, v) for u, v in pairs
        ]


@pytest.mark.parametrize("form", sorted(TAKEN))
def test_the_facade_takes_the_call(form, no_engine_search, monkeypatch):
    require_c()
    facade = _facade("feline", 4)

    def refuse(*args, **kwargs):
        raise AssertionError("the facade batch left the call")

    monkeypatch.setattr(facade.index, "query_many", refuse)
    pairs = _pairs()
    assert facade.reachable_many(INPUTS[form](pairs)) == [
        facade.reachable(u, v) for u, v in pairs
    ]


@pytest.mark.parametrize("case", MALFORMED, ids=lambda case: case[0])
def test_malformed_batches_raise_with_stats_untouched(case):
    require_c()
    _, make, error, vertex = case
    facade = repro.Reachability(random_dag(12, avg_degree=2.0, seed=4))
    facade.reachable_many([(0, 1), (2, 2)])
    for answer in (facade.reachable_many, facade.index.query_many):
        before = facade.stats.as_dict()
        with pytest.raises(error) as raised:
            answer(make())
        if vertex is not None:
            assert raised.value.vertex == vertex
        assert facade.stats.as_dict() == before


def test_the_chaos_point_fires_before_any_stat_moves():
    require_c()
    facade = _facade("feline", 4)
    pairs = _pairs()
    fired = []
    with chaos.injected(
        "index.query_many", lambda **context: fired.append(context)
    ):
        facade.reachable_many(pairs)
        facade.index.query_many(facade._scc_view[np.asarray(pairs[:10])])
    assert fired == [
        {"method": "feline", "pairs": len(pairs)},
        {"method": "feline", "pairs": 10},
    ]
    before = facade.stats.as_dict()
    with chaos.injected("index.query_many"):
        with pytest.raises(chaos.InjectedFault):
            facade.reachable_many(pairs)
    assert facade.stats.as_dict() == before


def test_armed_hooks_keep_the_engine_route(monkeypatch):
    # A slow log, a survivor guard or an instance-level _search wrapper
    # is served by the engine's route, which runs it.
    require_c()
    facade = _facade("feline", 0)
    pairs = _pairs()
    calls = []
    original = engine.vectorized_query_many

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr("repro.baselines.base.vectorized_query_many", spy)
    expected = [facade.reachable(u, v) for u, v in pairs]
    facade.enable_slow_log(threshold_ms=1e6)
    assert facade.reachable_many(pairs) == expected
    facade.index.attach_slow_log(None)
    assert len(calls) == 1
    facade.index._search = facade.index._search
    assert facade.reachable_many(pairs) == expected
    assert len(calls) == 2
    del facade.index._search
    assert facade.reachable_many(pairs) == expected
    deadline = QueryBudget(max_steps=10**6, deadline_s=60.0)
    assert facade.reachable_many(pairs, deadline) == expected
    assert len(calls) == 3
