"""Property: a budgeted query never returns a wrong boolean.

The resilience contract (see ``repro.resilience.budget``): under any
budget and any policy, the only thing that may replace an exact answer is
``UNKNOWN`` (or a raised ``QueryBudgetExceeded``).  Booleans are always
equal to the ground-truth oracle.

A budgeted ``query_many`` runs the vectorized engine with a guard per
survivor search; under step-only budgets it must equal the scalar
budgeted loop exactly — answers *and* every ``QueryStats`` counter — for
every registered family, with observers and with duplicated pairs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import available_methods, create_index
from repro.exceptions import QueryBudgetExceeded
from repro.graph.generators import random_dag
from repro.graph.transitive import transitive_closure_bitsets
from repro.perf.observers import build_observers
from repro.resilience import UNKNOWN, QueryBudget

from tests.property.test_invariants import dags
from tests.property.test_kernel_equivalence import (
    FILTERS,
    RANK_CELLS,
    require_c,
)
from tests.property.test_query_many_engine import SEARCHING_METHODS

METHODS = ["feline", "feline-i", "feline-b", "grail", "ferrari", "bibfs"]


def budgets():
    return st.builds(
        QueryBudget,
        max_steps=st.integers(min_value=1, max_value=12),
        policy=st.sampled_from(["unknown", "fallback"]),
        fallback_nodes=st.integers(min_value=1, max_value=12),
    )


class TestBudgetedAnswersAreSound:
    @given(
        g=dags(max_vertices=18),
        budget=budgets(),
        method=st.sampled_from(METHODS),
    )
    @settings(max_examples=60, deadline=None)
    def test_boolean_answers_match_oracle(self, g, budget, method):
        index = create_index(method, g).build()
        closure = transitive_closure_bitsets(g)
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                answer = index.query(u, v, budget=budget)
                assert answer is True or answer is False or answer is UNKNOWN
                if answer is not UNKNOWN:
                    expected = bool((closure[u] >> v) & 1)
                    assert answer == expected, (
                        f"{method} with {budget} answered {answer} for "
                        f"r({u}, {v}), oracle says {expected}"
                    )

    @given(g=dags(max_vertices=16), max_steps=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_raise_policy_never_lies(self, g, max_steps):
        index = create_index(
            "feline", g, use_level_filter=False, use_positive_cut=False
        ).build()
        closure = transitive_closure_bitsets(g)
        budget = QueryBudget(max_steps=max_steps, policy="raise")
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                try:
                    answer = index.query(u, v, budget=budget)
                except QueryBudgetExceeded:
                    continue  # allowed: no answer at all
                assert answer == bool((closure[u] >> v) & 1)

    @given(
        g=dags(max_vertices=14),
        budget=budgets(),
        method=st.one_of(
            st.just("feline"), st.sampled_from(available_methods())
        ),
        k=st.sampled_from([0, 3]),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_scalar(self, g, budget, method, k, data):
        n = g.num_vertices
        pairs = [(u, v) for u in range(n) for v in range(n)]
        pairs += data.draw(duplicate_heavy_pairs(n))
        random.Random(data.draw(st.integers(0, 2**32 - 1))).shuffle(pairs)
        _assert_batch_matches_scalar(method, g, pairs, budget, k)


def duplicate_heavy_pairs(n):
    """Pair lists drawn from a few distinct pairs, so most repeat."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.lists(pair, min_size=1, max_size=6).flatmap(
        lambda distinct: st.lists(
            st.sampled_from(distinct), min_size=1, max_size=40
        )
    )


def _indexes(method, g, k):
    """Two fresh, identically built indexes (observers when ``k``)."""
    layer = build_observers(g, k=k) if k else None
    built = [create_index(method, g).build() for _ in range(2)]
    for index in built:
        index.attach_observers(layer)
    return built


def _assert_batch_matches_scalar(method, g, pairs, budget, k):
    """A budgeted batch ≡ the scalar budgeted loop: answers and stats."""
    batch_index, scalar_index = _indexes(method, g, k)
    batch = batch_index.query_many(pairs, budget=budget)
    scalar = [scalar_index.query(u, v, budget=budget) for u, v in pairs]
    assert len(batch) == len(scalar)
    for (u, v), got, want in zip(pairs, batch, scalar):
        assert got is want, f"{method} r({u}, {v}): batch {got}, scalar {want}"
    assert batch_index.stats.as_dict() == scalar_index.stats.as_dict()


def _mixed_pairs(n):
    """Every ordered pair of a small graph, each listed twice (shuffled)."""
    pairs = [(u, v) for u in range(n) for v in range(n)] * 2
    random.Random(n).shuffle(pairs)
    return pairs


class TestBudgetedBatchOnTheEngine:
    """Budgeted ``query_many`` runs the vectorized engine, per-pair
    guards inside its survivor search, and matches the scalar loop."""

    @pytest.mark.parametrize("policy", ["unknown", "fallback"])
    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("method", available_methods())
    def test_every_family(self, method, k, policy):
        g = random_dag(40, avg_degree=2.5, seed=13)
        budget = QueryBudget(max_steps=2, policy=policy, fallback_nodes=6)
        _assert_batch_matches_scalar(
            method, g, _mixed_pairs(g.num_vertices), budget, k
        )

    @pytest.mark.parametrize("method", SEARCHING_METHODS)
    def test_raise_policy_raises_for_the_first_exhausted_pair(self, method):
        g = random_dag(60, avg_degree=3.0, seed=13)
        budget = QueryBudget(max_steps=1, policy="raise")
        pairs = _mixed_pairs(g.num_vertices)
        seen = {}
        for name, index in zip(("batch", "scalar"), _indexes(method, g, 0)):
            degraded = []
            inner = index._degrade

            def spy(u, v, b, exc, inner=inner, degraded=degraded):
                degraded.append((u, v))
                return inner(u, v, b, exc)

            index._degrade = spy
            with pytest.raises(QueryBudgetExceeded) as info:
                if name == "batch":
                    index.query_many(pairs, budget=budget)
                else:
                    for u, v in pairs:
                        index.query(u, v, budget=budget)
            seen[name] = (info.value.resource, degraded)
        assert seen["batch"] == seen["scalar"]
        assert len(seen["batch"][1]) == 1

    @pytest.mark.parametrize("policy", ["unknown", "fallback"])
    @pytest.mark.parametrize("method", available_methods())
    def test_deadline_budget_booleans_match_oracle(self, method, policy):
        g = random_dag(300, avg_degree=3.0, seed=5)
        closure = transitive_closure_bitsets(g)
        rng = random.Random(7)
        pairs = [
            (rng.randrange(300), rng.randrange(300)) for _ in range(400)
        ]
        pairs += pairs[:50]
        index = create_index(method, g).build()
        budget = QueryBudget(deadline_s=1e-7, policy=policy)
        for (u, v), answer in zip(
            pairs, index.query_many(pairs, budget=budget)
        ):
            assert answer is True or answer is False or answer is UNKNOWN
            if answer is not UNKNOWN:
                assert answer == bool((closure[u] >> v) & 1)


class TestRankRowSweeps:
    """A step budget on the C tier's rank-row sweep — GRAIL with 1, 3
    and 40 labellings, FELINE-K with 2 and 8 orderings, filters on and
    off, and SCARAB over GRAIL — matches the python tier's scalar loop
    and never contradicts the oracle."""

    @staticmethod
    def _assert_sweep_matches_python_loop(method, params, budget):
        require_c()
        g = random_dag(40, avg_degree=2.5, seed=13)
        pairs = _mixed_pairs(g.num_vertices)
        swept = create_index(method, g, **params)
        swept.set_kernel("c")
        swept.build()
        looped = create_index(method, g, **params)
        looped.set_kernel("python")
        looped.build()
        batch = swept.query_many(pairs, budget=budget)
        scalar = [looped.query(u, v, budget=budget) for u, v in pairs]
        for (u, v), got, want in zip(pairs, batch, scalar):
            assert got is want, f"{method} r({u}, {v}): c {got}, python {want}"
        assert swept.stats.as_dict() == looped.stats.as_dict()
        closure = transitive_closure_bitsets(g)
        for (u, v), answer in zip(pairs, batch):
            if answer is not UNKNOWN:
                assert answer == bool((closure[u] >> v) & 1)

    @pytest.mark.parametrize("policy", ["unknown", "fallback"])
    @pytest.mark.parametrize("filters", sorted(FILTERS))
    @pytest.mark.parametrize("cell", sorted(RANK_CELLS))
    def test_rank_row_family(self, cell, filters, policy):
        method, params = RANK_CELLS[cell]
        budget = QueryBudget(max_steps=2, policy=policy, fallback_nodes=6)
        self._assert_sweep_matches_python_loop(
            method, {**params, **FILTERS[filters]}, budget
        )

    @pytest.mark.parametrize("policy", ["unknown", "fallback"])
    def test_scarab_over_grail(self, policy):
        budget = QueryBudget(max_steps=2, policy=policy, fallback_nodes=6)
        self._assert_sweep_matches_python_loop(
            "scarab", {"base_method": "grail"}, budget
        )
