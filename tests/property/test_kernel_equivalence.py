"""Property tests: every search-kernel backend is bit-identical to python.

The contract of :mod:`repro.perf.kernels` is that backend selection is
*unobservable* except in speed: for every registered index family, the
``numpy`` and ``c`` tiers return exactly the answers **and** the
:class:`~repro.baselines.base.QueryStats` counters of the families'
original pure-Python loops — scalar and batch paths, with and without
observers, with and without a survivor-search pool, and under every
budget policy (step budgets are enforced inside the kernels; a
deadline-carrying guard routes to the python loop, so it is trivially
identical).

The ``c`` cells run the compiled library; where it cannot be built (no
compiler, the CI ``no-compiler`` job) they are skipped and the
``numpy`` cells carry the suite.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.base import available_methods, create_index
from repro.exceptions import QueryBudgetExceeded
from repro.graph.generators import crown_graph, random_dag
from repro.perf import kernels
from repro.perf.observers import build_observers
from repro.resilience import QueryBudget

from tests.property.test_invariants import dags
from tests.property.test_query_many_engine import SEARCHING_METHODS


def require_c() -> None:
    """Skip the calling test where the C tier cannot load."""
    reason = kernels.c_fallback_reason()
    if reason is not None:
        pytest.skip(f"C search tier unavailable ({reason})")


@pytest.fixture(params=["numpy", "c"])
def backend(request):
    """Each native tier."""
    if request.param == "c":
        require_c()
    return request.param


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n)]


def _build(method, g, backend, **params):
    index = create_index(method, g, **params)
    index.set_kernel(backend)
    return index.build()


def _assert_bit_identical(
    method, g, pairs, backend, workers=0, observers=0, **params
):
    """Native batch + scalar ≡ python batch + scalar, stats included."""
    python = _build(method, g, "python", **params)
    native = _build(method, g, backend, **params)
    if observers:
        layer = build_observers(g, k=observers)
        python.attach_observers(layer)
        native.attach_observers(layer)
    if workers > 1:
        native.enable_search_pool(workers, min_batch=1)
    try:
        batch = native.query_many(pairs)
    finally:
        native.close_search_pool()
        native.close_shared_pages()
    assert batch == python.query_many(pairs)
    assert native.stats.as_dict() == python.stats.as_dict()
    python.stats.reset()
    native.stats.reset()
    scalar_native = [native.query(u, v) for u, v in pairs]
    scalar_python = [python.query(u, v) for u, v in pairs]
    assert scalar_native == scalar_python == batch
    assert native.stats.as_dict() == python.stats.as_dict()


class TestEveryRegisteredMethod:
    @pytest.mark.parametrize("method", available_methods())
    def test_random_dag(self, method, backend):
        g = random_dag(60, avg_degree=2.0, seed=11)
        _assert_bit_identical(
            method, g, _all_pairs(g.num_vertices), backend
        )

    @pytest.mark.parametrize("method", SEARCHING_METHODS)
    def test_crown_graph(self, method, backend):
        # The worst case for cuts: every cross pair survives to search.
        g = crown_graph(5)
        _assert_bit_identical(
            method, g, _all_pairs(g.num_vertices), backend
        )


class TestWithObserversAndPool:
    @pytest.mark.parametrize("method", ["feline", "feline-b", "bibfs"])
    def test_observers_attached(self, method, backend):
        g = random_dag(50, avg_degree=2.5, seed=7)
        _assert_bit_identical(
            method, g, _all_pairs(g.num_vertices), backend, observers=8
        )

    @pytest.mark.parametrize("method", ["feline", "feline-i"])
    def test_pooled(self, method, backend):
        g = crown_graph(5)
        _assert_bit_identical(
            method, g, _all_pairs(g.num_vertices), backend, workers=2
        )


class TestWrappedIndexes:
    """FELINE-I searches in its reversed delegate and SCARAB in its
    backbone's base index: the kernel binds there, and a step budget
    reaches it."""

    @pytest.mark.parametrize(
        "method, params",
        [("feline-i", {}), ("scarab", {"base_method": "feline"})],
    )
    def test_delegate_runs_the_bound_tier(self, method, params, backend):
        g = random_dag(80, avg_degree=2.5, seed=4)
        index = _build(method, g, backend, **params)
        inner = index._inner if method == "feline-i" else index.base_index
        assert index.kernel_backend == inner.kernel_backend == backend
        assert inner._kernel.backend == backend
        pairs = _all_pairs(g.num_vertices)
        _assert_bit_identical(method, g, pairs, backend, **params)
        python = _build(method, g, "python", **params)
        budget = QueryBudget(max_steps=2, policy="unknown")
        assert index.query_many(pairs, budget=budget) == python.query_many(
            pairs, budget=budget
        )
        assert index.stats.as_dict() == python.stats.as_dict()


class TestBudgets:
    @pytest.mark.parametrize("method", ["feline", "feline-b", "bibfs"])
    @pytest.mark.parametrize("policy", ["unknown", "fallback"])
    def test_step_budget_bit_identical(self, method, policy, backend):
        # The budget strikes mid-search on crown graphs; the kernels
        # must bail at exactly the vertex where SearchGuard.step would
        # have, so degradations (and their counters) line up.
        g = crown_graph(6)
        pairs = _all_pairs(g.num_vertices)
        python = _build(method, g, "python")
        native = _build(method, g, backend)
        budget = QueryBudget(max_steps=3, policy=policy)
        assert native.query_many(pairs, budget=budget) == python.query_many(
            pairs, budget=budget
        )
        assert native.stats.as_dict() == python.stats.as_dict()

    @pytest.mark.parametrize("method", ["feline", "bibfs"])
    def test_raise_policy_raises_identically(self, method, backend):
        g = crown_graph(6)
        python = _build(method, g, "python")
        native = _build(method, g, backend)

        def outcome(index, pair):
            try:
                budget = QueryBudget(max_steps=3, policy="raise")
                return ("answer", index.query_many([pair], budget=budget))
            except QueryBudgetExceeded:
                return ("raised", None)

        for pair in _all_pairs(g.num_vertices):
            assert outcome(native, pair) == outcome(python, pair)

    @pytest.mark.parametrize("method", ["feline", "bibfs"])
    def test_deadline_guard_routes_to_python(self, method, backend):
        # Wall-clock deadlines cannot be enforced bit-identically from a
        # compiled loop, so deadline-carrying guards take the python
        # path — slower, never wrong, still identical.
        g = crown_graph(6)
        pairs = _all_pairs(g.num_vertices)
        python = _build(method, g, "python")
        native = _build(method, g, backend)
        budget = QueryBudget(max_steps=5, deadline_s=60.0, policy="unknown")
        assert native.query_many(pairs, budget=budget) == python.query_many(
            pairs, budget=budget
        )
        assert native.stats.as_dict() == python.stats.as_dict()


class TestEquivalenceProperty:
    @given(g=dags(max_vertices=12))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_feline_family(self, g, backend):
        pairs = _all_pairs(g.num_vertices)
        for method in ("feline", "feline-i", "feline-b"):
            _assert_bit_identical(method, g, pairs, backend)

    @given(g=dags(max_vertices=10))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_bibfs_and_label_families(self, g, backend):
        pairs = _all_pairs(g.num_vertices)
        _assert_bit_identical("bibfs", g, pairs, backend)
        _assert_bit_identical("grail", g, pairs, backend,
                              num_labelings=2, seed=1)
