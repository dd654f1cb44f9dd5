"""Property tests: the search tiers stay bit-identical with filters off.

``test_kernel_equivalence`` checks the tiers in the paper's evaluated
configuration.  This file covers the ablations, where the structures
the pruned DFS consults change shape: no level filter (no ``levels``
array), no positive cut (no tree intervals), neither, and the Kahn
``X`` order (a different X-sorted adjacency).  For FELINE, FELINE-I and
FELINE-B, the ``numpy`` and ``numba`` tiers (interpreted where numba is
absent) must match the ``python`` tier in answers and
:class:`~repro.baselines.base.QueryStats`, scalar and batch, pooled,
and under step budgets; the ``python`` tier must match the oracle.
"""

from __future__ import annotations

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import crown_graph, random_dag
from repro.perf.kernels import VECTOR_MIN_DEGREE
from repro.resilience import QueryBudget

from tests.conftest import assert_index_matches_oracle
from tests.property.test_kernel_equivalence import (  # noqa: F401
    _all_pairs,
    _assert_bit_identical,
    _build,
    backend,
)

CONFIGS = {
    "no-level-filter": {"use_level_filter": False},
    "no-positive-cut": {"use_positive_cut": False},
    "no-filters": {"use_level_filter": False, "use_positive_cut": False},
    "kahn-x": {"x_order": "kahn"},
}
FAMILIES = ["feline", "feline-i", "feline-b"]


def _wide_fan() -> DiGraph:
    """Fans far above VECTOR_MIN_DEGREE, so the numpy tier's vectorized
    slice path runs, in both edge directions (FELINE-I searches the
    reversed graph)."""
    fan = 3 * VECTOR_MIN_DEGREE
    edges = [(0, k) for k in range(1, fan + 1)]
    edges += [(k, fan + 1) for k in range(1, fan + 1)]
    edges += [(fan + 1, fan + 2), (0, fan + 3), (fan + 3, fan + 2)]
    return DiGraph(fan + 4, edges, name="wide-fan")


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("method", FAMILIES)
class TestFilterAblations:
    def test_random_dag(self, method, config, backend):
        g = random_dag(60, avg_degree=2.5, seed=11)
        _assert_bit_identical(
            method, g, _all_pairs(g.num_vertices), backend, **CONFIGS[config]
        )

    def test_crown_graph(self, method, config, backend):
        g = crown_graph(5)
        _assert_bit_identical(
            method, g, _all_pairs(g.num_vertices), backend, **CONFIGS[config]
        )

    def test_wide_fan(self, method, config, backend):
        g = _wide_fan()
        _assert_bit_identical(
            method, g, _all_pairs(g.num_vertices), backend, **CONFIGS[config]
        )

    def test_python_tier_matches_oracle(self, method, config):
        g = random_dag(40, avg_degree=3.0, seed=3)
        index = _build(method, g, "python", **CONFIGS[config])
        assert_index_matches_oracle(index, g)

    @pytest.mark.parametrize("policy", ["unknown", "fallback"])
    def test_step_budget_bit_identical(self, method, config, policy, backend):
        g = crown_graph(6)
        pairs = _all_pairs(g.num_vertices)
        python = _build(method, g, "python", **CONFIGS[config])
        native = _build(method, g, backend, **CONFIGS[config])
        budget = QueryBudget(max_steps=3, policy=policy)
        assert native.query_many(pairs, budget=budget) == python.query_many(
            pairs, budget=budget
        )
        assert native.stats.as_dict() == python.stats.as_dict()
        scalar_native = [native.query(u, v, budget=budget) for u, v in pairs]
        scalar_python = [python.query(u, v, budget=budget) for u, v in pairs]
        assert scalar_native == scalar_python
        assert native.stats.as_dict() == python.stats.as_dict()


@pytest.mark.parametrize("method", FAMILIES)
def test_pooled_without_filters(method, backend):
    g = crown_graph(5)
    _assert_bit_identical(
        method, g, _all_pairs(g.num_vertices), backend, workers=2,
        **CONFIGS["no-filters"],
    )
