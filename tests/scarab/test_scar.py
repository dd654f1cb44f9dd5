"""Unit tests for the SCARAB query algorithm."""

import numpy as np
import pytest

from repro.exceptions import IndexNotBuiltError
from repro.graph.generators import random_dag
from repro.resilience import UNKNOWN, QueryBudget
from repro.scarab.scar import ScarabIndex

from tests.conftest import assert_index_matches_oracle


class TestCorrectness:
    def test_feline_scar_matches_oracle_on_zoo(self, any_dag):
        index = ScarabIndex(any_dag, base_method="feline").build()
        assert_index_matches_oracle(index, any_dag)

    def test_grail_scar_matches_oracle_on_zoo(self, any_dag):
        index = ScarabIndex(any_dag, base_method="grail").build()
        assert_index_matches_oracle(index, any_dag)

    def test_any_registered_base_works(self):
        g = random_dag(60, avg_degree=2.0, seed=1)
        for base in ("bfs", "tc", "ferrari", "tf-label"):
            index = ScarabIndex(g, base_method=base).build()
            assert_index_matches_oracle(index, g)

    def test_base_params_forwarded(self, paper_dag):
        index = ScarabIndex(
            paper_dag, base_method="grail", base_params={"num_labelings": 4}
        ).build()
        assert index.base_index.num_labelings == 4


class TestStructure:
    def test_base_index_built_on_smaller_graph(self):
        g = random_dag(400, avg_degree=1.5, seed=2)
        index = ScarabIndex(g).build()
        assert index.backbone.graph.num_vertices < g.num_vertices
        assert index.base_index.graph is index.backbone.graph

    def test_query_before_build_raises(self, paper_dag):
        with pytest.raises(IndexNotBuiltError):
            ScarabIndex(paper_dag).query(0, 1)

    def test_index_size_includes_mapping(self, paper_dag):
        index = ScarabIndex(paper_dag).build()
        assert index.index_size_bytes() > index.base_index.index_size_bytes()

    def test_direct_edge_answered_locally(self, paper_dag):
        index = ScarabIndex(paper_dag).build()
        base_queries_before = index.base_index.stats.queries
        assert index.query(0, 2)  # direct edge a -> c
        assert index.base_index.stats.queries == base_queries_before

    def test_no_gateways_is_fast_negative(self):
        # Two isolated vertices: neither has gateways.
        from repro.graph.digraph import DiGraph

        g = DiGraph(4, [(0, 1), (2, 3)])
        index = ScarabIndex(g).build()
        assert not index.query(1, 2)
        assert index.stats.negative_cuts >= 1


class TestBudget:
    """A step budget bounds the backbone probes, which run on the base
    index: the guard is shared, so all probes of one query together
    expand at most ``max_steps + 1`` vertices before it degrades."""

    @pytest.mark.parametrize("kernel", ["python", "c"])
    @pytest.mark.parametrize("entry", ["scalar", "batch"])
    def test_step_budget_bounds_backbone_probes(self, kernel, entry):
        from repro.perf.kernels import c_fallback_reason

        if kernel == "c" and c_fallback_reason() is not None:
            pytest.skip(f"C tier unavailable: {c_fallback_reason()}")
        g = random_dag(2000, avg_degree=2.5, seed=1)
        index = ScarabIndex(g, base_method="feline")
        index.set_kernel(kernel)
        index.build()
        assert index.base_index.kernel_backend == kernel
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, g.num_vertices, size=(3000, 2)).tolist()
        budget = QueryBudget(max_steps=1, policy="unknown")
        if entry == "scalar":
            answers = [index.query(u, v, budget=budget) for u, v in pairs]
        else:
            answers = index.query_many(pairs, budget=budget)
        stats = index.stats
        assert stats.searches > 0
        assert stats.budget_exhausted > 0
        # Each search may expand at most max_steps + 1 base vertices.
        assert index.base_index.stats.expanded <= 2 * stats.searches
        oracle = ScarabIndex(g, base_method="feline").build()
        for (u, v), got in zip(pairs, answers):
            assert got is UNKNOWN or got == oracle.query(u, v)
