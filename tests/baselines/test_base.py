"""Unit tests for the index interface and factory."""

import numpy as np
import pytest

from repro.baselines.base import (
    QueryStats,
    ReachabilityIndex,
    available_methods,
    create_index,
    register_index,
)
from repro.exceptions import DatasetError, IndexNotBuiltError
from repro.graph.generators import random_dag
from repro.graph.traversal import dfs_reachable
from repro.obs.slowlog import SlowQueryLog
from repro.resilience import UNKNOWN, QueryBudget
from tests.batch_cases import ACCEPTED, EMPTY, MALFORMED, N, PAIRS, ids


class TestRegistry:
    def test_all_builtins_registered(self):
        expected = {
            "dfs", "bfs", "bibfs", "tc", "grail", "ferrari", "interval",
            "tf-label", "feline", "feline-i", "feline-b", "scarab",
        }
        assert expected <= set(available_methods())

    def test_create_index_unknown_method(self, paper_dag):
        with pytest.raises(DatasetError, match="unknown reachability method"):
            create_index("nope", paper_dag)

    def test_create_index_passes_params(self, paper_dag):
        index = create_index("grail", paper_dag, num_labelings=5)
        assert index.num_labelings == 5

    def test_register_rejects_missing_name(self):
        class Nameless(ReachabilityIndex):
            def _build(self):
                pass

            def _query(self, u, v):
                return False

            def index_size_bytes(self):
                return 0

        with pytest.raises(ValueError):
            register_index(Nameless)

    def test_register_with_explicit_name(self, paper_dag):
        class Custom(ReachabilityIndex):
            method_name = "custom-test"

            def _build(self):
                pass

            def _query(self, u, v):
                return u == v

            def index_size_bytes(self):
                return 0

        register_index(Custom)
        index = create_index("custom-test", paper_dag).build()
        assert index.query(1, 1) and not index.query(0, 1)


class TestQueryStats:
    def test_initial_zero(self):
        stats = QueryStats()
        assert all(v == 0 for v in stats.as_dict().values())

    def test_reset(self):
        stats = QueryStats(queries=5, negative_cuts=3, expanded=10)
        stats.reset()
        assert stats.queries == 0
        assert stats.negative_cuts == 0
        assert stats.expanded == 0

    def test_as_dict_keys(self):
        keys = set(QueryStats().as_dict())
        assert keys == {
            "queries", "equal_cuts", "negative_cuts", "positive_cuts",
            "observer_positive", "observer_negative",
            "searches", "expanded", "pruned",
            "budget_exhausted", "fallbacks", "unknowns",
        }


class TestLifecycleGuards:
    @pytest.mark.parametrize("method", ["feline", "grail", "ferrari", "tc"])
    def test_query_before_build(self, paper_dag, method):
        index = create_index(method, paper_dag)
        with pytest.raises(IndexNotBuiltError):
            index.query(0, 1)

    def test_query_many_counts_stats(self, paper_dag):
        index = create_index("dfs", paper_dag).build()
        answers = index.query_many([(0, 7), (7, 0), (3, 3)])
        assert answers == [True, False, True]
        assert index.stats.queries == 3

    def test_query_many_without_cut_table_keeps_budget_and_slow_log(
        self, paper_dag
    ):
        # An out-of-tree index with no cut table answers batches through
        # its guarded scalar loop.
        class SearchOnly(ReachabilityIndex):
            method_name = "search-only-test"

            def _build(self):
                pass

            def _query(self, u, v):
                self.stats.searches += 1
                return dfs_reachable(self.graph, u, v, guard=self._guard)

            def index_size_bytes(self):
                return 0

        n = paper_dag.num_vertices
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        budget = QueryBudget(max_steps=2, policy="unknown")
        batch_index = SearchOnly(paper_dag).build()
        log = batch_index.attach_slow_log(SlowQueryLog(threshold_ns=0))
        scalar_index = SearchOnly(paper_dag).build()
        batch = batch_index.query_many(pairs, budget=budget)
        scalar = [scalar_index.query(u, v, budget=budget) for u, v in pairs]
        assert UNKNOWN in batch
        assert all(got is want for got, want in zip(batch, scalar))
        assert batch_index.stats.as_dict() == scalar_index.stats.as_dict()
        assert log.observed == len(pairs)


class TestQueryManyBoundary:
    """``query_many`` validates its batch once, as an array — the same
    inputs and errors as the facade's ``reachable_many``."""

    @staticmethod
    def _index(method="feline"):
        return create_index(method, random_dag(N, avg_degree=2.0, seed=4)).build()

    @pytest.mark.parametrize("case", MALFORMED, ids=ids(MALFORMED))
    def test_malformed_batch_rejected(self, case):
        _, make, error, vertex = case
        index = self._index()
        index.query_many(PAIRS)
        before = index.stats.as_dict()
        with pytest.raises(error) as raised:
            index.query_many(make())
        if vertex is not None:
            assert raised.value.vertex == vertex
            assert raised.value.num_vertices == N
        assert index.stats.as_dict() == before

    @pytest.mark.parametrize("case", ACCEPTED, ids=ids(ACCEPTED))
    @pytest.mark.parametrize("method", ["feline", "grail"])
    def test_accepted_batch_matches_scalar(self, case, method):
        _, make = case
        index = self._index(method)
        scalar_index = self._index(method)
        scalar = [scalar_index.query(u, v) for u, v in PAIRS]
        answers = index.query_many(make(PAIRS))
        assert type(answers) is list and len(answers) == len(PAIRS)
        assert all(got is want for got, want in zip(answers, scalar))
        assert index.stats.as_dict() == scalar_index.stats.as_dict()

    @pytest.mark.parametrize("case", EMPTY, ids=ids(EMPTY))
    def test_empty_batch(self, case):
        index = self._index()
        assert index.query_many(case[1]()) == []
        assert index.stats.queries == 0

    def test_scalar_fallback_receives_validated_pairs(self, paper_dag):
        # An index without a cut table loops over plain int pairs.
        seen = []

        class Recording(ReachabilityIndex):
            method_name = "recording-test"

            def _build(self):
                pass

            def _query(self, u, v):
                seen.append((type(u), type(v)))
                self.stats.searches += 1
                return dfs_reachable(self.graph, u, v)

            def index_size_bytes(self):
                return 0

        index = Recording(paper_dag).build()
        pairs = np.array([(0, 7), (7, 0), (3, 4)], dtype=np.int32)
        assert index.query_many(pairs) == [
            dfs_reachable(paper_dag, u, v) for u, v in pairs.tolist()
        ]
        assert seen == [(int, int)] * 3
        with pytest.raises(TypeError):
            index.query_many([(0, 1.5)])
