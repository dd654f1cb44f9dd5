"""Unit tests for the top-level Reachability facade."""

import pytest

import repro
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph
from repro.graph.traversal import dfs_reachable
from tests.batch_cases import ACCEPTED, EMPTY, MALFORMED, N, PAIRS, ids


class TestFacade:
    def test_edge_list_input(self):
        r = repro.Reachability([(0, 1), (1, 2)])
        assert r.reachable(0, 2)
        assert not r.reachable(2, 0)

    def test_digraph_input(self, paper_dag):
        r = repro.Reachability(paper_dag)
        assert r.reachable(0, 7)
        assert not r.reachable(0, 6)

    def test_cycles_condensed(self):
        r = repro.Reachability([(0, 1), (1, 0), (1, 2)])
        assert r.reachable(0, 1) and r.reachable(1, 0)
        assert r.reachable(0, 2)
        assert not r.reachable(2, 0)

    def test_same_scc_always_reachable(self):
        g = random_digraph(60, 180, seed=1)
        r = repro.Reachability(g)
        for u in range(60):
            for v in range(60):
                assert r.reachable(u, v) == dfs_reachable(g, u, v)

    @pytest.mark.parametrize("method", ["grail", "tc", "bibfs", "scarab"])
    def test_method_selection(self, method):
        r = repro.Reachability([(0, 1), (1, 2)], method=method)
        assert r.index.method_name == method
        assert r.reachable(0, 2)

    def test_params_forwarded(self):
        r = repro.Reachability([(0, 1)], method="grail", num_labelings=2)
        assert r.index.num_labelings == 2

    def test_repr(self):
        r = repro.Reachability([(0, 1), (1, 0)])
        text = repr(r)
        assert "feline" in text and "sccs=1" in text

    def test_version_exposed(self):
        assert repro.__version__ == "1.1.0"

    def test_isolated_vertices(self):
        r = repro.Reachability(DiGraph(5, []))
        assert r.reachable(3, 3)
        assert not r.reachable(0, 1)


class TestReachableMany:
    def test_matches_scalar_on_cyclic_graph(self):
        g = random_digraph(40, 120, seed=2)
        r = repro.Reachability(g)
        pairs = [(u, v) for u in range(40) for v in range(40)]
        assert r.reachable_many(pairs) == [r.reachable(u, v) for u, v in pairs]

    def test_same_scc_pairs_answered_positively(self):
        r = repro.Reachability([(0, 1), (1, 0), (1, 2)])
        assert r.reachable_many([(0, 1), (1, 0), (2, 0)]) == [True, True, False]

    @pytest.mark.parametrize("method", ["feline", "feline-b", "grail", "bibfs"])
    def test_every_method(self, method):
        r = repro.Reachability([(0, 1), (1, 2), (3, 2)], method=method)
        assert r.reachable_many([(0, 2), (2, 0), (3, 3)]) == [True, False, True]

    def test_accepts_iterables_and_empty(self):
        r = repro.Reachability([(0, 1)])
        assert r.reachable_many(iter([(0, 1)])) == [True]
        assert r.reachable_many([]) == []

    def test_returns_plain_list(self):
        r = repro.Reachability([(0, 1), (1, 2)])
        answers = r.reachable_many([(0, 2)])
        assert isinstance(answers, list) and answers == [True]


class TestBatchBoundary:
    """``reachable_many`` validates its batch once, as an array."""

    @staticmethod
    def _facade():
        # Cycles, so the SCC gather maps several ids to one component.
        return repro.Reachability(random_digraph(N, 20, seed=4))

    @pytest.mark.parametrize("case", MALFORMED, ids=ids(MALFORMED))
    def test_malformed_batch_rejected(self, case):
        _, make, error, vertex = case
        r = self._facade()
        r.reachable_many(PAIRS)
        before = r.stats.as_dict()
        with pytest.raises(error) as raised:
            r.reachable_many(make())
        if vertex is not None:
            assert raised.value.vertex == vertex
            assert raised.value.num_vertices == N
        assert r.stats.as_dict() == before

    @pytest.mark.parametrize("case", ACCEPTED, ids=ids(ACCEPTED))
    def test_accepted_batch_matches_scalar(self, case):
        _, make = case
        r = self._facade()
        scalar = [r.reachable(u, v) for u, v in PAIRS]
        r.stats.reset()
        answers = r.reachable_many(make(PAIRS))
        assert type(answers) is list and len(answers) == len(PAIRS)
        assert all(got is want for got, want in zip(answers, scalar))
        reference = self._facade()
        reference.reachable_many(PAIRS)
        assert r.stats.as_dict() == reference.stats.as_dict()

    @pytest.mark.parametrize("case", EMPTY, ids=ids(EMPTY))
    def test_empty_batch(self, case):
        r = self._facade()
        assert r.reachable_many(case[1]()) == []
        assert r.stats.queries == 0


class TestStatsProperty:
    def test_stats_exposes_underlying_counters(self):
        r = repro.Reachability([(0, 1), (1, 2)])
        assert r.stats is r.index.stats
        r.reachable(0, 2)
        r.reachable_many([(0, 1), (2, 0)])
        assert r.stats.queries == 3

    def test_stats_invariant_after_mixed_workload(self):
        g = random_digraph(30, 90, seed=5)
        r = repro.Reachability(g)
        r.reachable_many([(u, v) for u in range(30) for v in range(30)])
        for u in range(10):
            r.reachable(u, 29 - u)
        s = r.stats
        assert s.queries == (
            s.equal_cuts + s.negative_cuts + s.positive_cuts + s.searches
        )
