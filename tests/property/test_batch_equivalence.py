"""Property tests (hypothesis): batch API equivalence and stats invariants.

Two contracts the batch-first API redesign must never break:

* ``Reachability.reachable_many(pairs)`` is extensionally equal to the
  scalar ``reachable`` loop, for every method — including FELINE, whose
  ``_query_many`` takes the vectorized numpy-cut path rather than the
  scalar loop — whether the batch is a list or an int64/int32 array,
  with the same answer objects and the same ``QueryStats``;
* after *any* workload, scalar or batch, every query was answered by
  exactly one mechanism: ``queries == equal_cuts + negative_cuts +
  positive_cuts + searches``.
"""

import numpy as np
from hypothesis import given, settings

import repro
from repro.core.query import FelineIndex

from tests.property.test_invariants import dags

METHODS = ["feline", "feline-b", "grail"]


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n)]


class TestReachableManyEquivalence:
    @given(dags(max_vertices=14))
    @settings(max_examples=25, deadline=None)
    def test_feline(self, g):
        self._check(g, "feline")

    @given(dags(max_vertices=14))
    @settings(max_examples=25, deadline=None)
    def test_feline_b(self, g):
        self._check(g, "feline-b")

    @given(dags(max_vertices=12))
    @settings(max_examples=20, deadline=None)
    def test_grail(self, g):
        self._check(g, "grail", num_labelings=2, seed=1)

    def _check(self, g, method, **params):
        oracle = repro.Reachability(g, method=method, **params)
        pairs = _all_pairs(g.num_vertices)
        batch = oracle.reachable_many(pairs)
        scalar = [oracle.reachable(u, v) for u, v in pairs]
        assert batch == scalar
        # The same pairs as int64 and int32 arrays: answer for answer
        # the scalar loop's objects, and the same stats on a fresh facade.
        batches = [
            pairs,
            np.asarray(pairs, dtype=np.int64),
            np.asarray(pairs, dtype=np.int32),
        ]
        for pairs_in in batches[1:]:
            answers = oracle.reachable_many(pairs_in)
            assert len(answers) == len(scalar)
            assert all(got is want for got, want in zip(answers, scalar))
        fresh = repro.Reachability(g, method=method, **params)
        for u, v in pairs:
            fresh.reachable(u, v)
        want_stats = fresh.stats.as_dict()
        for pairs_in in batches:
            fresh = repro.Reachability(g, method=method, **params)
            fresh.reachable_many(pairs_in)
            assert fresh.stats.as_dict() == want_stats


class TestQueryStatsInvariant:
    @given(dags(max_vertices=14))
    @settings(max_examples=25, deadline=None)
    def test_scalar_workload(self, g):
        for method in METHODS:
            oracle = repro.Reachability(g, method=method)
            for u, v in _all_pairs(g.num_vertices):
                oracle.reachable(u, v)
            self._check_invariant(oracle.stats)

    @given(dags(max_vertices=14))
    @settings(max_examples=25, deadline=None)
    def test_batch_workload(self, g):
        for method in METHODS:
            oracle = repro.Reachability(g, method=method)
            oracle.reachable_many(_all_pairs(g.num_vertices))
            self._check_invariant(oracle.stats)

    @given(dags(max_vertices=12))
    @settings(max_examples=20, deadline=None)
    def test_mixed_workload(self, g):
        oracle = repro.Reachability(g)
        pairs = _all_pairs(g.num_vertices)
        oracle.reachable_many(pairs)
        for u, v in pairs[: len(pairs) // 2]:
            oracle.reachable(u, v)
        oracle.reachable_many(pairs[::3])
        self._check_invariant(oracle.stats)

    def _check_invariant(self, stats):
        assert stats.queries == (
            stats.equal_cuts
            + stats.negative_cuts
            + stats.positive_cuts
            + stats.searches
        ), stats.as_dict()


class TestVectorizedDispatch:
    def test_feline_query_many_uses_numpy_cuts(self):
        """The facade's batch path must hit the vectorized implementation."""
        from repro.graph.generators import random_dag

        g = random_dag(80, avg_degree=2.0, seed=3)
        index = FelineIndex(g).build()
        calls = []
        original = index._search

        def spying_search(u, v, *bounds):
            calls.append((u, v))
            return original(u, v, *bounds)

        index._search = spying_search
        pairs = [(u, (u + 5) % 80) for u in range(80)]
        answers = index.query_many(pairs)
        # the vectorized path only reaches _search for cut survivors
        assert len(calls) == index.stats.searches < len(pairs)
        assert answers == [
            FelineIndex(g).build().query(u, v) for u, v in pairs
        ]
