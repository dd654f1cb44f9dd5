"""Property: ``explain(u, v)`` is a faithful account of ``query(u, v)``.

Two halves, both over random DAGs:

* **verdict consistency** — for every registered method,
  ``explain(u, v).verdict`` equals what ``query(u, v)`` returns on a
  twin index (the explanation must never change the answer);
* **cut honesty** — the FELINE explanation's claimed cut actually
  applies: a ``negative-cut`` pair really violates coordinate dominance,
  a ``level-filter`` pair dominates but fails the level test, a
  ``positive-cut`` pair is inside the spanning-tree interval, ``search``
  really expanded vertices, and ``equal`` only fires for ``u == v``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import create_index
from repro.obs.explain import CUTS

from tests.property.test_invariants import dags

METHODS = [
    "feline",
    "feline-i",
    "feline-b",
    "feline-k",
    "grail",
    "ferrari",
    "tf-label",
    "dfs",
    "bfs",
    "bibfs",
    "interval",
    "dual-labeling",
    "chain-cover",
    "tc",
    "scarab",
]


class TestVerdictConsistency:
    @given(g=dags(max_vertices=14), method=st.sampled_from(METHODS))
    @settings(max_examples=40, deadline=None)
    def test_explain_agrees_with_query(self, g, method):
        explained = create_index(method, g).build()
        queried = create_index(method, g).build()
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                explanation = explained.explain(u, v)
                assert explanation.cut in CUTS
                assert explanation.verdict == queried.query(u, v), (
                    f"{method}: explain({u},{v}) said "
                    f"{explanation.verdict} ({explanation.cut}) but query "
                    f"said {queried.query(u, v)}"
                )


class TestFelineCutHonesty:
    @given(g=dags(max_vertices=16))
    @settings(max_examples=50, deadline=None)
    def test_claimed_cut_applies(self, g):
        index = create_index("feline", g).build()
        coords = index.coordinates
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                exp = index.explain(u, v)
                if exp.cut == "equal":
                    assert u == v
                elif exp.cut == "negative-cut":
                    assert exp.verdict is False
                    assert not coords.dominates(u, v)
                    assert exp.details["dominates"] is False
                elif exp.cut == "level-filter":
                    assert exp.verdict is False
                    assert coords.dominates(u, v)
                    assert coords.levels[u] >= coords.levels[v]
                elif exp.cut == "positive-cut":
                    assert exp.verdict is True
                    assert coords.tree_intervals.contains(u, v)
                else:
                    assert exp.cut == "search"
                    assert exp.expanded >= 1

    @given(g=dags(max_vertices=16))
    @settings(max_examples=30, deadline=None)
    def test_grail_negative_cut_means_non_containment(self, g):
        index = create_index("grail", g).build()
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                exp = index.explain(u, v)
                contains_all = all(
                    labels.contains(u, v) for labels in index.labelings
                )
                if exp.cut == "negative-cut":
                    assert not contains_all
                elif exp.cut == "level-filter":
                    assert contains_all
                    assert index.levels[u] >= index.levels[v]


class TestFerrariCutHonesty:
    def test_level_rejection_is_named_level_filter(self):
        # A pair the interval sets leave open but the level filter
        # rejects reads "level-filter", as in FELINE and GRAIL; a
        # "negative-cut" is always an interval-set miss.
        from repro.graph.generators import random_dag

        g = random_dag(80, avg_degree=3.0, seed=2)
        index = create_index("ferrari", g).build()
        seen = set()
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                exp = index.explain(u, v)
                coverage = index.interval_sets[u].probe(index.ids[v])
                if exp.cut == "negative-cut":
                    assert coverage == 0
                elif exp.cut == "level-filter":
                    assert exp.verdict is False
                    assert coverage == 1
                    assert index.levels[u] >= index.levels[v]
                seen.add(exp.cut)
        assert "level-filter" in seen
