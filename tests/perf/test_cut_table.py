"""Cut-table plumbing: cached views, helper codecs, table lifecycle."""

import numpy as np
import pytest

from repro.baselines.base import available_methods, create_index
from repro.core.query import FelineCutTable, FelineIndex
from repro.graph.generators import random_dag
from repro.perf.cut_table import (
    SearchOnlyCutTable,
    SwappedCutTable,
    pack_bigints,
    segment_keys,
    segmented_arrays,
    view_i64,
)


class TestCachedViews:
    """FelineCoordinates.views must materialize exactly once: repeated
    batch calls reuse the same numpy objects instead of re-running
    np.asarray per call (the regression the cut-table refactor fixed)."""

    def test_views_cached_across_calls(self):
        g = random_dag(50, avg_degree=2.0, seed=1)
        index = FelineIndex(g).build()
        coords = index.coordinates
        first = coords.views
        second = coords.views
        assert first is second
        assert first.x is second.x and first.y is second.y
        assert first.levels is second.levels
        assert first.start is second.start and first.post is second.post

    def test_cut_table_shares_the_views(self):
        g = random_dag(50, avg_degree=2.0, seed=2)
        index = FelineIndex(g).build()
        table = index._cut_table
        views = index.coordinates.views
        assert isinstance(table, FelineCutTable)
        assert table.x is views.x and table.y is views.y

    def test_cut_table_survives_repeated_batches(self):
        g = random_dag(50, avg_degree=2.0, seed=3)
        index = FelineIndex(g).build()
        table = index._cut_table
        pairs = [(u, (u + 5) % 50) for u in range(50)]
        index.query_many(pairs)
        index.query_many(pairs)
        assert index._cut_table is table

    def test_loaded_index_gets_a_cut_table(self, tmp_path):
        from repro.core.persistence import load_index, save_index

        g = random_dag(40, avg_degree=2.0, seed=4)
        index = FelineIndex(g).build()
        path = tmp_path / "idx.feline"
        save_index(index, path)
        loaded = load_index(g, path)
        assert loaded._cut_table is not None
        pairs = [(u, (u + 3) % 40) for u in range(40)]
        assert loaded.query_many(pairs) == index.query_many(pairs)


class TestHelpers:
    def test_view_i64_is_stable_and_correct(self):
        from array import array

        values = array("l", [5, 1, 4])
        view = view_i64(values)
        assert view.dtype == np.int64
        assert view.tolist() == [5, 1, 4]

    def test_pack_bigints_round_trip(self):
        bits = [0b1011, 0, 1 << 70]
        packed = pack_bigints(bits, 71)
        assert packed.shape == (3, 9)
        for row, value in zip(packed, bits):
            for bit in range(71):
                stored = bool((row[bit >> 3] >> (bit & 7)) & 1)
                assert stored == bool(value >> bit & 1)

    def test_pack_bigints_empty(self):
        assert pack_bigints([], 16).shape == (0, 2)

    def test_segmented_arrays_and_keys(self):
        flat, indptr = segmented_arrays([[3, 7], [], [1]])
        assert flat.tolist() == [3, 7, 1]
        assert indptr.tolist() == [0, 2, 2, 3]
        keys = segment_keys(flat, indptr, universe=10)
        # owner * universe + value, sorted within each segment
        assert keys.tolist() == [3, 7, 21]


class TestWrapperTables:
    def test_search_only_decides_nothing(self):
        table = SearchOnlyCutTable()
        s = np.array([0, 1, 2])
        positive, negative = table.classify(s, s)
        assert not positive.any() and not negative.any()
        assert positive is not negative  # engine mutates them in place

    def test_swapped_flips_the_arguments(self):
        class Recorder:
            counts_cuts = True

            def classify(self, sources, targets):
                self.seen = (sources, targets)
                return (
                    np.zeros(len(sources), dtype=bool),
                    np.zeros(len(sources), dtype=bool),
                )

        inner = Recorder()
        swapped = SwappedCutTable(inner)
        s = np.array([1, 2])
        t = np.array([3, 4])
        swapped.classify(s, t)
        assert inner.seen[0] is t and inner.seen[1] is s
        assert swapped.counts_cuts is True


# The names classify_one may return.
CUT_NAMES = {"positive-cut", "negative-cut", "level-filter", "negative-cut-reversed"}

# Snapshotted at collection time: some test modules register throwaway
# methods in the global registry, which rightly declare no cut table.
BUILTIN_METHODS = available_methods()


FILTERS_OFF = {"use_level_filter": False, "use_positive_cut": False}


class TestEveryFamilyMaterializes:
    def test_all_registered_methods_build_a_table(self):
        g = random_dag(30, avg_degree=2.0, seed=5)
        for method in BUILTIN_METHODS:
            index = create_index(method, g).build()
            assert index._cut_table is not None, method

    @pytest.mark.parametrize(
        "method, params",
        [(method, {}) for method in BUILTIN_METHODS]
        + [("feline", FILTERS_OFF), ("grail", FILTERS_OFF)],
    )
    def test_classify_one_agrees_with_classify(self, method, params):
        g = random_dag(30, avg_degree=2.0, seed=5)
        table = create_index(method, g, **params).build()._cut_table
        pairs = np.array(
            [(u, v) for u in range(30) for v in range(30) if u != v],
            dtype=np.int64,
        )
        positive, negative = table.classify(pairs[:, 0], pairs[:, 1])
        for (u, v), pos, neg in zip(
            pairs.tolist(), positive.tolist(), negative.tolist()
        ):
            cut = table.classify_one(u, v)
            if cut is None:
                assert not pos and not neg, (method, u, v)
            else:
                assert cut in CUT_NAMES, (method, cut)
                assert pos == (cut == "positive-cut"), (method, u, v, cut)
                assert neg == (not pos), (method, u, v, cut)
