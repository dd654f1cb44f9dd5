"""Cut-table plumbing: cached views, helper codecs, table lifecycle."""

import numpy as np
import pytest

from repro.baselines.base import available_methods, create_index
from repro.core.query import FelineIndex
from repro.graph.generators import random_dag
from repro.perf.cut_table import (
    RankCuts,
    RankRow,
    SearchOnlyCutTable,
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
        assert isinstance(table, RankCuts)
        x_row, y_row = table.rows[:2]
        assert x_row.left is views.x and x_row.right is views.x
        assert y_row.left is views.y and y_row.right is views.y

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


class TestRankCuts:
    """Every row shape against its definition: ``left[s] ≤ right[t]``
    (``<`` when strict), ``(s, t) = (v, u)`` when reversed."""

    @staticmethod
    def reference(rows, u, v):
        def holds(row):
            s, t = (v, u) if row.reverse else (u, v)
            right = row.left if row.right is None else row.right
            a, b = int(row.left[s]), int(right[t])
            return a < b if row.strict else a <= b

        positive = [row for row in rows if row.name == "positive-cut"]
        for row in rows:
            if row.name != "positive-cut" and not holds(row):
                return row.name
        if positive and all(holds(row) for row in positive):
            return "positive-cut"
        return None

    def rows(self, with_positive=True):
        rng = np.random.default_rng(7)
        a, b, c, d = (rng.integers(0, 6, size=12) for _ in range(4))
        rows = [
            RankRow("negative-cut", a, b),
            RankRow("negative-cut-reversed", b, c, reverse=True),
            RankRow("level-filter", c, strict=True),
            RankRow("negative-cut", d, a, strict=True, reverse=True),
        ]
        if with_positive:
            rows += [
                RankRow("positive-cut", a),
                RankRow("positive-cut", d, b, reverse=True),
            ]
        return rows

    @pytest.mark.parametrize("with_positive", [True, False])
    def test_both_paths_follow_the_row_definition(self, with_positive):
        rows = self.rows(with_positive)
        table = RankCuts(rows)
        pairs = np.array(
            [(u, v) for u in range(12) for v in range(12) if u != v],
            dtype=np.int64,
        )
        positive, negative = table.classify(pairs[:, 0], pairs[:, 1])
        names = set()
        for (u, v), pos, neg in zip(
            pairs.tolist(), positive.tolist(), negative.tolist()
        ):
            cut = self.reference(rows, u, v)
            names.add(cut)
            assert table.classify_one(u, v) == cut, (u, v)
            assert pos == (cut == "positive-cut"), (u, v)
            assert neg == (cut not in (None, "positive-cut")), (u, v)
        assert ("positive-cut" in names) == with_positive
        assert {"negative-cut", "negative-cut-reversed", "level-filter"} <= names

    def test_rows_hold_the_given_arrays(self):
        rows = self.rows()
        table = RankCuts(rows)
        assert all(
            kept.left is given.left for kept, given in zip(table.rows, rows)
        )
        assert table.rows[2].right is rows[2].left  # right defaults to left
        assert [row.name for row in table.positive] == ["positive-cut"] * 2


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


def _random_layer(n: int, k: int, seed: int):
    """An observer layer of random arrays: wrong as reachability data,
    but it makes every check fire, ties and overlapping verdicts
    included, so the code order of each route shows."""
    from repro.perf.observers import ObserverLayer

    rng = np.random.default_rng(seed)
    t1, t2, fmax, bmin = (rng.integers(0, n // 2, size=n) for _ in range(4))
    width = (k + 7) // 8
    fwd, bwd = (
        rng.integers(0, 256, size=(n, width), dtype=np.uint8)
        & rng.integers(0, 256, size=(n, width), dtype=np.uint8)
        for _ in range(2)
    )
    return ObserverLayer(
        t1=t1, t2=t2, fmax=fmax, bmin=bmin,
        supports=np.arange(k, dtype=np.int64), fwd_bits=fwd, bwd_bits=bwd,
    )


class TestClassifyKernel:
    """The compiled cut pass (``kernels.CClassify``) writes the numpy
    route's codes and counts (``engine.mask_codes``) for every rank-row
    family, with and without filters and observer layers whose bit rows
    span 0, 1 and 2 bytes."""

    FAMILIES = ["feline", "feline-b", "feline-i", "feline-k", "grail"]
    N = 40

    def pairs(self):
        n = self.N
        pairs = np.array(
            [(u, v) for u in range(n) for v in range(n)], dtype=np.int64
        )
        # Every pair twice: reflexive and duplicate pairs included.
        pairs = np.concatenate([pairs, pairs[::-1]])
        return pairs[:, 0].copy(), pairs[:, 1].copy()

    def index(self, method, filters, kernel="c"):
        from tests.property.test_kernel_equivalence import require_c

        require_c()
        g = random_dag(self.N, avg_degree=2.0, seed=5)
        index = create_index(method, g, **({} if filters else FILTERS_OFF))
        index.set_kernel(kernel)
        return index.build()

    @pytest.mark.parametrize(
        "layer, k",
        [(None, 0)] + [(layer, k) for layer in ("built", "random")
                       for k in (0, 3, 16)],
    )
    @pytest.mark.parametrize("filters", [True, False])
    @pytest.mark.parametrize("method", FAMILIES)
    def test_codes_match_the_numpy_route(self, method, filters, layer, k):
        from repro.perf.engine import mask_codes
        from repro.perf.observers import build_observers

        index = self.index(method, filters)
        if layer == "built":
            index.attach_observers(build_observers(index.graph, k=k))
        elif layer == "random":
            index.attach_observers(_random_layer(self.N, k, seed=k))
        compiled = index._classify
        assert compiled is not None
        sources, targets = self.pairs()
        codes, counts = compiled(sources, targets)
        want, want_counts = mask_codes(index, sources, targets)
        assert codes.tolist() == want.tolist()
        assert counts == want_counts
        assert sum(counts) == len(sources)

    @pytest.mark.parametrize("kernel", ["c", "python"])
    def test_out_of_range_pair_counts_nothing(self, kernel):
        from repro.perf.engine import vectorized_query_many
        from repro.perf.observers import build_observers

        index = self.index("feline", True, kernel)
        index.attach_observers(build_observers(index.graph, k=3))
        assert (index._classify is None) == (kernel == "python")
        before = index.stats.as_dict()
        pairs = np.array([(0, 1), (2, 2), (3, self.N), (4, 5)])
        with pytest.raises(IndexError):
            vectorized_query_many(index, pairs)
        assert index.stats.as_dict() == before
        if kernel == "c":
            with pytest.raises(IndexError, match=f"3 -> {self.N}"):
                index._classify(pairs[:, 0], pairs[:, 1])

    def test_bound_on_the_c_tier_only(self, monkeypatch):
        from repro.perf.observers import build_observers

        index = self.index("grail", True)
        first = index._classify
        assert first is not None and first._ctx.num_observer == 0
        index.attach_observers(build_observers(index.graph, k=3))
        assert index._classify is not first
        assert index._classify._ctx.num_observer == 4
        assert index._classify._ctx.width == 1
        index.set_kernel("python")
        assert index._classify is None
        index.set_kernel(None)
        assert index._classify is not None
        monkeypatch.setenv("REPRO_KERNEL", "python")
        index.set_kernel(None)
        assert index._classify is None

    def test_search_only_tables_classify_reflexive_and_observers(self):
        from repro.perf.engine import mask_codes
        from repro.perf.observers import build_observers

        index = self.index("bfs", True)
        index.attach_observers(build_observers(index.graph, k=3))
        assert index._classify._ctx.num_negative == 0
        sources, targets = self.pairs()
        codes, counts = index._classify(sources, targets)
        want, want_counts = mask_codes(index, sources, targets)
        assert codes.tolist() == want.tolist() and counts == want_counts
