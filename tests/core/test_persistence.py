"""Unit tests for FELINE index persistence and memory-mapped loading."""

import pytest

from repro.core.index import build_feline_index
from repro.core.persistence import (
    load_coordinates,
    load_index,
    save_coordinates,
    save_index,
)
from repro.core.query import FelineIndex
from repro.exceptions import ReproError
from repro.graph.generators import random_dag

from tests.conftest import all_pairs, assert_index_matches_oracle


@pytest.fixture
def graph():
    return random_dag(150, avg_degree=2.0, seed=3)


class TestRoundTrip:
    def test_coordinates_round_trip(self, graph, tmp_path):
        coords = build_feline_index(graph)
        path = tmp_path / "g.feline"
        save_coordinates(coords, path)
        loaded = load_coordinates(path)
        assert list(loaded.x) == list(coords.x)
        assert list(loaded.y) == list(coords.y)
        assert list(loaded.levels) == list(coords.levels)
        assert list(loaded.tree_intervals.start) == list(
            coords.tree_intervals.start
        )

    def test_round_trip_without_filters(self, graph, tmp_path):
        coords = build_feline_index(
            graph, with_level_filter=False, with_positive_cut=False
        )
        path = tmp_path / "bare.feline"
        save_coordinates(coords, path)
        loaded = load_coordinates(path)
        assert loaded.levels is None
        assert loaded.tree_intervals is None

    def test_loaded_index_answers_correctly(self, graph, tmp_path):
        original = FelineIndex(graph).build()
        path = tmp_path / "g.feline"
        save_index(original, path)
        loaded = load_index(graph, path)
        assert_index_matches_oracle(loaded, graph)

    def test_mmap_index_answers_correctly(self, graph, tmp_path):
        original = FelineIndex(graph).build()
        path = tmp_path / "g.feline"
        save_index(original, path)
        loaded = load_index(graph, path, mmap=True)
        expected = original.query_many(all_pairs(graph)[:2000])
        assert loaded.query_many(all_pairs(graph)[:2000]) == expected


class TestLoadedSearch:
    @pytest.mark.parametrize("mmap", [False, True])
    def test_load_matches_fresh_build(self, graph, tmp_path, mmap):
        # The X-sorted adjacency is derived at load time, so a loaded
        # index searches exactly like the one that was saved.
        fresh = FelineIndex(graph).build()
        path = tmp_path / "g.feline"
        save_index(fresh, path)
        loaded = load_index(graph, path, mmap=mmap)
        assert list(loaded.adjacency.indices) == list(fresh.adjacency.indices)
        pairs = all_pairs(graph)
        assert loaded.query_many(pairs) == fresh.query_many(pairs)
        assert [loaded.query(u, v) for u, v in pairs] == [
            fresh.query(u, v) for u, v in pairs
        ]
        assert fresh.stats.searches > 0
        assert loaded.stats.as_dict() == fresh.stats.as_dict()


class TestValidation:
    def test_unbuilt_index_rejected(self, graph, tmp_path):
        with pytest.raises(ReproError, match="unbuilt"):
            save_index(FelineIndex(graph), tmp_path / "x.feline")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.feline"
        path.write_bytes(b"NOTANIDX" + b"\0" * 64)
        with pytest.raises(ReproError, match="bad magic"):
            load_coordinates(path)

    def test_truncated_file_rejected(self, graph, tmp_path):
        coords = build_feline_index(graph)
        path = tmp_path / "g.feline"
        save_coordinates(coords, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ReproError, match="truncated"):
            load_coordinates(path)

    def test_vertex_count_mismatch_rejected(self, graph, tmp_path):
        path = tmp_path / "g.feline"
        save_index(FelineIndex(graph).build(), path)
        other = random_dag(10, avg_degree=1.0, seed=0)
        with pytest.raises(ReproError, match="vertices"):
            load_index(other, path)

    def test_empty_graph_round_trip(self, tmp_path):
        from repro.graph.digraph import DiGraph

        g = DiGraph(0, [])
        coords = build_feline_index(g)
        path = tmp_path / "empty.feline"
        save_coordinates(coords, path)
        assert load_coordinates(path).num_vertices == 0
