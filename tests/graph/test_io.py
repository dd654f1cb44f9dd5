"""Unit tests for graph serialisation."""

import gzip
from pathlib import Path

import pytest

from repro.exceptions import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.io import (
    _check_dag,
    _open_text,
    read_edge_list,
    read_gra,
    to_dot,
    write_edge_list,
    write_gra,
)


class TestEdgeList:
    def test_round_trip(self, tmp_path, paper_dag):
        path = tmp_path / "g.edges"
        write_edge_list(paper_dag, path)
        loaded = read_edge_list(path)
        assert sorted(loaded.edges()) == sorted(paper_dag.edges())

    def test_round_trip_gzip(self, tmp_path):
        g = random_dag(50, avg_degree=2.0, seed=1)
        path = tmp_path / "g.edges.gz"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert sorted(loaded.edges()) == sorted(g.edges())

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\n0 1\n# mid comment\n1 2\n")
        g = read_edge_list(path)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0\n")
        with pytest.raises(GraphError, match="expected 'u v'"):
            read_edge_list(path)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b\n")
        with pytest.raises(GraphError, match="non-integer"):
            read_edge_list(path)

    def test_dedup_option(self, tmp_path):
        path = tmp_path / "dup.edges"
        path.write_text("0 1\n0 1\n")
        assert read_edge_list(path, dedup=True).num_edges == 1
        assert read_edge_list(path).num_edges == 2

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mygraph.edges"
        path.write_text("0 1\n")
        assert read_edge_list(path).name == "mygraph"


    def test_id_past_int64_is_a_line_numbered_graph_error(self, tmp_path):
        path = tmp_path / "big.edges"
        path.write_text("0 1\n1 99999999999999999999\n")
        with pytest.raises(
            GraphError,
            match=r"big\.edges:2: vertex count 10{20} exceeds the largest",
        ):
            read_edge_list(path)

    def test_max_vertices_is_checked_before_the_id_range(self, tmp_path):
        path = tmp_path / "big.edges"
        path.write_text("0 1\n1 99999999999999999999\n")
        message = "vertex count 100000000000000000000 exceeds max_vertices 100"
        with pytest.raises(GraphError) as info:
            read_edge_list(path, max_vertices=100)
        assert str(info.value) == f"{path}:2: {message}"


def _reference_read_edge_list(
    path,
    dedup=False,
    name="",
    strict=False,
    on_duplicate=None,
    on_self_loop=None,
    max_vertices=None,
    require_dag=False,
):
    """The per-line GraphBuilder loop of ``read_edge_list``, verbatim."""
    if on_duplicate is None and strict:
        on_duplicate = "error"
    if on_self_loop is None and strict:
        on_self_loop = "error"
    builder = GraphBuilder(
        dedup=dedup,
        auto_grow=True,
        on_duplicate=on_duplicate,
        on_self_loop=on_self_loop,
        max_vertices=max_vertices,
    )
    with _open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2 or (strict and len(parts) != 2):
                raise GraphError(
                    f"{path}:{line_no}: expected 'u v', got {stripped!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(
                    f"{path}:{line_no}: non-integer vertex id in {stripped!r}"
                ) from exc
            try:
                builder.add_edge(u, v)
            except GraphError as exc:
                raise GraphError(f"{path}:{line_no}: {exc}") from exc
    graph = builder.build(name=name or Path(path).stem)
    if require_dag:
        _check_dag(graph, path)
    return graph


def _load_outcome(reader, path, kwargs):
    """CSR arrays, vertex count and name — or the error's type and text."""
    try:
        g = reader(path, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return "error", type(exc), str(exc)
    return (
        "ok",
        [list(a) for a in (g.out_indptr, g.out_indices, g.in_indptr, g.in_indices)],
        g.num_vertices,
        g.name,
    )


# (id, file bytes, keyword arguments, file suffix)
PARITY_CASES = [
    ("header", b"# header\n# |V|=3\n0 1\n1 2\n", {}, ".edges"),
    ("mid-comment", b"# h\n0 1\n# mid\n1 2\n", {}, ".edges"),
    ("indented-comment", b"  # h\n\t#x\n0 1\n", {}, ".edges"),
    ("blank-lines", b"\n\n0 1\n\n   \n\t\n1 2\n\n", {}, ".edges"),
    ("crlf", b"# h\r\n0 1\r\n1 2\r\n", {}, ".edges"),
    ("lone-cr", b"0 1\r1 2\r", {}, ".edges"),
    ("tabs", b"0\t1\n1\t\t2\n", {}, ".edges"),
    ("trailing-whitespace", b"0 1   \n1 2\t\n", {}, ".edges"),
    ("leading-whitespace", b"  0 1\n\t1 2\n", {}, ".edges"),
    ("no-final-newline", b"0 1\n1 2", {}, ".edges"),
    ("leading-zeros", b"007 08\n", {}, ".edges"),
    ("duplicates-and-loops", b"0 1\n0 1\n1 1\n", {}, ".edges"),
    ("one-token-row", b"0 1\n2\n", {}, ".edges"),
    ("three-token-rows", b"0 1 5\n1 2 7\n", {}, ".edges"),
    ("mixed-token-rows", b"0 1\n1 2 3\n", {}, ".edges"),
    ("plus-sign", b"0 1\n+1 2\n", {}, ".edges"),
    ("underscore", b"1_0 2\n", {}, ".edges"),
    ("unicode-digits", "\u0661 2\n\uff13 4\n".encode(), {}, ".edges"),
    ("float", b"0 1\n2.5 3\n", {}, ".edges"),
    ("exponent", b"1e3 2\n", {}, ".edges"),
    ("negative", b"0 1\n-1 2\n", {}, ".edges"),
    ("vertical-tab", b"0\x0b1\n", {}, ".edges"),
    ("byte-order-mark", b"\xef\xbb\xbf0 1\n", {}, ".edges"),
    ("invalid-utf8-comment", b"# \xff\n0 1\n", {}, ".edges"),
    ("nul-byte", b"0 1\x00\n", {}, ".edges"),
    ("past-int64", b"0 1\n1 99999999999999999999\n", {}, ".edges"),
    ("nineteen-digits", b"0 1000000000000000000\n", {"max_vertices": 100}, ".edges"),
    ("over-max-vertices", b"0 1\n1 500\n", {"max_vertices": 100}, ".edges"),
    ("past-int64-over-max-vertices", b"0 1\n1 99999999999999999999\n", {"max_vertices": 100}, ".edges"),
    ("at-max-vertices", b"0 1\n1 99\n", {"max_vertices": 100}, ".edges"),
    ("empty", b"", {}, ".edges"),
    ("comment-only", b"# nothing\n# here\n", {}, ".edges"),
    ("gzip", gzip.compress(b"# h\n0 1\n1 2\n"), {}, ".edges.gz"),
    ("name", b"0 1\n", {"name": "given"}, ".edges"),
    ("strict-clean", b"0 1\n1 2\n", {"strict": True}, ".edges"),
    ("strict-three-tokens", b"0 1 2\n", {"strict": True}, ".edges"),
    ("strict-duplicate", b"0 1\n0 1\n", {"strict": True}, ".edges"),
    ("strict-self-loop", b"0 0\n", {"strict": True}, ".edges"),
    ("dedup", b"0 1\n0 1\n1 2\n", {"dedup": True}, ".edges"),
    ("drop-self-loops", b"0 0\n0 1\n", {"on_self_loop": "drop"}, ".edges"),
    ("require-dag-cyclic", b"0 1\n1 0\n", {"require_dag": True}, ".edges"),
    ("require-dag-acyclic", b"0 1\n1 2\n", {"require_dag": True}, ".edges"),
]

# Cases the array parser must take (no per-edge GraphBuilder call).
CLEAN_CASES = {
    "header", "indented-comment", "blank-lines", "crlf", "lone-cr", "tabs",
    "trailing-whitespace", "leading-whitespace", "no-final-newline",
    "leading-zeros", "duplicates-and-loops", "at-max-vertices", "gzip",
    "name", "require-dag-acyclic",
}


def _no_line_loop(self, u, v):
    raise AssertionError("read_edge_list fell back to the line loop")


class TestEdgeListParserParity:
    """``read_edge_list`` ≡ the per-line loop, on every kind of input."""

    @pytest.mark.parametrize(
        "content, kwargs, suffix",
        [case[1:] for case in PARITY_CASES],
        ids=[case[0] for case in PARITY_CASES],
    )
    def test_same_graph_or_same_error(self, tmp_path, content, kwargs, suffix):
        path = tmp_path / f"g{suffix}"
        path.write_bytes(content)
        expected = _load_outcome(_reference_read_edge_list, path, kwargs)
        assert _load_outcome(read_edge_list, path, kwargs) == expected

    @pytest.mark.parametrize(
        "content, kwargs, suffix",
        [case[1:] for case in PARITY_CASES if case[0] in CLEAN_CASES],
        ids=[case[0] for case in PARITY_CASES if case[0] in CLEAN_CASES],
    )
    def test_clean_input_skips_the_line_loop(
        self, tmp_path, monkeypatch, content, kwargs, suffix
    ):
        path = tmp_path / f"g{suffix}"
        path.write_bytes(content)
        expected = _load_outcome(_reference_read_edge_list, path, kwargs)
        monkeypatch.setattr(GraphBuilder, "add_edge", _no_line_loop)
        assert _load_outcome(read_edge_list, path, kwargs) == expected

    def test_written_edge_list_skips_the_line_loop(self, tmp_path, monkeypatch):
        graph = random_dag(300, avg_degree=3.0, seed=4)
        path = tmp_path / "g.edges"
        write_edge_list(graph, path)
        expected = _load_outcome(_reference_read_edge_list, path, {})
        monkeypatch.setattr(GraphBuilder, "add_edge", _no_line_loop)
        assert _load_outcome(read_edge_list, path, {}) == expected


class TestGraFormat:
    def test_round_trip(self, tmp_path, paper_dag):
        path = tmp_path / "g.gra"
        write_gra(paper_dag, path)
        loaded = read_gra(path)
        assert loaded.num_vertices == paper_dag.num_vertices
        assert sorted(loaded.edges()) == sorted(paper_dag.edges())

    def test_format_layout(self, tmp_path):
        g = DiGraph(2, [(0, 1)])
        path = tmp_path / "g.gra"
        write_gra(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "graph_for_greach"
        assert lines[1] == "2"
        assert lines[2] == "0: 1 #"
        assert lines[3] == "1: #"

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.gra"
        path.write_text("")
        with pytest.raises(GraphError):
            read_gra(path)

    def test_bad_count_raises(self, tmp_path):
        path = tmp_path / "bad.gra"
        path.write_text("graph_for_greach\nnope\n")
        with pytest.raises(GraphError):
            read_gra(path)

    def test_isolated_vertices_preserved(self, tmp_path):
        g = DiGraph(5, [(0, 1)])
        path = tmp_path / "g.gra"
        write_gra(g, path)
        assert read_gra(path).num_vertices == 5

    def test_count_past_int64_is_a_line_numbered_graph_error(self, tmp_path):
        path = tmp_path / "big.gra"
        path.write_text("graph_for_greach\n99999999999999999999\n0: 1 #\n")
        with pytest.raises(GraphError, match="vertex count 9{20} on line 2"):
            read_gra(path)


class TestDot:
    def test_contains_all_edges(self, diamond):
        dot = to_dot(diamond)
        assert "0 -> 1;" in dot and "2 -> 3;" in dot
        assert dot.startswith("digraph G {") and dot.endswith("}")

    def test_labels_rendered(self, diamond):
        dot = to_dot(diamond, labels={0: "root"})
        assert '0 [label="root"];' in dot
