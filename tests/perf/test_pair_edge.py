"""The list edges of a batch: ``_edge.c`` against the python routes.

:func:`~repro.perf.engine.as_pair_array` flattens a list or tuple of
plain-int pairs in one compiled call (``flatten_pairs``) and re-runs the
python route (:func:`~repro.perf.engine._python_pairs`) for any batch
that call declines; the engine builds its answer list with
``answer_list`` instead of ``ndarray.tolist``.  The differential below
holds the compiled route to the python one, array for array and error
for error; the build and fallback tests cover the SOABI-keyed cache and
the ``compile-failed`` and ``no-headers`` fallbacks, under which the
python routes answer.
"""

from __future__ import annotations

import sys
import sysconfig
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.base import create_index
from repro.graph.generators import random_dag
from repro.perf import engine, kernels
from repro.perf.kernels import (
    EDGE_SOURCE,
    _ref,
    build_search_library,
    describe_backend,
    edge_fallback_reason,
    edge_library,
)
from repro.resilience import UNKNOWN, QueryBudget

from tests.batch_cases import MALFORMED, N, PAIRS


def require_edge():
    """The loaded list-edge library; skips where it cannot load."""
    reason = edge_fallback_reason()
    if reason is not None:
        pytest.skip(f"list edge unavailable ({reason})")
    return edge_library()


@pytest.fixture
def fresh_edge(monkeypatch, tmp_path):
    """Forget both libraries' load outcomes and cache into ``tmp_path``,
    so the next use builds (or fails to build) from scratch."""
    monkeypatch.setattr(kernels, "_edge_state", None)
    monkeypatch.setattr(kernels, "_c_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    return tmp_path


class _Int(int):
    """An ``int`` subclass: the python route takes it, C declines it."""


# Ids the compiled walk declines (each sends the batch to the python
# route, which accepts the first three and raises for the rest).
ODD_IDS = [
    True, np.int64(3), _Int(2), 2**63 - 1, 2**63, -2**63 - 1, 1.5, 1.5e9,
    None, N, -1,
]

good_ids = st.integers(0, N - 1)
shape = st.sampled_from([tuple, list])
good_rows = st.builds(lambda u, v, row: row((u, v)), good_ids, good_ids, shape)
odd_rows = st.one_of(
    st.builds(lambda ids, row: row(ids),
              st.lists(good_ids, min_size=1, max_size=3).filter(
                  lambda ids: len(ids) != 2),
              shape),
    st.builds(lambda good, odd, odd_first, row:
              row((odd, good) if odd_first else (good, odd)),
              good_ids, st.sampled_from(ODD_IDS), st.booleans(), shape),
)


@st.composite
def batches(draw):
    """``(batch, position of its odd row or -1)``."""
    rows = draw(st.lists(good_rows, max_size=24))
    odd_at = -1
    if draw(st.booleans()):
        odd_at = draw(st.integers(0, len(rows)))
        rows.insert(odd_at, draw(odd_rows))
    return draw(shape)(rows), odd_at


def _outcome(convert, batch):
    """``("ok", array)`` or ``("raised", type, message, vertex)``."""
    try:
        return "ok", convert(batch, N)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return "raised", type(exc), str(exc), getattr(exc, "vertex", None)


def _assert_same_outcome(batch) -> None:
    got = _outcome(engine.as_pair_array, batch)
    want = _outcome(engine._python_pairs, batch)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert got[1].dtype == np.int64 and got[1].shape == want[1].shape
        assert np.array_equal(got[1], want[1])
    else:
        assert got == want


class TestFlattenDifferential:
    @given(batches())
    @settings(max_examples=400, deadline=None)
    def test_c_route_matches_python_route(self, case):
        edge = require_edge()
        batch, odd_at = case
        out = np.empty((len(batch), 2), dtype=np.int64)
        # C takes every plain batch and declines exactly at the odd row.
        assert edge.flatten_pairs(batch, len(batch), N, _ref(out)) == odd_at
        _assert_same_outcome(batch)

    @pytest.mark.parametrize("odd", ODD_IDS, ids=repr)
    @pytest.mark.parametrize("row", [tuple, list])
    def test_odd_id_in_the_last_row(self, odd, row):
        require_edge()
        _assert_same_outcome([*PAIRS, row((0, odd))])
        _assert_same_outcome(tuple([*PAIRS, row((odd, 0))]))

    @pytest.mark.parametrize(
        "case", [c for c in MALFORMED if isinstance(c[1](), (list, tuple))],
        ids=lambda case: case[0],
    )
    def test_malformed_table(self, case):
        require_edge()
        _assert_same_outcome(case[1]())

    def test_size_mismatch_declines(self):
        edge = require_edge()
        out = np.empty((2, 2), dtype=np.int64)
        assert edge.flatten_pairs([(0, 1)], 2, N, _ref(out)) == 0
        assert edge.flatten_pairs(iter([(0, 1)]), 1, N, _ref(out)) == 0


class TestAnswerList:
    def test_equals_tolist(self):
        edge = require_edge()
        rng = np.random.default_rng(7)
        for m in (0, 1, 7, 1000):
            answers = rng.random(m) < 0.5
            got = edge.answer_list(_ref(answers), m)
            assert type(got) is list and got == answers.tolist()
            assert all(a is b for a, b in zip(got, answers.tolist()))

    def test_no_leak(self):
        edge = require_edge()
        answers = np.random.default_rng(3).random(1000) < 0.5
        for _ in range(100):
            edge.answer_list(_ref(answers), len(answers))
        refs = sys.getrefcount(True), sys.getrefcount(False)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10_000):
                result = edge.answer_list(_ref(answers), len(answers))
            del result
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # One leaked 1,000-answer list per call would be ~80 MB.
        assert grown < 64 * 1024
        after = sys.getrefcount(True), sys.getrefcount(False)
        assert abs(after[0] - refs[0]) < 100 and abs(after[1] - refs[1]) < 100

    def test_budgeted_batch_matches_the_python_route(self, monkeypatch):
        # The UNKNOWN positions are patched into the compiled list as
        # into answers.tolist().
        require_edge()
        g = random_dag(300, avg_degree=3.0, seed=5)
        pairs = [(u, (u * 37 + 11) % 300) for u in range(300)]
        budget = QueryBudget(max_steps=1, policy="unknown")

        def run():
            index = create_index("feline", g).build()
            return index.query_many(pairs, budget=budget), index.stats.as_dict()

        compiled = run()
        monkeypatch.setattr(kernels, "_edge_state", (None, "test"))
        python = run()
        assert UNKNOWN in compiled[0]
        assert compiled == python
        assert all(a is b for a, b in zip(compiled[0], python[0]))


class TestBuild:
    def test_object_name_carries_soabi(self, tmp_path):
        require_edge()
        path = build_search_library(tmp_path, EDGE_SOURCE, python_api=True)
        assert path.name.startswith(
            f"_edge-{sysconfig.get_config_var('SOABI')}-"
        )
        assert build_search_library(tmp_path) != path

    def test_edited_source_rebuilds(self, tmp_path):
        require_edge()
        source = tmp_path / "_edge.c"
        source.write_bytes(EDGE_SOURCE.read_bytes())
        first = build_search_library(tmp_path / "cache", source, python_api=True)
        source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
        second = build_search_library(tmp_path / "cache", source, python_api=True)
        assert first != second
        assert first.exists() and second.exists()

    def test_loads_on_the_first_batch_not_at_build(self, fresh_edge):
        r = repro.Reachability(random_dag(40, avg_degree=2.0, seed=3))
        assert kernels._edge_state is None
        r.reachable_many(PAIRS)
        assert kernels._edge_state is not None


def _python_route_answers() -> None:
    """The facade answers list batches, and rejects malformed ones, on
    the python route exactly as the scalar loop would."""
    g = random_dag(N, avg_degree=2.0, seed=4)
    r = repro.Reachability(g)
    assert r.reachable_many(PAIRS) == [r.reachable(u, v) for u, v in PAIRS]
    assert r.reachable_many(tuple(map(list, PAIRS))) == r.reachable_many(PAIRS)
    for _, make, error, vertex in MALFORMED:
        batch = make()
        if isinstance(batch, np.ndarray):
            continue
        with pytest.raises(error) as raised:
            r.reachable_many(batch)
        if vertex is not None:
            assert raised.value.vertex == vertex


class TestFallback:
    def test_failed_compile_answers_on_python(self, fresh_edge, monkeypatch):
        monkeypatch.setenv("CC", "false")
        _python_route_answers()
        assert edge_fallback_reason() == "compile-failed"
        doc = describe_backend()
        assert doc["c_fallback_reason"] == "compile-failed"
        assert doc["edge_fallback_reason"] == "compile-failed"
        assert not list(fresh_edge.rglob("*.tmp"))

    def test_missing_headers_answer_on_python(self, fresh_edge, monkeypatch):
        empty = fresh_edge / "include"
        empty.mkdir()
        get_path = sysconfig.get_path
        monkeypatch.setattr(
            sysconfig, "get_path",
            lambda name, *a, **k: str(empty) if "include" in name
            else get_path(name, *a, **k),
        )
        _python_route_answers()
        assert edge_fallback_reason() == "no-headers"
        doc = describe_backend()
        assert doc["edge_fallback_reason"] == "no-headers"
        # The search tier needs no Python headers.
        assert doc["c_fallback_reason"] in (None, "no-compiler", "compile-failed")
