"""Unit tests for :mod:`repro.perf.kernels`: selection, dispatch, tiers.

The bit-identity contract itself lives in
``tests/property/test_kernel_equivalence.py``; this file covers the
machinery around it — backend discovery and the environment knob, the
C library's build cache and its fallbacks (no compiler, failed compile,
unwritable cache, wrong array layout), the numpy BFS's vectorized
frontiers, the one-call batch survivor sweep (step budgets included),
the range check of the compiled searches, forked pool
workers on the C tier, the dispatch/shared-bytes instruments, and the
:func:`~repro.perf.kernels.bounded_search` degradation engine.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines.base import create_index
from repro.exceptions import QueryBudgetExceeded, ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import crown_graph, random_dag
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.obs.slowlog import SlowQueryLog
from repro.perf import engine, kernels
from repro.perf.kernels import (
    KERNEL_BACKENDS,
    VECTOR_MIN_DEGREE,
    CUnavailable,
    available_backends,
    bounded_search,
    build_search_library,
    c_fallback_reason,
    describe_backend,
    resolve_backend,
)
from repro.perf.observers import build_observers
from repro.resilience import QueryBudget

from tests.property.test_kernel_equivalence import require_c


@pytest.fixture
def no_c(monkeypatch):
    """The world where the C library failed to build (reason pinned)."""
    monkeypatch.setattr(kernels, "_c_state", (None, "no-compiler"))


@pytest.fixture
def fresh_c(monkeypatch, tmp_path):
    """Forget the process's load outcome and cache into ``tmp_path``, so
    the next bind builds (or fails to build) from scratch."""
    monkeypatch.setattr(kernels, "_c_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    return tmp_path


def _fallback_count(registry, reason: str) -> float:
    return registry.counter(
        "repro_kernel_fallback_total", reason=reason
    ).value


class TestBackendResolution:
    def test_auto_is_c_when_the_library_loads(self, monkeypatch):
        require_c()
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_backend() == "c"
        assert resolve_backend("auto") == "c"
        assert available_backends() == KERNEL_BACKENDS

    def test_auto_without_c_is_numpy(self, no_c, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_backend() == "numpy"
        assert resolve_backend("auto") == "numpy"
        assert available_backends() == ("numpy", "python")

    def test_env_var_steers_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert resolve_backend() == "python"
        assert resolve_backend("auto") == "python"
        # An explicit request always beats the environment.
        assert resolve_backend("numpy") == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(ReproError, match="unknown kernel backend"):
            resolve_backend("fortran")

    def test_explicit_c_refused_when_unavailable(self, no_c):
        # A silent downgrade would invalidate a benchmark that believes
        # it measured the compiled tier.
        with pytest.raises(ReproError, match="no-compiler"):
            resolve_backend("c")

    def test_describe_backend_stanza(self, no_c):
        doc = describe_backend()
        assert doc["kernel_backend"] == "numpy"
        assert doc["c_fallback_reason"] == "no-compiler"
        assert doc["available_backends"] == ["numpy", "python"]

    def test_numba_version_is_gone(self):
        assert kernels.numba_version() is None


class TestBuildCache:
    def test_same_source_reuses_the_object(self, tmp_path, monkeypatch):
        require_c()
        first = build_search_library(tmp_path)
        mtime = first.stat().st_mtime_ns

        def no_compiler(*args, **kwargs):
            raise AssertionError("a cached object must not be rebuilt")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert build_search_library(tmp_path) == first
        assert first.stat().st_mtime_ns == mtime

    def test_edited_source_rebuilds(self, tmp_path):
        require_c()
        source = tmp_path / "search.c"
        source.write_bytes(kernels.SOURCE.read_bytes())
        first = build_search_library(tmp_path / "cache", source)
        source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
        second = build_search_library(tmp_path / "cache", source)
        assert first != second
        assert first.exists() and second.exists()

    def test_concurrent_builders_both_load(self, tmp_path):
        # Two processes race to build into one empty cache: each
        # compiles to its own temporary file and os.replace publishes
        # it, so both load a whole object and nothing partial is left.
        require_c()
        probe = (
            "import sys; from repro.perf import kernels; "
            "sys.exit(0 if kernels.resolve_backend() == 'c' else 1)"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env.pop("REPRO_KERNEL", None)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        procs = [
            subprocess.Popen([sys.executable, "-c", probe], env=env)
            for _ in range(2)
        ]
        assert [p.wait(timeout=120) for p in procs] == [0, 0]
        files = os.listdir(tmp_path / "repro")
        assert len(files) == 1 and files[0].endswith(".so")


class TestFallback:
    @pytest.mark.parametrize(
        "compiler, reason",
        [("false", "compile-failed"), ("no-such-cc-xyz", "no-compiler")],
    )
    def test_without_a_compiler_auto_falls_back_and_counts(
        self, fresh_c, monkeypatch, compiler, reason
    ):
        monkeypatch.setenv("CC", compiler)
        registry = enable_metrics()
        try:
            g = random_dag(40, avg_degree=2.0, seed=3)
            # FELINE has no numpy search: it runs the python loop.
            for method, bound in (("feline", "python"), ("bibfs", "numpy")):
                index = create_index(method, g).build()
                assert index.kernel_backend == bound
            assert c_fallback_reason() == reason
            assert _fallback_count(registry, reason) == 2
            with pytest.raises(ReproError, match=reason):
                create_index("feline", g).set_kernel("c")
        finally:
            disable_metrics()
        assert not list(fresh_c.rglob("*.tmp"))

    def test_unwritable_cache_falls_back(self, fresh_c, monkeypatch):
        blocker = fresh_c / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert resolve_backend() == "numpy"
        assert c_fallback_reason() == "cache-unwritable"

    def test_wrong_array_width_falls_back_at_bind(self):
        require_c()
        registry = enable_metrics()
        try:
            g = random_dag(40, avg_degree=2.0, seed=3)
            index = create_index("feline", g).build()
            assert index.kernel_backend == "c"
            adjacency = index.adjacency
            index.adjacency = dataclasses.replace(
                adjacency, keys_np=adjacency.keys_np.astype(np.int32)
            )
            index._bind_kernel()
            assert index.kernel_backend == "python"
            assert _fallback_count(registry, "layout") == 1
        finally:
            disable_metrics()
        with pytest.raises(CUnavailable, match="layout"):
            kernels._c_context(
                object.__new__(kernels.CBiBFSKernel), kernels._BIBFS_CTX(n=3),
                out_indptr=np.zeros(3, dtype=np.int32),
            )


class TestVertexBounds:
    def test_c_refuses_vertices_outside_the_graph(self):
        # C checks every vertex against n before touching an array, so
        # a bad id is an IndexError, never a write past a buffer: the
        # visited marks, which a search writes first, stay as they were.
        require_c()
        g = random_dag(40, avg_degree=2.0, seed=3)
        for method in ("feline", "grail", "feline-k"):
            index = create_index(method, g)
            index.set_kernel("c")
            index.build()
            kernel = index._kernel
            marks = bytes(index._visited)
            for u, v in ((0, 40), (-1, 5), (40, 0), (2**62, 1)):
                with pytest.raises(IndexError):
                    kernel.search(u, v)
            with pytest.raises(IndexError, match="0 -> 99"):
                kernel.search_batch(np.array([0, 1]), np.array([99, 2]))
            assert bytes(index._visited) == marks
            with pytest.raises(IndexError, match="0 -> 99"):
                kernel.search_batch(np.array([1, 0]), np.array([2, 99]))
            assert index.query(0, 39) == _python_twin(g, method).query(0, 39)
        with pytest.raises(IndexError):
            bounded_search(g, 0, 40, 10, backend="c")


class TestIndexBinding:
    def test_set_kernel_before_and_after_build(self):
        g = random_dag(40, avg_degree=2.0, seed=3)
        # FELINE has no numpy search: built, it runs the python loop.
        for method, bound in (("bibfs", "numpy"), ("feline", "python")):
            index = create_index(method, g)
            assert index.set_kernel("numpy") == "numpy"
            index.build()
            assert index.kernel_backend == bound
            assert index.set_kernel("python") == "python"
            assert index._kernel is None  # python = the original loops

    def test_family_without_native_path_reports_python(self):
        g = random_dag(30, avg_degree=2.0, seed=3)
        index = create_index("bfs", g)
        index.set_kernel("numpy")  # resolvable, but bfs has no kernel
        index.build()
        assert index.kernel_backend == "python"

    def test_invalid_kernel_rejected_before_build(self):
        g = random_dag(10, avg_degree=1.0, seed=3)
        with pytest.raises(ReproError, match="unknown kernel backend"):
            create_index("feline", g).set_kernel("fortran")


class TestWideSlices:
    def test_high_degree_vertices_take_the_vectorized_path(self):
        # Fans far above VECTOR_MIN_DEGREE give the numpy BFS frontiers
        # it expands as one gather; the answers and counters must still
        # match the python loops.
        fan = 3 * VECTOR_MIN_DEGREE
        edges = [(0, k) for k in range(1, fan + 1)]
        edges += [(k, fan + 1) for k in range(1, fan + 1)]
        edges += [(fan + 1, fan + 2), (0, fan + 3)]  # a dead-end branch
        g = DiGraph(fan + 4, edges, name="wide-fan")
        python = create_index("bibfs", g)
        python.set_kernel("python")
        python.build()
        numpy_ix = create_index("bibfs", g)
        numpy_ix.set_kernel("numpy")
        numpy_ix.build()
        assert numpy_ix.kernel_backend == "numpy"
        pairs = [(u, v) for u in range(g.num_vertices) for v in (0, fan + 2)]
        assert numpy_ix.query_many(pairs) == python.query_many(pairs)
        assert numpy_ix.stats.as_dict() == python.stats.as_dict()


def _all_pairs(g):
    n = g.num_vertices
    return [(u, v) for u in range(n) for v in range(n)]


def _python_twin(g, method="feline"):
    python = create_index(method, g)
    python.set_kernel("python")
    return python.build()


class TestBatchSweep:
    def test_survivors_answered_in_one_native_call(self, monkeypatch):
        require_c()
        g = crown_graph(5)
        index = create_index("feline", g)
        index.set_kernel("c")
        index.build()
        kernel = index._kernel
        calls = []
        original = kernel.search_batch

        def spy(us, vs):
            calls.append(len(us))
            return original(us, vs)

        monkeypatch.setattr(kernel, "search_batch", spy)
        pairs = _all_pairs(g)
        answers = index.query_many(pairs)
        assert calls, "batch engine never dispatched the native sweep"
        assert sum(calls) <= len(pairs)
        python = _python_twin(g)
        assert answers == python.query_many(pairs)
        assert index.stats.as_dict() == python.stats.as_dict()


def _spy_sweeps(monkeypatch, index):
    """Record ``(pairs, max_steps)`` per ``search_batch`` call of the
    kernel that searches for ``index`` (FELINE-I's is its delegate's)."""
    kernel = getattr(index, "_inner", index)._kernel
    original = kernel.search_batch
    calls = []

    def spy(us, vs, max_steps=-1):
        calls.append((len(us), max_steps))
        return original(us, vs, max_steps)

    monkeypatch.setattr(kernel, "search_batch", spy)
    return calls


def _spy_degrades(monkeypatch, index):
    """Record the ``(u, v)`` of every ``_degrade`` call on ``index``."""
    original = index._degrade
    calls = []

    def spy(u, v, budget, exc):
        calls.append((u, v))
        return original(u, v, budget, exc)

    monkeypatch.setattr(index, "_degrade", spy)
    return calls


def _observed(method, g, backend, layer):
    index = create_index(method, g)
    index.set_kernel(backend)
    index.build()
    index.attach_observers(layer)
    return index


def _duplicate_heavy(g, seed):
    """Every pair twice, then a few distinct pairs many times, shuffled."""
    rng = np.random.default_rng(seed)
    pairs = np.array(_all_pairs(g), dtype=np.int64)
    repeats = pairs[rng.integers(0, len(pairs), size=8)]
    batch = np.concatenate(
        [pairs, pairs, repeats[rng.integers(0, 8, size=400)]]
    )
    return batch[rng.permutation(len(batch))]


SWEEPING = ["feline", "feline-b", "feline-i", "bibfs", "grail", "feline-k"]


class TestBudgetedSweep:
    """Step budgets ride the one-call sweep; deadlines and slow logs,
    the per-pair guarded loop."""

    @pytest.mark.parametrize("method", SWEEPING)
    def test_step_budget_sweeps_once_per_batch(self, monkeypatch, method):
        require_c()
        g = random_dag(60, avg_degree=2.5, seed=4)
        index = create_index(method, g)
        index.set_kernel("c")
        index.build()
        calls = _spy_sweeps(monkeypatch, index)
        pairs = _all_pairs(g)
        budget = QueryBudget(max_steps=2, policy="unknown")
        for _ in range(2):
            index.query_many(pairs, budget=budget)
        assert [steps for _, steps in calls] == [2, 2]
        python = _python_twin(g, method)
        for _ in range(2):
            python.query_many(pairs, budget=budget)
        assert index.stats.as_dict() == python.stats.as_dict()
        assert index.stats.budget_exhausted > 0

    @pytest.mark.parametrize("method", SWEEPING)
    def test_deadlines_and_slow_logs_keep_the_loop(self, monkeypatch, method):
        require_c()
        g = random_dag(60, avg_degree=2.5, seed=4)
        index = create_index(method, g)
        index.set_kernel("c")
        index.build()
        calls = _spy_sweeps(monkeypatch, index)
        pairs = _all_pairs(g)
        steps = QueryBudget(max_steps=2, policy="unknown")
        deadline = QueryBudget(max_steps=2, deadline_s=60.0, policy="unknown")
        index.query_many(pairs, budget=deadline)
        index.attach_slow_log(SlowQueryLog())
        index.query_many(pairs, budget=steps)
        index.query_many(pairs)
        assert calls == []
        assert index.stats.budget_exhausted > 0

    @pytest.mark.parametrize("method", SWEEPING)
    @pytest.mark.parametrize("policy", ["unknown", "fallback"])
    def test_degrades_once_per_exhausted_occurrence(
        self, monkeypatch, method, policy
    ):
        require_c()
        g = random_dag(40, avg_degree=2.5, seed=6)
        layer = build_observers(g, k=3)
        pairs = _duplicate_heavy(g, seed=6)
        budget = QueryBudget(max_steps=2, policy=policy)
        swept = _observed(method, g, "c", layer)
        looped = _observed(method, g, "python", layer)
        sweeps = _spy_sweeps(monkeypatch, swept)
        degraded = [
            _spy_degrades(monkeypatch, index) for index in (swept, looped)
        ]
        answers = [
            index.query_many(pairs, budget=budget)
            for index in (swept, looped)
        ]
        assert len(sweeps) == 1
        assert answers[0] == answers[1]
        assert swept.stats.as_dict() == looped.stats.as_dict()
        # One degrade per exhausted occurrence, in the loop's order.
        assert degraded[0] == degraded[1]
        assert len(degraded[0]) == swept.stats.budget_exhausted > 0
        assert len(set(degraded[0])) < len(degraded[0])

    @pytest.mark.parametrize("method", ["feline", "feline-i", "bibfs"])
    def test_raise_policy_matches_the_guarded_loop(self, monkeypatch, method):
        require_c()
        g = random_dag(40, avg_degree=2.5, seed=6)
        layer = build_observers(g, k=3)
        pairs = _duplicate_heavy(g, seed=7)
        budget = QueryBudget(max_steps=2, policy="raise")
        swept = _observed(method, g, "c", layer)
        looped = _observed(method, g, "c", layer)
        # Declining the sweep puts the same tier on the guarded loop.
        monkeypatch.setattr(looped, "_search_pairs_batch", lambda *a: None)
        sweeps = _spy_sweeps(monkeypatch, swept)
        degraded = [
            _spy_degrades(monkeypatch, index) for index in (swept, looped)
        ]
        raised = []
        for index in (swept, looped):
            with pytest.raises(QueryBudgetExceeded) as info:
                index.query_many(pairs, budget=budget)
            raised.append(info.value)
        assert len(sweeps) == 1
        for exc in raised:
            assert exc.resource == "steps"
            assert exc.steps == budget.max_steps + 1
        assert swept.stats.as_dict() == looped.stats.as_dict()
        assert degraded[0] == degraded[1] and len(degraded[0]) == 1

    @pytest.mark.parametrize("method", ["feline", "bibfs"])
    def test_out_of_range_vertex_still_raises(self, method):
        # The engine trusts validated batches; a pair that skipped
        # validation must still stop at C's range check.
        require_c()
        g = random_dag(40, avg_degree=2.0, seed=3)
        index = create_index(method, g)
        index.set_kernel("c")
        index.build()
        sources = np.array([1, 0], dtype=np.int64)
        targets = np.array([2, 99], dtype=np.int64)
        answers = np.zeros(2, dtype=bool)
        with pytest.raises(IndexError, match="0 -> 99"):
            engine._search_guarded(
                index, sources, targets, np.arange(2), answers,
                QueryBudget(max_steps=3, policy="unknown"), None,
            )
        assert index.query(0, 39) == _python_twin(g, method).query(0, 39)


class TestForkedWorkers:
    def test_pool_workers_search_in_c(self):
        # Forked workers inherit the loaded library and the bound
        # context; answers and stats match the python tier, and closing
        # the pool leaves no child behind.
        require_c()
        g = crown_graph(6)
        index = create_index("feline", g)
        index.set_kernel("c")
        index.build()
        pairs = _all_pairs(g)
        if index.enable_search_pool(2, min_batch=1) is None:
            pytest.skip("no fork on this platform")
        try:
            answers = index.query_many(pairs)
        finally:
            index.close_search_pool()
            index.close_shared_pages()
        python = _python_twin(g)
        assert answers == python.query_many(pairs)
        assert index.stats.as_dict() == python.stats.as_dict()
        assert multiprocessing.active_children() == []


class TestInstruments:
    def test_dispatch_counter_and_shared_bytes_gauge(self):
        g = crown_graph(4)
        registry = enable_metrics()
        try:
            index = create_index("bibfs", g)
            index.set_kernel("numpy")
            index.build()
            for u in range(g.num_vertices):
                for v in range(g.num_vertices):
                    index.query(u, v)
            counter = registry.counter(
                "repro_kernel_dispatch_total",
                backend="numpy", method="bibfs",
            )
            assert counter.value > 0
            pages = index.enable_shared_pages()
            gauge = registry.gauge(
                "repro_shared_pages_bytes", method="bibfs"
            )
            if pages is not None:
                assert gauge.value == pages.nbytes > 0
                index.close_shared_pages()
                assert gauge.value == 0
        finally:
            disable_metrics()


class TestBoundedSearch:
    @pytest.mark.parametrize("backend", ["numpy", "python", "c"])
    def test_tiers_agree_with_the_python_engine(self, backend):
        if backend == "c":
            require_c()
        g = random_dag(60, avg_degree=2.0, seed=9)
        rng = np.random.default_rng(9)
        pairs = rng.integers(0, g.num_vertices, size=(60, 2))
        for cap in (1, 3, 5, 1000):
            for u, v in pairs:
                expected = bounded_search(
                    g, int(u), int(v), cap, backend="python"
                )
                got = bounded_search(g, int(u), int(v), cap, backend=backend)
                assert got == expected, (
                    f"cap={cap} ({u}->{v}): {backend} said {got}, "
                    f"python said {expected}"
                )
