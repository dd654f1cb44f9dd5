"""Unit tests for :mod:`repro.perf.kernels`: selection, dispatch, tiers.

The bit-identity contract itself lives in
``tests/property/test_kernel_equivalence.py``; this file covers the
machinery around it — backend discovery and the environment knob, the
C library's build cache and its fallbacks (no compiler, failed compile,
unwritable cache, wrong array layout), the vectorized wide-slice path,
the one-call batch survivor sweep, forked pool workers on the C tier,
the dispatch/shared-bytes instruments, and the
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
from repro.exceptions import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import crown_graph, random_dag
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.perf import kernels
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
            for method in ("feline", "bibfs"):
                index = create_index(method, g).build()
                assert index.kernel_backend == "numpy"
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
            assert index.kernel_backend == "numpy"
            assert _fallback_count(registry, "layout") == 1
        finally:
            disable_metrics()
        with pytest.raises(CUnavailable, match="layout"):
            kernels._c_context(
                object.__new__(kernels.FelineSearch), kernels._FELINE_CTX, 3,
                keys=np.zeros(3, dtype=np.int32),
            )


class TestVertexBounds:
    def test_c_refuses_vertices_outside_the_graph(self):
        # C checks every vertex against n before touching an array, so
        # a bad id is an IndexError, never a write past a buffer.
        require_c()
        g = random_dag(40, avg_degree=2.0, seed=3)
        index = create_index("feline", g)
        index.set_kernel("c")
        index.build()
        kernel = index._kernel
        for u, v in ((0, 40), (-1, 5), (40, 0), (2**62, 1)):
            with pytest.raises(IndexError):
                kernel.search(u, v, 0, 0)
        with pytest.raises(IndexError, match="0 -> 99"):
            kernel.search_batch(np.array([1, 0]), np.array([2, 99]))
        with pytest.raises(IndexError):
            bounded_search(g, 0, 40, 10, backend="c")
        assert index.query(0, 39) == _python_twin(g).query(0, 39)


class TestIndexBinding:
    def test_set_kernel_before_and_after_build(self):
        g = random_dag(40, avg_degree=2.0, seed=3)
        index = create_index("feline", g)
        assert index.set_kernel("numpy") == "numpy"
        index.build()
        assert index.kernel_backend == "numpy"
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
        # Degrees far above VECTOR_MIN_DEGREE force _expand_wide; the
        # answers and counters must still match the python loops.
        fan = 3 * VECTOR_MIN_DEGREE
        edges = [(0, k) for k in range(1, fan + 1)]
        edges += [(k, fan + 1) for k in range(1, fan + 1)]
        edges += [(fan + 1, fan + 2), (0, fan + 3)]  # a dead-end branch
        g = DiGraph(fan + 4, edges, name="wide-fan")
        python = create_index("feline", g)
        python.set_kernel("python")
        python.build()
        numpy_ix = create_index("feline", g)
        numpy_ix.set_kernel("numpy")
        numpy_ix.build()
        pairs = [(u, v) for u in range(g.num_vertices) for v in (0, fan + 2)]
        assert numpy_ix.query_many(pairs) == python.query_many(pairs)
        assert numpy_ix.stats.as_dict() == python.stats.as_dict()


def _all_pairs(g):
    n = g.num_vertices
    return [(u, v) for u in range(n) for v in range(n)]


def _python_twin(g):
    python = create_index("feline", g)
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
            index = create_index("feline", g)
            index.set_kernel("numpy")
            index.build()
            for u in range(g.num_vertices):
                for v in range(g.num_vertices):
                    index.query(u, v)
            counter = registry.counter(
                "repro_kernel_dispatch_total",
                backend="numpy", method="feline",
            )
            assert counter.value > 0
            pages = index.enable_shared_pages()
            gauge = registry.gauge(
                "repro_shared_pages_bytes", method="feline"
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
