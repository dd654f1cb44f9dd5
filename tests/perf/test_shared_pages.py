"""Lifecycle tests for :class:`repro.perf.shm.SharedIndexPages`.

The arena's contract: arrays round-trip bit-exactly through shared
memory, unrelated processes can attach by manifest (and their close is
borrower-close, never an unlink), the owner's close — or, as a backstop,
its finalizer — removes the ``/dev/shm`` name immediately, and every
failure mode degrades to fork-COW instead of breaking the index.  An
autouse fixture asserts no test leaks a ``/dev/shm`` segment.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.base import available_methods, create_index
from repro.exceptions import ReproError
from repro.graph.generators import crown_graph, random_dag
from repro.perf.shm import SharedIndexPages, shared_memory_available

# The checkout's package, for the child processes a test starts.
SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable on this platform",
)

SHM_DIR = "/dev/shm"


def _shm_entries() -> set[str] | None:
    if not os.path.isdir(SHM_DIR):
        return None
    return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    before = _shm_entries()
    yield
    gc.collect()
    if before is not None:
        leaked = _shm_entries() - before
        assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"


def _sample_arrays() -> dict[str, np.ndarray]:
    return {
        "weights": np.arange(100, dtype=np.int64),
        "coords": np.linspace(0.0, 1.0, 33, dtype=np.float64),
        "bits": np.array([[1, 0], [0, 1]], dtype=np.uint8),
        "empty": np.empty(0, dtype=np.int64),
    }


class TestArenaBasics:
    def test_create_view_roundtrip(self):
        arrays = _sample_arrays()
        with SharedIndexPages.create(arrays, label="t") as pages:
            assert sorted(pages.names()) == sorted(arrays)
            for name, arr in arrays.items():
                view = pages.view(name)
                assert view.dtype == arr.dtype
                assert view.shape == arr.shape
                assert np.array_equal(view, arr)
                # 64-byte alignment for every non-empty array
                if arr.nbytes:
                    address = view.__array_interface__["data"][0]
                    assert address % 64 == 0
            assert "owner" in repr(pages)

    def test_manifest_is_json_safe(self):
        with SharedIndexPages.create(_sample_arrays()) as pages:
            manifest = json.loads(json.dumps(pages.manifest()))
            assert manifest["shm_name"] == pages._shm.name
            twin = SharedIndexPages.attach(manifest)
            try:
                assert np.array_equal(
                    twin.view("weights"), pages.view("weights")
                )
            finally:
                twin.close()
            # Borrower close never unlinks: the owner still reads it.
            assert int(pages.view("weights").sum()) == sum(range(100))

    def test_close_unlinks_and_is_idempotent(self):
        pages = SharedIndexPages.create(_sample_arrays())
        name = pages._shm.name
        manifest = pages.manifest()
        pages.close()
        pages.close()  # idempotent
        assert pages.closed
        assert not os.path.exists(os.path.join(SHM_DIR, name))
        with pytest.raises(ReproError, match="closed"):
            pages.view("weights")
        with pytest.raises(ReproError, match="no longer exists"):
            SharedIndexPages.attach(manifest)

    def test_view_outliving_close_stays_mapped(self):
        # A consumer that still holds a view after close() (an index
        # re-staged onto a new arena copies from its old views) must
        # read valid memory, not unmapped pages.
        pages = SharedIndexPages.create(_sample_arrays())
        name = pages._shm.name
        weights = pages.view("weights")
        pages.close()
        assert not os.path.exists(os.path.join(SHM_DIR, name))
        gc.collect()
        assert int(weights.sum()) == sum(range(100))
        copy = SharedIndexPages.create({"weights": weights})
        try:
            assert np.array_equal(copy.view("weights"), np.arange(100))
        finally:
            copy.close()

    def test_finalizer_backstop_unlinks_a_dropped_arena(self):
        pages = SharedIndexPages.create(_sample_arrays())
        name = pages._shm.name
        del pages
        gc.collect()
        assert not os.path.exists(os.path.join(SHM_DIR, name))

    def test_create_returns_none_when_shm_is_unusable(self, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("no shm here")

        monkeypatch.setattr(
            "multiprocessing.shared_memory.SharedMemory", broken
        )
        assert SharedIndexPages.create(_sample_arrays()) is None


class TestCrossProcessAttach:
    def test_unrelated_process_attaches_by_manifest(self):
        arrays = _sample_arrays()
        with SharedIndexPages.create(arrays, label="xproc") as pages:
            child = (
                "import json, sys\n"
                "from repro.perf.shm import SharedIndexPages\n"
                "pages = SharedIndexPages.attach(json.loads(sys.argv[1]))\n"
                "print(int(pages.view('weights').sum()))\n"
                "pages.close()\n"
            )
            env = dict(os.environ, PYTHONPATH=str(SRC))
            proc = subprocess.run(
                [sys.executable, "-c", child, json.dumps(pages.manifest())],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == str(sum(range(100)))
            # The child's borrower-close must not have unlinked the name.
            assert np.array_equal(pages.view("weights"), arrays["weights"])


class TestIndexIntegration:
    @pytest.mark.parametrize("method", available_methods())
    def test_enable_close_roundtrip_preserves_answers(self, method):
        g = random_dag(50, avg_degree=2.0, seed=13)
        index = create_index(method, g).build()
        pairs = [
            (u, v) for u in range(g.num_vertices)
            for v in range(g.num_vertices)
        ]
        before = index.query_many(pairs)
        pages = index.enable_shared_pages()
        if pages is None:
            return  # family holds no numpy pages; fork-COW is fine
        assert index.shared_pages is pages
        assert index.enable_shared_pages() is pages  # idempotent
        assert index.query_many(pairs) == before
        index.close_shared_pages()
        index.close_shared_pages()  # idempotent
        assert index.shared_pages is None
        assert pages.closed
        assert index.query_many(pairs) == before

    def test_pool_moves_pages_before_the_fork(self):
        g = crown_graph(5)
        index = create_index("feline", g).build()
        pairs = [
            (u, v) for u in range(g.num_vertices)
            for v in range(g.num_vertices)
        ]
        truth = index.query_many(pairs)
        index.enable_search_pool(2, min_batch=1)
        try:
            assert index.shared_pages is not None, (
                "enable_search_pool must stage the arena pre-fork"
            )
            assert index.query_many(pairs) == truth
        finally:
            index.close_search_pool()
            index.close_shared_pages()

    def test_facade_shared_pages_and_context_manager(self):
        from repro import Reachability

        g = random_dag(40, avg_degree=2.0, seed=5)
        with Reachability(g, shared_pages=True) as oracle:
            pages = oracle.shared_pages
            assert pages is not None and not pages.closed
            assert oracle.reachable(0, g.num_vertices - 1) in (True, False)
        assert pages.closed  # close() ran on exit


def _rank_pointers(index):
    """What a rank context reads: out-CSR rows, children, keys and its
    first row's values."""
    kernel = index._kernel
    structs, _ = kernel._rows
    ctx = kernel._ctx
    return ctx.indptr, ctx.indices, ctx.keys, structs[0].left


class TestSearchAdjacencyPages:
    """The X-sorted adjacency moves into the arena with the coordinates,
    and the C tier's contexts read the adopted views."""

    @pytest.mark.parametrize("kernel", ["numpy", "c"])
    @pytest.mark.parametrize(
        "method, prefix",
        [("feline", "feline"), ("feline-i", "feline"), ("feline-b", "fwd")],
    )
    def test_kernel_reads_adopted_adjacency(self, method, prefix, kernel):
        if kernel == "c":
            from tests.property.test_kernel_equivalence import require_c

            require_c()
        g = random_dag(60, avg_degree=3.0, seed=9)
        index = create_index(method, g)
        index.set_kernel(kernel)
        index.build()
        # FELINE-I searches inside its delegate on the reversed graph.
        owner = index._inner if method == "feline-i" else index
        coords = owner.forward if method == "feline-b" else owner.coordinates
        pairs = [
            (u, v) for u in range(g.num_vertices)
            for v in range(g.num_vertices)
        ]
        before = index.query_many(pairs)
        stats = index.stats.as_dict()
        index.stats.reset()
        original = owner.adjacency
        pages = index.enable_shared_pages()
        try:
            names = set(pages.names())
            assert {f"{prefix}.adj_indices", f"{prefix}.adj_keys"} <= names
            if kernel == "c":
                # The rank context was rebuilt over the adopted views.
                assert _rank_pointers(owner) == (
                    pages.view("csr.out_indptr").ctypes.data,
                    pages.view(f"{prefix}.adj_indices").ctypes.data,
                    pages.view(f"{prefix}.adj_keys").ctypes.data,
                    coords.views.y.ctypes.data,
                )
                assert np.shares_memory(
                    coords.views.y, pages.view(f"{prefix}.y")
                )
            else:
                # No numpy search: the python loop reads the arrays.
                assert owner._kernel is None
            assert index.query_many(pairs) == before
            assert index.stats.as_dict() == stats
        finally:
            index.close_shared_pages()
        assert owner.adjacency is original
        if kernel == "c":
            # ...and rebuilt again over the restored arrays.
            assert _rank_pointers(owner) == (
                owner.graph.csr().out_indptr.ctypes.data,
                original.indices_np.ctypes.data,
                original.keys_np.ctypes.data,
                coords.views.y.ctypes.data,
            )
            index.stats.reset()
            assert index.query_many(pairs) == before
            assert index.stats.as_dict() == stats

    def test_c_grail_reads_adopted_csr(self):
        """GRAIL's rank context walks the graph's out-CSR: the adopted
        pages after enable_shared_pages, the originals after restore."""
        from tests.property.test_kernel_equivalence import require_c

        require_c()
        g = random_dag(60, avg_degree=3.0, seed=9)
        index = create_index("grail", g)
        index.set_kernel("c")
        index.build()
        pairs = [(u, v) for u in range(60) for v in range(60)]
        before = index.query_many(pairs)
        stats = index.stats.as_dict()
        labels = index._cut_table.negative[0].left.ctypes.data
        pages = index.enable_shared_pages()
        try:
            assert _rank_pointers(index) == (
                pages.view("csr.out_indptr").ctypes.data,
                pages.view("csr.out_indices").ctypes.data,
                None,
                labels,
            )
            index.stats.reset()
            assert index.query_many(pairs) == before
            assert index.stats.as_dict() == stats
        finally:
            index.close_shared_pages()
        csr = g.csr()
        assert _rank_pointers(index) == (
            csr.out_indptr.ctypes.data, csr.out_indices.ctypes.data,
            None, labels,
        )
        index.stats.reset()
        assert index.query_many(pairs) == before
        assert index.stats.as_dict() == stats

    def test_c_bibfs_reads_adopted_csr(self):
        from tests.property.test_kernel_equivalence import require_c

        require_c()
        g = random_dag(60, avg_degree=3.0, seed=9)
        index = create_index("bibfs", g)
        index.set_kernel("c")
        index.build()
        pairs = [(u, v) for u in range(60) for v in range(60)]
        before = index.query_many(pairs)
        pages = index.enable_shared_pages()
        try:
            ctx = index._kernel._ctx
            assert ctx.out_indices == pages.view("csr.out_indices").ctypes.data
            assert ctx.in_indptr == pages.view("csr.in_indptr").ctypes.data
            assert index.query_many(pairs) == before
        finally:
            index.close_shared_pages()
        ctx = index._kernel._ctx
        assert ctx.out_indices == g.csr().out_indices.ctypes.data
        assert index.query_many(pairs) == before

    @pytest.mark.parametrize("method", ["feline", "feline-i", "feline-b"])
    def test_c_classify_reads_adopted_pages(self, method):
        """The compiled cut pass is rebuilt over the adopted observer
        and row arrays, and over the originals again after restore."""
        from repro.perf.observers import build_observers
        from tests.property.test_kernel_equivalence import require_c

        require_c()
        g = random_dag(60, avg_degree=3.0, seed=9)
        index = create_index(method, g)
        index.set_kernel("c")
        index.build()
        layer = index.attach_observers(build_observers(g, k=12))
        pairs = [(u, v) for u in range(60) for v in range(60)]
        before = index.query_many(pairs)
        stats = index.stats.as_dict()

        def pointers():
            compiled = index._classify
            rows = compiled._rows
            return compiled._ctx.fwd_bits, rows[0].left, rows[4].left

        original = (
            layer.fwd_bits.ctypes.data,
            layer.t1.ctypes.data,
            index._cut_table.negative[0].left.ctypes.data,
        )
        assert pointers() == original
        pages = index.enable_shared_pages()
        try:
            assert pointers() == (
                pages.view("obs.fwd_bits").ctypes.data,
                pages.view("obs.t1").ctypes.data,
                index._cut_table.negative[0].left.ctypes.data,
            )
            row_array = index._cut_table.negative[0].left
            assert any(
                np.shares_memory(row_array, pages.view(name))
                for name in pages.names()
            )
            index.stats.reset()
            assert index.query_many(pairs) == before
            assert index.stats.as_dict() == stats
        finally:
            index.close_shared_pages()
        assert pointers() == original
        index.stats.reset()
        assert index.query_many(pairs) == before
        assert index.stats.as_dict() == stats

    @pytest.mark.parametrize("method", ["feline", "feline-i", "feline-b"])
    def test_scalar_observers_read_adopted_pages(self, method):
        """The scalar chain's observer checks read the arena after
        adoption (a shard worker's ``local`` RPC answers through the
        scalar ``query``), and the private arrays again after restore."""
        from repro.perf.observers import build_observers

        g = random_dag(60, avg_degree=3.0, seed=9)
        index = create_index(method, g).build()
        layer = index.attach_observers(build_observers(g, k=12))
        pairs = [(u, v) for u in range(60) for v in range(60)]
        before = [index.query(u, v) for u, v in pairs]
        stats = index.stats.as_dict()
        assert stats["observer_positive"] + stats["observer_negative"] > 0

        def scalar_reads(current, arrays) -> bool:
            return all(
                np.shares_memory(
                    np.asarray(getattr(current, f"_{name}")), arrays(name)
                )
                for name in ("t1", "t2", "fmax", "bmin")
            )

        pages = index.enable_shared_pages()
        try:
            assert scalar_reads(
                index.observers, lambda name: pages.view(f"obs.{name}")
            )
            index.stats.reset()
            assert [index.query(u, v) for u, v in pairs] == before
            assert index.stats.as_dict() == stats
        finally:
            index.close_shared_pages()
        assert index.observers is layer
        assert scalar_reads(layer, lambda name: getattr(layer, name))
        index.stats.reset()
        assert [index.query(u, v) for u, v in pairs] == before
        assert index.stats.as_dict() == stats
