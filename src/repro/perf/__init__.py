"""repro.perf — the batch query engine.

The paper's headline result (Figures 10-11) is that FELINE's O(1) cuts
kill the vast majority of queries before any search runs.  This package
generalises that win from scalar FELINE to *every* registered index
family:

* :mod:`repro.perf.cut_table` — the :class:`CutTable` contract: numpy
  views of an index's O(1)-cut structures (coordinates, levels, interval
  labels, FERRARI bounds, hop labels, ...) materialized **once** at
  ``build()`` time instead of per batch call;
* :mod:`repro.perf.engine` — :func:`as_pair_array`, the batch boundary
  that validates a whole batch into one ``(n, 2)`` int64 array, and
  :func:`vectorized_query_many`, the generic batch pass: one vectorized
  cut classification for the whole batch, then per-pair online search
  only for the survivors.  Answers and
  :class:`~repro.baselines.base.QueryStats` are bit-identical to the
  scalar loop;
* :mod:`repro.perf.observers` — :class:`ObserverLayer`, O'Reach-style
  supporting-vertex and topological-interval cuts that run as a
  vectorized pre-pass in front of *every* family's cut table (one
  pair at a time in the scalar query chain), shrinking the survivor set
  the online search must process;
* :mod:`repro.perf.pool` — :class:`SearchPool`, a ``fork``-based worker
  pool that partitions the surviving needs-search pairs across
  processes (CSR arrays and cut tables shared copy-on-write), with
  deterministic result ordering and a graceful in-process fallback on
  platforms without ``fork``;
* :mod:`repro.perf.kernels` — CSR-native search kernels for the
  survivor path (pruned DFS, bidirectional BFS, the batch survivor
  sweep) with a three-tier backend: a C library compiled on first use
  and loaded through ``ctypes``, a vectorized numpy fallback, pure
  Python last — every tier bit-identical in answers *and*
  ``QueryStats``;
* :mod:`repro.perf.shm` — :class:`SharedIndexPages`, a
  ``multiprocessing.shared_memory`` arena for the read-only index pages
  so forked workers map one physical copy instead of COW-duplicating.

See ``docs/PERFORMANCE.md`` for the architecture and workload guidance.
"""

from repro.perf.cut_table import (
    CutTable,
    SearchOnlyCutTable,
    SwappedCutTable,
)
from repro.perf.engine import as_pair_array, vectorized_query_many
from repro.perf.kernels import (
    KERNEL_BACKENDS,
    available_backends,
    c_fallback_reason,
    numba_version,
    resolve_backend,
)
from repro.perf.observers import ObserverLayer, build_observers
from repro.perf.pool import SearchPool, fork_available
from repro.perf.shm import SharedIndexPages, shared_memory_available

__all__ = [
    "CutTable",
    "SearchOnlyCutTable",
    "SwappedCutTable",
    "ObserverLayer",
    "build_observers",
    "as_pair_array",
    "vectorized_query_many",
    "SearchPool",
    "fork_available",
    "KERNEL_BACKENDS",
    "available_backends",
    "c_fallback_reason",
    "numba_version",
    "resolve_backend",
    "SharedIndexPages",
    "shared_memory_available",
]
