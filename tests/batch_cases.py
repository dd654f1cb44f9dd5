"""Batch-boundary cases shared by the facade, index and shard tests.

Every batch entry point — ``Reachability.reachable_many``,
``ReachabilityIndex.query_many`` and ``ShardService.query_many`` —
validates its input with :func:`repro.perf.engine.as_pair_array`.  The
expected errors are those of unpacking and range-checking the pairs one
by one, in order: ``ValueError`` for a row that is not a pair,
``TypeError`` for an id that is not an integer, ``InvalidVertexError``
for the first id outside ``0 .. n-1`` (``u`` before ``v``).  Floats are
rejected, never truncated, and float, bool and object arrays are
rejected whatever they hold.
"""

import numpy as np

from repro.exceptions import InvalidVertexError

N = 12  # vertices of every graph these cases run on

# A batch over every vertex, with a duplicate and a reflexive pair.
PAIRS = [(u, (7 * u + 3) % N) for u in range(N)] + [(0, 5), (0, 5), (4, 4)]

# (case id, batch factory, exception type, expected ``.vertex``)
MALFORMED = [
    ("array-n3", lambda: np.zeros((2, 3), dtype=np.int64), ValueError, None),
    ("array-1d", lambda: np.arange(4, dtype=np.int64), TypeError, None),
    ("array-3d", lambda: np.zeros((2, 2, 2), dtype=np.int64), ValueError, None),
    ("array-float", lambda: np.array([(0, 1), (2, 3)], dtype=np.float64),
     TypeError, None),
    ("array-object", lambda: np.array([(0, 1), (2, None)], dtype=object),
     TypeError, None),
    ("array-object-ints", lambda: np.array([(0, 1), (2, 3)], dtype=object),
     TypeError, None),
    ("array-bool", lambda: np.array([(True, False), (False, True)]),
     TypeError, None),
    ("list-negative", lambda: [(0, 1), (2, -1)], InvalidVertexError, -1),
    ("list-too-large", lambda: [(0, 1), (N, 2)], InvalidVertexError, N),
    ("list-u-before-v", lambda: [(0, 1), (N + 5, -3)], InvalidVertexError, N + 5),
    ("list-first-pair-first", lambda: [(0, N + 1), (-1, 0)],
     InvalidVertexError, N + 1),
    ("array-negative", lambda: np.array([(0, 1), (3, -2)]), InvalidVertexError, -2),
    ("array-too-large", lambda: np.array([(0, 1), (N, 2)]), InvalidVertexError, N),
    ("int32-too-large", lambda: np.array([(0, 1), (2, N)], dtype=np.int32),
     InvalidVertexError, N),
    ("uint64-past-int64",
     lambda: np.array([(0, 1), (2**63 + 5, 3)], dtype=np.uint64),
     InvalidVertexError, 2**63 + 5),
    ("int-past-int64", lambda: [(0, 1), (2**70, 1)], InvalidVertexError, 2**70),
    ("row-of-three", lambda: [(0, 1), (1, 2, 3)], ValueError, None),
    ("row-of-one", lambda: [(0, 1), (1,)], ValueError, None),
    ("ragged-rows", lambda: [(0, 1, 2), (3,)], ValueError, None),
    ("float-vertex", lambda: [(0, 1), (1.5, 2)], TypeError, None),
    ("float-past-range", lambda: [(0, 1), (2, 1.5e9)], InvalidVertexError, 1.5e9),
    ("str-vertex", lambda: [(0, 1), ("1", 2)], TypeError, None),
    ("none-vertex", lambda: [(0, 1), (None, 2)], TypeError, None),
    ("bad-id-before-bad-type", lambda: [(0, -4), ("1", 2)], InvalidVertexError, -4),
]

# (case id, batch factory) for inputs answered like the ``PAIRS`` list;
# the factories receive the pair list.
ACCEPTED = [
    ("list", lambda pairs: list(pairs)),
    ("lists", lambda pairs: [list(p) for p in pairs]),
    ("tuple", lambda pairs: tuple(pairs)),
    ("generator", lambda pairs: (p for p in pairs)),
    ("int64-array", lambda pairs: np.asarray(pairs, dtype=np.int64)),
    ("int32-array", lambda pairs: np.asarray(pairs, dtype=np.int32)),
    ("uint64-array", lambda pairs: np.asarray(pairs, dtype=np.uint64)),
    ("int64-columns", lambda pairs: np.asarray(pairs, dtype=np.int64).T.copy().T),
]

# (case id, batch factory) for empty batches: the answer is ``[]``.
EMPTY = [
    ("empty-list", lambda: []),
    ("empty-generator", lambda: iter(())),
    ("empty-array", lambda: np.empty((0, 2), dtype=np.int64)),
]


def ids(cases):
    """pytest ids for a case table."""
    return [case[0] for case in cases]
