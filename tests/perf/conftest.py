"""The search-heavy workload of the perf contract tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import create_index
from repro.datasets.queries import random_pairs
from repro.graph.generators import random_dag

SEARCH_HEAVY_PAIRS = 2_000


@pytest.fixture(scope="session")
def search_heavy():
    """``(graph, pairs)``: a sparse random DAG and pairs that FELINE's
    O(1) cuts leave undecided, so a batch of them costs online searches.

    Random candidates are classified by a throwaway FELINE index's cut
    table and the undecided, non-reflexive ones kept.
    """
    graph = random_dag(5_000, avg_degree=2.0, seed=42)
    table = create_index("feline", graph).build()._cut_table
    pairs: list[tuple[int, int]] = []
    seed = 42
    while len(pairs) < SEARCH_HEAVY_PAIRS:
        candidates = np.asarray(
            random_pairs(graph, 8 * SEARCH_HEAVY_PAIRS, seed=seed),
            dtype=np.int64,
        )
        sources, targets = candidates[:, 0], candidates[:, 1]
        positive, negative = table.classify(sources, targets)
        undecided = ~(positive | negative) & (sources != targets)
        pairs.extend(map(tuple, candidates[undecided].tolist()))
        seed += 1
    return graph, pairs[:SEARCH_HEAVY_PAIRS]
