"""FELINE — the paper's primary contribution.

Public surface:

* :class:`~repro.core.query.FelineIndex` — the index of Algorithms 1–3
  (coordinates, negative cut, level + positive-cut filters, pruned DFS);
* :class:`~repro.core.bidirectional.FelineIIndex` /
  :class:`~repro.core.bidirectional.FelineBIndex` — the reversed and
  bidirectional variants of §4.3.3;
* :func:`~repro.core.index.build_feline_index` — Algorithm 1 alone, when
  only the coordinates are wanted (e.g. the Figure 12 plots);
* :mod:`~repro.core.analysis` — false-positive counting and cut rates.
"""

from repro.core.analysis import (
    count_false_positives,
    dominance_pair_count,
    negative_cut_rate,
)
from repro.core.advisor import (
    describe_recommendation,
    extract_features,
    recommend_method,
)
from repro.core.bidirectional import FelineBIndex, FelineIIndex
from repro.core.heuristics import available_heuristics, compute_y_order
from repro.core.incremental import IncrementalFelineIndex
from repro.core.multidim import MultiDimFelineIndex
from repro.core.index import FelineCoordinates, build_feline_index
from repro.core.persistence import (
    load_coordinates,
    load_index,
    save_coordinates,
    save_index,
)
from repro.core.query import FelineIndex

__all__ = [
    "FelineIndex",
    "FelineIIndex",
    "FelineBIndex",
    "IncrementalFelineIndex",
    "MultiDimFelineIndex",
    "recommend_method",
    "describe_recommendation",
    "extract_features",
    "save_index",
    "load_index",
    "save_coordinates",
    "load_coordinates",
    "FelineCoordinates",
    "build_feline_index",
    "compute_y_order",
    "available_heuristics",
    "count_false_positives",
    "dominance_pair_count",
    "negative_cut_rate",
]
