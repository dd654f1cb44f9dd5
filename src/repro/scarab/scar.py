"""The SCARAB query algorithm: local gateways + a backbone base index.

``ScarabIndex`` wraps any registered base method (FELINE, GRAIL, ...) over
the backbone graph of :mod:`repro.scarab.backbone`.  With locality ε = 2 a
query ``r(u, v)`` decomposes into:

1. **local hit** — ``u == v`` or a direct edge ``u → v`` (paths shorter
   than ε);
2. **gateway product** — let ``Out(u) = ({u} ∪ N⁺(u)) ∩ B`` and
   ``In(v) = ({v} ∪ N⁻(v)) ∩ B``; answer *true* iff some
   ``(b1, b2) ∈ Out(u) × In(v)`` satisfies ``r(b1, b2)`` on the backbone
   (answered by the base index).

The backbone cover property makes this exact; see
:mod:`repro.scarab.backbone` for the proof sketch.  This is the paper's
FELINE-SCAR (``base_method="feline"``) and GRAIL-SCAR
(``base_method="grail"``) — Table 5 and Figure 17.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    ReachabilityIndex,
    create_index,
    register_index,
)
from repro.graph.digraph import DiGraph
from repro.perf.cut_table import CutTable, view_i64
from repro.scarab.backbone import Backbone, extract_backbone

__all__ = ["ScarabIndex", "ScarabCutTable"]


class ScarabCutTable(CutTable):
    """SCARAB's O(1) cuts, batched: direct edge and empty gateway sets.

    A sorted ``u * n + v`` key set answers "does the edge exist" (the
    local positive hit) for a whole batch with one ``searchsorted``;
    precomputed per-vertex "has any out/in gateway" flags decide the
    negative cut; one pair scans ``u``'s out-row and reads the flags
    as bytes.  Survivors run the gateway product on the backbone's base
    index (:meth:`ScarabIndex._search_pair`).
    """

    def __init__(self, index: "ScarabIndex") -> None:
        graph = index.graph
        n = max(1, graph.num_vertices)
        self.n = n
        out_indptr = view_i64(graph.out_indptr)
        out_indices = view_i64(graph.out_indices)
        owners = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64),
            np.diff(out_indptr),
        )
        self.edge_keys = np.sort(owners * np.int64(n) + out_indices)
        is_backbone = view_i64(index.backbone.backbone_id) >= 0
        succ_gw = (
            np.bincount(
                owners[is_backbone[out_indices]], minlength=graph.num_vertices
            )
            > 0
        )
        in_indptr = view_i64(graph.in_indptr)
        in_indices = view_i64(graph.in_indices)
        in_owners = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64),
            np.diff(in_indptr),
        )
        pred_gw = (
            np.bincount(
                in_owners[is_backbone[in_indices]],
                minlength=graph.num_vertices,
            )
            > 0
        )
        self.has_out_gateway = is_backbone | succ_gw
        self.has_in_gateway = is_backbone | pred_gw
        self.out_indptr, self.out_indices = graph.out_indptr, graph.out_indices
        self.out_gateway_flags = self.has_out_gateway.tobytes()
        self.in_gateway_flags = self.has_in_gateway.tobytes()

    def classify(self, sources, targets):
        keys = sources * np.int64(self.n) + targets
        if self.edge_keys.size:
            slots = np.searchsorted(self.edge_keys, keys, side="left")
            positive = slots < self.edge_keys.size
            positive &= (
                self.edge_keys[np.minimum(slots, self.edge_keys.size - 1)]
                == keys
            )
        else:
            positive = np.zeros(len(sources), dtype=bool)
        negative = ~positive & (
            ~self.has_out_gateway[sources] | ~self.has_in_gateway[targets]
        )
        return positive, negative

    def classify_one(self, u, v):
        indices = self.out_indices
        for k in range(self.out_indptr[u], self.out_indptr[u + 1]):
            if indices[k] == v:
                return "positive-cut"
        if self.out_gateway_flags[u] and self.in_gateway_flags[v]:
            return None
        return "negative-cut"


class ScarabIndex(ReachabilityIndex):
    """SCARAB boosting of a base reachability method.

    Parameters
    ----------
    graph:
        The input DAG.
    base_method:
        Registry name of the base index built on the backbone graph
        (``"feline"`` and ``"grail"`` reproduce the paper's two SCAR
        variants; any registered method works).
    base_params:
        Keyword arguments forwarded to the base method's constructor.

    Examples
    --------
    >>> from repro.graph.generators import random_dag
    >>> g = random_dag(200, avg_degree=2.0, seed=7)
    >>> feline_scar = ScarabIndex(g, base_method="feline").build()
    >>> feline_scar.backbone.size < g.num_vertices
    True
    """

    method_name = "scarab"

    def __init__(
        self,
        graph: DiGraph,
        base_method: str = "feline",
        base_params: dict | None = None,
    ) -> None:
        super().__init__(graph)
        self.base_method = base_method
        self._base_params = dict(base_params or {})
        self.backbone: Backbone | None = None
        self.base_index: ReachabilityIndex | None = None

    # ------------------------------------------------------------------
    def _build(self) -> None:
        self.backbone = extract_backbone(self.graph)
        self.base_index = create_index(
            self.base_method, self.backbone.graph, **self._base_params
        )
        self.base_index.build()

    def _set_guard(self, guard) -> None:
        # The backbone probes search inside the base index: one guard
        # bounds them all.
        self._guard = guard
        if self.base_index is not None:
            self.base_index._set_guard(guard)

    def _bind_kernel(self) -> None:
        # Every search runs in the base index, so the kernel binds there.
        base = self.base_index
        base._kernel_choice = self._kernel_choice
        base._bind_kernel()
        self._kernel_backend = base._kernel_backend

    def index_size_bytes(self) -> int:
        if self.backbone is None or self.base_index is None:
            return 0
        mapping = self.backbone.backbone_id
        inverse = self.backbone.original_id
        return (
            self.base_index.index_size_bytes()
            + mapping.itemsize * len(mapping)
            + inverse.itemsize * len(inverse)
        )

    def _explain_details(self, u: int, v: int, explanation) -> None:
        """Gateway-set sizes: how large the backbone product was.

        ``cut == "search"`` here means the ``Out(u) × In(v)`` gateway
        product was evaluated on the backbone's base index (not a graph
        DFS); ``positive-cut`` is a direct-edge local hit and
        ``negative-cut`` an empty gateway set.
        """
        graph = self.graph
        backbone_id = self.backbone.backbone_id
        out_gw = sum(
            1
            for k in range(graph.out_indptr[u], graph.out_indptr[u + 1])
            if backbone_id[graph.out_indices[k]] != -1
        ) + (1 if backbone_id[u] != -1 else 0)
        in_gw = sum(
            1
            for k in range(graph.in_indptr[v], graph.in_indptr[v + 1])
            if backbone_id[graph.in_indices[k]] != -1
        ) + (1 if backbone_id[v] != -1 else 0)
        explanation.details["out_gateways"] = out_gw
        explanation.details["in_gateways"] = in_gw
        explanation.details["base_method"] = self.base_method

    # ------------------------------------------------------------------
    def _make_cut_table(self) -> ScarabCutTable:
        return ScarabCutTable(self)

    def _search_pair(self, u: int, v: int) -> bool:
        # Survivors have no direct edge and both gateway sets non-empty
        # (the cut table proved it): collect the sets and run the
        # backbone product, each probe one query on the base index.
        graph = self.graph
        backbone_id = self.backbone.backbone_id
        out_gateways: list[int] = []
        bu = backbone_id[u]
        if bu != -1:
            out_gateways.append(bu)
        for k in range(graph.out_indptr[u], graph.out_indptr[u + 1]):
            bw = backbone_id[graph.out_indices[k]]
            if bw != -1:
                out_gateways.append(bw)
        in_gateways: list[int] = []
        bv = backbone_id[v]
        if bv != -1:
            in_gateways.append(bv)
        for k in range(graph.in_indptr[v], graph.in_indptr[v + 1]):
            bw = backbone_id[graph.in_indices[k]]
            if bw != -1:
                in_gateways.append(bw)
        base_query = self.base_index._answer
        for b1 in out_gateways:
            for b2 in in_gateways:
                if base_query(b1, b2):
                    return True
        return False


register_index(ScarabIndex)
