"""Shard planning: partition a condensed DAG for the shard service.

The plan is built once on the coordinator, *before* any worker process
is forked, so a restarted worker re-inherits exactly the same structures
through copy-on-write memory — failover never rebuilds an index.

Partitioning is by contiguous ``X``-rank slabs of the global FELINE
drawing, and that choice carries the correctness of the whole service:

* ``X`` is a topological order, so every vertex on a path ``u ⇝ v``
  satisfies ``x(u) < x(w) < x(v)``.  When ``u`` and ``v`` fall in the
  same slab (a contiguous X range), **every** vertex of every connecting
  path falls in that slab too.  The slab's induced subgraph therefore
  preserves reachability exactly, and a per-shard FELINE index over it
  answers same-shard queries with no cross-shard traffic at all.
* Cross-shard pairs route through the SCARAB backbone held by the
  coordinator: the owner of ``u`` reports ``Out(u) = ({u} ∪ N⁺(u)) ∩ B``
  (and checks the direct edge), the owner of ``v`` reports
  ``In(v) = ({v} ∪ N⁻(v)) ∩ B``, and the coordinator answers the
  gateway product on its backbone base index — the SCARAB ε = 2 cover
  property makes this exact (see :mod:`repro.scarab.backbone`).

Per-shard index budgets follow FERRARI's size-restricted spirit: each
shard's FELINE index is built at the richest tier (coordinates + level
filter + positive-cut tree intervals) that fits ``index_budget_bytes``,
degrading to cheaper tiers (drop intervals, then levels) instead of
blowing the budget.  Memory per shard is a dial, not an accident.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.baselines.base import ReachabilityIndex
from repro.core.index import FelineCoordinates, build_feline_index
from repro.core.query import FelineIndex, feline_rows
from repro.exceptions import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.subgraph import SubgraphMapping, induced_subgraph
from repro.perf.cut_table import RankCuts
from repro.scarab.backbone import Backbone, extract_backbone

__all__ = ["ShardState", "ShardPlan", "build_shard_plan", "INDEX_TIERS"]

#: Index tiers in descending richness; the budget walks down this list.
INDEX_TIERS = ("full", "levels", "coords")


def _build_tier_index(graph: DiGraph, tier: str) -> FelineIndex:
    if tier == "full":
        return FelineIndex(graph).build()
    if tier == "levels":
        return FelineIndex(graph, use_positive_cut=False).build()
    if tier == "coords":
        return FelineIndex(
            graph, use_positive_cut=False, use_level_filter=False
        ).build()
    raise ReproError(f"unknown index tier {tier!r}; use one of {INDEX_TIERS}")


@dataclass
class ShardState:
    """Everything one worker process needs to serve its partition.

    Attributes
    ----------
    shard_id:
        The shard's position in the plan.
    owned:
        Original (condensed-DAG) vertex ids this shard owns.
    sub:
        The induced slab subgraph plus the id translation both ways.
    index:
        The shard's own FELINE index over ``sub.graph``, built at
        ``index_tier`` to respect the plan's byte budget.
    index_tier:
        ``"full"`` / ``"levels"`` / ``"coords"`` — which structures the
        budget allowed.
    index_bytes:
        Measured size of the index actually built.
    out_gateways / in_gateways:
        ``u -> tuple of backbone ids`` for ``({u} ∪ N⁺(u)) ∩ B`` (resp.
        the predecessor side) — the shard's half of a SCARAB gateway
        product.
    out_neighbors:
        ``u -> frozenset of successors`` for the direct-edge local hit.
    """

    shard_id: int
    owned: list[int]
    sub: SubgraphMapping
    index: ReachabilityIndex
    index_tier: str
    index_bytes: int
    out_gateways: dict[int, tuple[int, ...]] = field(default_factory=dict)
    in_gateways: dict[int, tuple[int, ...]] = field(default_factory=dict)
    out_neighbors: dict[int, frozenset] = field(default_factory=dict)

    def owns(self, v: int) -> bool:
        return self.sub.local_of[v] != -1


@dataclass
class ShardPlan:
    """The coordinator's sharding decision, built once before forking.

    Attributes
    ----------
    dag:
        The condensed DAG (the coordinator's replica — also the
        degraded-mode fallback search target).
    coords:
        Global FELINE coordinates: the X order that defines the slabs.
    cuts:
        FELINE's rank rows over ``coords`` (:func:`feline_rows`): the
        coordinator's O(1) negative/positive cuts, one vectorized
        ``classify`` per batch.
    owner_of:
        ``owner_of[v]`` is the shard owning condensed vertex ``v``.
    shards:
        One :class:`ShardState` per shard.
    backbone:
        The SCARAB backbone of ``dag``; ``backbone_index`` is the
        coordinator's routing index over ``backbone.graph``.
    """

    dag: DiGraph
    coords: FelineCoordinates
    cuts: RankCuts
    owner_of: array
    shards: list[ShardState]
    backbone: Backbone
    backbone_index: ReachabilityIndex

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, v: int) -> int:
        """The shard owning condensed vertex ``v``."""
        return self.owner_of[v]

    def shard_sizes(self) -> list[int]:
        """Vertices per shard (load-balance observability)."""
        return [len(shard.owned) for shard in self.shards]

    def index_report(self) -> list[dict]:
        """Per-shard index budget outcome, JSON-safe."""
        return [
            {
                "shard": shard.shard_id,
                "vertices": len(shard.owned),
                "tier": shard.index_tier,
                "index_bytes": shard.index_bytes,
            }
            for shard in self.shards
        ]


def _budgeted_index(
    graph: DiGraph, budget_bytes: int | None
) -> tuple[ReachabilityIndex, str, int]:
    """The richest FELINE tier fitting ``budget_bytes`` (measured, not
    estimated); the cheapest tier is used even when it still exceeds the
    budget — a shard must always be able to answer."""
    last = None
    for tier in INDEX_TIERS:
        index = _build_tier_index(graph, tier)
        size = index.index_size_bytes()
        last = (index, tier, size)
        if budget_bytes is None or size <= budget_bytes:
            return last
    return last


def build_shard_plan(
    dag: DiGraph,
    num_shards: int,
    index_budget_bytes: int | None = None,
    observers: int = 0,
) -> ShardPlan:
    """Partition ``dag`` into ``num_shards`` X-rank slabs with indexes.

    With ``observers >= 1`` every per-shard index gets its own
    :class:`~repro.perf.ObserverLayer` (built on the shard's subgraph)
    attached *before* the workers fork, so the batched ``local_many``
    path inherits the observer pre-pass copy-on-write.

    Raises :class:`~repro.exceptions.ReproError` for ``num_shards < 1``;
    the shard count is clamped to the vertex count so no shard is empty
    (except on the empty graph, which keeps one trivial shard).
    """
    if num_shards < 1:
        raise ReproError(f"num_shards must be >= 1, got {num_shards}")
    n = dag.num_vertices
    coords = build_feline_index(dag)
    effective = min(num_shards, n) if n else 1

    per_shard = max(1, -(-n // effective))  # ceil division
    owner_of = array("l", [0] * n)
    by_shard: list[list[int]] = [[] for _ in range(effective)]
    x = coords.x
    for v in range(n):
        shard = min(x[v] // per_shard, effective - 1)
        owner_of[v] = shard
        by_shard[shard].append(v)

    backbone = extract_backbone(dag)
    backbone_index = FelineIndex(backbone.graph).build()
    backbone_id = backbone.backbone_id

    shards: list[ShardState] = []
    for shard_id in range(effective):
        owned = by_shard[shard_id]
        sub = induced_subgraph(dag, owned, name=f"shard{shard_id}")
        index, tier, size = _budgeted_index(sub.graph, index_budget_bytes)
        if observers:
            from repro.perf.observers import build_observers

            index.attach_observers(build_observers(sub.graph, k=observers))
            size += index.observers.memory_bytes()
        state = ShardState(
            shard_id=shard_id,
            owned=owned,
            sub=sub,
            index=index,
            index_tier=tier,
            index_bytes=size,
        )
        for u in owned:
            succ = dag.successors(u)
            out = [backbone_id[u]] if backbone_id[u] != -1 else []
            out.extend(backbone_id[w] for w in succ if backbone_id[w] != -1)
            state.out_gateways[u] = tuple(out)
            state.out_neighbors[u] = frozenset(succ)
            inn = [backbone_id[u]] if backbone_id[u] != -1 else []
            inn.extend(
                backbone_id[w]
                for w in dag.predecessors(u)
                if backbone_id[w] != -1
            )
            state.in_gateways[u] = tuple(inn)
        shards.append(state)

    return ShardPlan(
        dag=dag,
        coords=coords,
        cuts=RankCuts(feline_rows(coords)),
        owner_of=owner_of,
        shards=shards,
        backbone=backbone,
        backbone_index=backbone_index,
    )
