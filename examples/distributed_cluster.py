"""Scenario: FELINE served by a multi-process shard cluster.

The paper's conclusion announces a distributed FELINE; `repro.shard`
runs one: the drawing is cut into X-rank slabs, each served by a forked
worker process with its own FELINE index over its slab, while the
coordinator keeps the global coordinates.  A query the coordinator's
cuts cannot answer goes to one shard when both endpoints share a slab,
and through the SCARAB backbone's gateways when they do not — the
negative cut never communicates at all.

Run with::

    python examples/distributed_cluster.py
"""

from time import perf_counter

from repro import Reachability
from repro.datasets.queries import mixed_workload
from repro.graph.generators import citation_dag
from repro.shard import ShardConfig, ShardService

graph = citation_dag(8000, avg_out_degree=4.0, seed=7)
workload = mixed_workload(graph, 5000, positive_fraction=0.3, seed=1)
reference = Reachability(graph).reachable_many(workload.pairs)
print(f"graph: {graph!r}, workload: {len(workload)} queries "
      f"(~30% positive)\n")

print(f"{'shards':>6}  {'cut':>6}  {'local':>6}  {'cross':>6}  "
      f"{'µs/query':>8}  {'positives':>9}")
for shards in (1, 2, 4, 8):
    with ShardService(graph, ShardConfig(num_shards=shards)) as service:
        start = perf_counter()
        answers = service.reachable_many(workload.pairs)
        elapsed = perf_counter() - start
    assert answers == reference  # sharding never changes answers
    stats = service.stats
    local = stats.local_queries / stats.queries
    cross = stats.cross_queries / stats.queries
    print(f"{shards:>6}  {1 - local - cross:>6.0%}  {local:>6.0%}  "
          f"{cross:>6.0%}  {elapsed / len(answers) * 1e6:>8.1f}  "
          f"{sum(answers):>9}")

print("\nReading the table:")
print(" * answers are identical at every shard count and equal to the")
print("   single-process oracle (asserted above);")
print(" * the coordinator's cuts answer the same share at every shard")
print("   count, from the replicated coordinates alone;")
print(" * one shard never routes across shards; with more shards more")
print("   pairs straddle a slab boundary and pay the gateway RPCs — the")
print("   communication a production partitioning strategy would minimise.")
