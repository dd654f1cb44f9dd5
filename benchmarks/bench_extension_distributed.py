"""EXT2 — Extension benchmark: distributed FELINE on the shard service.

The conclusion's announced distributed FELINE as :mod:`repro.shard`
deploys it (DESIGN.md S27): the DAG is cut into X-rank slabs, each
served by a forked worker process with its own FELINE index; the
coordinator keeps the global coordinates for O(1) cuts and routes
cross-shard pairs through the SCARAB backbone.  The report shows where
each query is answered — by a coordinator cut, inside one shard, or
across shards — and what it costs in RPCs and wall time, per query
through scalar ``reachable`` and per batch through ``reachable_many``.
"""

from time import perf_counter

import pytest

from repro import Reachability
from repro.bench.reporting import format_table
from repro.bench.runner import ExperimentReport
from repro.datasets.queries import mixed_workload
from repro.graph.generators import random_dag
from repro.obs.metrics import metrics_enabled
from repro.shard import ShardConfig, ShardService

from conftest import save_report, scaled

N = max(64, round(scaled(4000)))
SHARD_COUNTS = [1, 2, 4, 8]


@pytest.fixture(scope="module")
def graph():
    return random_dag(N, avg_degree=3.0, seed=1)


@pytest.fixture(scope="module")
def workload(graph):
    return mixed_workload(graph, 3000, positive_fraction=0.3, seed=2)


@pytest.fixture(scope="module")
def services(graph):
    """One service per shard count, closed at teardown."""
    opened = {}
    try:
        for shards in SHARD_COUNTS:
            opened[shards] = ShardService(graph, ShardConfig(num_shards=shards))
        yield opened
    finally:
        for service in opened.values():
            service.close()


def _measured(service, run):
    """``run()``'s answers, wall µs, RPCs and coordinator stat deltas."""
    before = service.stats.as_dict()
    with metrics_enabled() as registry:
        start = perf_counter()
        answers = run()
        elapsed_us = (perf_counter() - start) * 1e6
    rpcs = sum(
        counter.value
        for counter in registry.instruments()
        if counter.name == "repro_shard_rpc_total"
        and counter.labels.get("outcome") == "ok"
    )
    after = service.stats.as_dict()
    deltas = {
        key: after[key] - before[key]
        for key in ("queries", "local_queries", "cross_queries")
    }
    return answers, elapsed_us, rpcs, deltas


@pytest.fixture(scope="module")
def measured(services, workload):
    """Per shard count: the workload once scalar, once as one batch."""
    pairs = workload.pairs
    runs = {}
    for shards, service in services.items():
        runs[shards] = {
            "scalar": _measured(
                service, lambda: [service.reachable(u, v) for u, v in pairs]
            ),
            "batch": _measured(service, lambda: service.reachable_many(pairs)),
        }
    return runs


@pytest.fixture(scope="module")
def report(measured, workload):
    queries = len(workload)
    rows = []
    data = {}
    for shards, run in measured.items():
        _, scalar_us, scalar_rpcs, counts = run["scalar"]
        _, batch_us, batch_rpcs, _ = run["batch"]
        local = counts["local_queries"] / queries
        cross = counts["cross_queries"] / queries
        rows.append([
            shards,
            round(1.0 - local - cross, 3),
            round(local, 3),
            round(cross, 3),
            round(scalar_rpcs / queries, 3),
            round(batch_rpcs / queries, 3),
            round(scalar_us / queries, 1),
            round(batch_us / queries, 1),
        ])
        data[shards] = {"local": local, "cross": cross}
    result = ExperimentReport(
        experiment_id="EXT-distributed",
        title=f"Distributed FELINE on the shard service, {N}-vertex DAG, "
              f"{queries} queries",
        text=format_table(
            ["shards", "coordinator cut", "local", "cross-shard",
             "RPCs/query scalar", "RPCs/query batch",
             "µs/query scalar", "µs/query batch"],
            rows,
        ),
        data=data,
    )
    save_report(result)
    return result


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_query_batch(benchmark, services, workload, shards):
    answers = benchmark(services[shards].reachable_many, workload.pairs)
    assert len(answers) == len(workload.pairs)


def test_shape_one_shard_never_crosses(report):
    assert report.data[1]["cross"] == 0


def test_shape_cross_share_grows_with_shards(report):
    """More slabs, more pairs whose endpoints fall in different ones."""
    shares = [report.data[shards]["cross"] for shards in SHARD_COUNTS]
    assert shares == sorted(shares)
    assert shares[-1] > 0


def test_shape_answers_independent_of_sharding(measured, graph, workload):
    reference = Reachability(graph).reachable_many(workload.pairs)
    for shards, run in measured.items():
        for mode in ("scalar", "batch"):
            assert run[mode][0] == reference, (shards, mode)
