"""Batch workloads: the library facade answering pair batches in process.

``batch-cut`` runs on the go-uniprot stand-in, where the O(1) cuts decide
almost every pair, so the facade, the engine and the cut table carry the
time.  ``batch-search`` runs on the cit-patents stand-in with 16
observers, where the survivor search in the kernels carries it.
"""

from __future__ import annotations

import gc
import statistics
import time
from array import array

import numpy as np

from common import (
    CALLS,
    WALK,
    WORK,
    Oracle,
    Result,
    WrongAnswer,
    calibrate,
    interleaved_windows,
    make_graph_file,
    make_pairs,
    peak_rss_mb,
    percentile,
    pin_to_one_cpu,
    reset_peak_rss,
    speed_factor,
)
from layers import zero_layers
from tracing import Spans

# workload -> (stand-in, scale, observers k, oracle-checked pairs)
WORKLOADS = {
    "batch-cut": ("go-uniprot", 0.01, 0, 4096),
    "batch-search": ("cit-patents", 0.02, 16, 512),
}
# The calibration chunk the scalar calls are rescaled by.  On batch-cut
# a call is a few microseconds of nested Python calls, which track the
# call chunk (over 2.4 s stretches of a loaded box: 2% spread against 8%
# with the table walk); on batch-search the tail is survivor searches
# over numpy arrays, which track the table walk (8% against 9%).
SCALAR_CALIBRATION = {"batch-cut": CALLS, "batch-search": WALK}
BATCH = 1000          # pairs per reachable_many call
NUM_BATCHES = 64      # distinct batches cycled through
# A run measures GRAPHS graphs made from its seed, one after the other,
# and reports the mean of their figures (setup_s and mem_mb: the median).
# Graphs from one stand-in differ: on batch-search one seed's graph ran
# 10% slower than another's, and its p99 was 20% higher, run after run.
GRAPHS = 3
BUDGET_STEPS = 10_000  # QueryBudget(max_steps=...) of the budgeted calls
SCALAR_CHUNK = 64     # scalar calls timed per step
# Distinct pairs per graph the scalar calls cycle through.  The p99 of a
# heavy tail needs many: on batch-search the p99 of the vertices one
# query expands, over the first 4096 pairs of each of twelve graphs,
# spread 42% between graphs; over 16384 pairs, 12.5%.
SCALAR_PAIRS = 16384
WINDOW_S = 0.2


def prepare(workload: str, seed: int, tiny: bool = False) -> list[tuple]:
    """Write the workload's graph and pair files; return their paths,
    ``(graph, pairs, scalar pairs)`` for each of the ``GRAPHS`` graphs."""
    name, scale, _, _ = WORKLOADS[workload]
    if tiny:
        scale = scale / 50
    out = []
    for graph_seed in range(GRAPHS * seed, GRAPHS * seed + GRAPHS):
        graph_path, num_vertices = make_graph_file(name, scale, graph_seed, workload)
        pairs_path = WORK / f"{workload}-{graph_seed}.pairs.npy"
        np.save(pairs_path, make_pairs(num_vertices, BATCH * NUM_BATCHES, graph_seed))
        scalar_path = WORK / f"{workload}-{graph_seed}.scalar.npy"
        np.save(scalar_path,
                make_pairs(num_vertices, SCALAR_PAIRS, graph_seed + 1_000_003))
        out.append((graph_path, pairs_path, scalar_path))
    return out


def _load_batches(pairs_path) -> list[list[tuple[int, int]]]:
    """The pair file cut into ``BATCH``-pair lists of tuples."""
    pairs = np.load(pairs_path).tolist()
    return [
        [tuple(p) for p in pairs[i:i + BATCH]]
        for i in range(0, len(pairs), BATCH)
    ]


def _setup(repro, graph_path, k: int):
    """Edge-list file to a ready facade; returns (facade, rescaled s)."""
    from repro.graph.io import read_edge_list

    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    graph = read_edge_list(graph_path)
    reach = repro.Reachability(graph, observers=k)
    elapsed = time.perf_counter() - start
    return reach, elapsed / speed_factor((before + calibrate()) / 2)


def _check_oracle(reach, batches, refs, sample: int) -> int:
    """Compare reference answers with a BFS oracle; returns pairs checked."""
    oracle = Oracle(reach.graph)
    checked = 0
    for batch, ref in zip(batches, refs):
        for (u, v), answer in zip(batch, ref):
            if checked >= sample:
                return checked
            if answer is not oracle.reachable(u, v):
                raise WrongAnswer(f"r({u}, {v}) answered {answer}")
            checked += 1
    return checked


class _Tally:
    """Attempted and wrong answers across every timed phase."""

    def __init__(self, refs) -> None:
        self.refs = refs
        self.attempted = 0
        self.wrong = 0
        self.unknown = 0

    def check(self, b: int, answers, budgeted: bool = False) -> None:
        ref = self.refs[b]
        self.attempted += len(ref)
        if answers == ref:
            return
        for got, want in zip(answers, ref):
            if got is want:
                continue
            if budgeted and not isinstance(got, bool):
                self.unknown += 1
                continue
            self.wrong += 1
        if self.wrong:
            raise WrongAnswer(f"batch {b}: {self.wrong} wrong answers")


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> Result:
    from common import import_repro

    repro = import_repro()
    _, _, k, sample = WORKLOADS[workload]
    inputs = prepare(workload, seed, tiny)
    if trace:
        graph_path, pairs_path, _ = inputs[0]
        return _run_traced(repro, workload, graph_path,
                           _load_batches(pairs_path), k, seconds)

    result = Result()
    pin_to_one_cpu()
    runs = [
        _measure(repro, workload, paths, k, sample // GRAPHS, seconds / GRAPHS)
        for paths in inputs
    ]
    result.put("setup_s", statistics.median(r["setup_s"] for r in runs), "s")
    result.put("mem_mb", statistics.median(r["mem_mb"] for r in runs), "MiB")
    for name, unit in (("pairs_per_s", "pairs/s"), ("budgeted_pairs_per_s", "pairs/s"),
                       ("req_p50_us", "us"), ("req_p99_us", "us")):
        result.put(name, statistics.fmean(r[name] for r in runs), unit)
    result.attempted = sum(r["tally"].attempted for r in runs)
    result.failed = sum(r["tally"].wrong for r in runs)
    result.put("ok_share", 1.0 - result.failed / result.attempted, "ratio")
    result.env = {
        "workload": workload,
        "observers": k,
        "budget_unknowns": sum(r["tally"].unknown for r in runs),
        "graphs": [r["env"] for r in runs],
    }
    return result


def _measure(repro, workload, paths, k: int, sample: int, seconds: float) -> dict:
    """Set up one graph, then time its three phases for ``seconds``."""
    graph_path, pairs_path, scalar_path = paths
    gc.collect()
    reset_peak_rss()
    reach, setup_s = _setup(repro, graph_path, k)
    mem_mb = peak_rss_mb()  # over the set-up, before any sample is kept

    batches = _load_batches(pairs_path)
    scalar_batches = _load_batches(scalar_path)
    refs = [reach.reachable_many(batch) for batch in batches + scalar_batches]
    checked = _check_oracle(reach, batches, refs, sample)
    checked += _check_oracle(reach, scalar_batches, refs[len(batches):], sample // 4)
    tally = _Tally(refs)
    budget = repro.QueryBudget(max_steps=BUDGET_STEPS, policy="unknown")
    cursor = [0]

    def batch_step(budgeted: bool):
        def step():
            b = cursor[0] % len(batches)
            cursor[0] += 1
            answers = reach.reachable_many(
                batches[b], budget=budget if budgeted else None
            )
            tally.check(b, answers, budgeted)
            return len(answers)

        return step

    # Scalar calls cycle through a fixed pair list; each pair's latency is
    # the median of its rescaled timings, so one-off stalls drop out.
    flat = [(p, len(batches) + b, i) for b, batch in enumerate(scalar_batches)
            for i, p in enumerate(batch)]
    slots, samples = array("l"), array("d")
    pending_slots, pending_ns = array("l"), array("q")
    scalar_pos = [0]

    def scalar_step():
        start_at = scalar_pos[0]
        perf = time.perf_counter_ns
        reachable = reach.reachable
        refs_ = tally.refs
        for j in range(start_at, start_at + SCALAR_CHUNK):
            slot = j % len(flat)
            (u, v), b, i = flat[slot]
            t0 = perf()
            answer = reachable(u, v)
            pending_ns.append(perf() - t0)
            pending_slots.append(slot)
            if answer is not refs_[b][i]:
                tally.wrong += 1
                raise WrongAnswer(f"r({u}, {v}) answered {answer}")
        tally.attempted += SCALAR_CHUNK
        scalar_pos[0] = start_at + SCALAR_CHUNK
        return SCALAR_CHUNK

    def scalar_window(factor: float) -> None:
        samples.extend(ns / factor for ns in pending_ns)
        slots.extend(pending_slots)
        del pending_ns[:], pending_slots[:]

    # The benchmark's own long-lived objects stay out of the collector's
    # way while the program runs.
    gc.collect()
    gc.freeze()
    windows = interleaved_windows(
        {
            "plain": (batch_step(False), None, WALK),
            "budgeted": (batch_step(True), None, WALK),
            "scalar": (
                scalar_step, scalar_window, SCALAR_CALIBRATION[workload]
            ),
        },
        seconds,
        WINDOW_S,
    )
    gc.unfreeze()
    plain, budgeted = windows["plain"], windows["budgeted"]
    scalar = per_pair_medians(np.asarray(slots), np.asarray(samples))
    calib = plain.calib_ms + budgeted.calib_ms  # table walk
    env = {
        "graph": f"{reach.graph.num_vertices}v/{reach.graph.num_edges}e",
        "oracle_checked": checked,
        "setup_s_rescaled": setup_s,
        "calib_ms": statistics.median(calib),
        "calib_ms_min_max": [min(calib), max(calib)],
        "calib_scalar_ms": statistics.median(windows["scalar"].calib_ms),
        "calib_scalar_chunk": SCALAR_CALIBRATION[workload][0].__name__,
        "windows": len(plain.values) + len(budgeted.values),
        "raw_pairs_per_s": statistics.median(plain.raw),
        "raw_budgeted_pairs_per_s": statistics.median(budgeted.raw),
        "scalar_pairs": len(scalar),
        "scalar_passes": scalar_pos[0] / len(flat),
        "shared_pages": reach.shared_pages is not None,
    }
    reach.close()
    return {
        "setup_s": setup_s,
        "mem_mb": mem_mb,
        "pairs_per_s": plain.median(),
        "budgeted_pairs_per_s": budgeted.median(),
        "req_p50_us": percentile(scalar, 50) / 1e3,
        "req_p99_us": percentile(scalar, 99) / 1e3,
        "tally": tally,
        "env": env,
    }


def per_pair_medians(slots: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """The (lower) median sample of every slot that has samples."""
    order = np.lexsort((samples, slots))
    slots, samples = slots[order], samples[order]
    _, starts, counts = np.unique(slots, return_index=True, return_counts=True)
    return samples[starts + (counts - 1) // 2]


# -- traced run ------------------------------------------------------------
def _timed(fn):
    """(result, rescaled seconds) of one call."""
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    return out, elapsed / speed_factor((before + calibrate()) / 2)


def _run_traced(repro, workload, graph_path, batches, k, seconds) -> Result:
    import repro.baselines.base as base_mod
    import repro.perf.engine as engine_mod
    from repro.baselines import create_index
    from repro.graph.io import read_edge_list
    from repro.graph.scc import condense
    from repro.perf.observers import build_observers

    result = Result()
    zero_layers(result)

    # Set-up, one layer at a time.
    graph, load_s = _timed(lambda: read_edge_list(graph_path))
    cond, condense_s = _timed(lambda: condense(graph))
    index, build_s = _timed(lambda: create_index("feline", cond.dag).build())
    result.put("graph.load_s", load_s, "s")
    result.put("graph.condense_s", condense_s, "s")
    result.put("index.build_s", build_s, "s")
    result.put("index.bytes", index.index_size_bytes(), "bytes")
    if k:
        layer, obs_s = _timed(lambda: build_observers(cond.dag, k=k))
        result.put("observers.build_s", obs_s, "s")
        result.put("observers.bytes", layer.memory_bytes(), "bytes")
    del index
    reach = repro.Reachability(graph, observers=k)
    refs = [reach.reachable_many(batch) for batch in batches]
    tally = _Tally(refs)
    num_pairs = sum(len(b) for b in batches)

    # Deterministic counts from one pass over every batch.
    reach.stats.reset()
    survivors_seen = []
    original_search = engine_mod._search_survivors

    def capture(index, sources, targets, survivors, answers):
        survivors_seen.append(
            (sources[survivors].copy(), targets[survivors].copy())
        )
        return original_search(index, sources, targets, survivors, answers)

    engine_mod._search_survivors = capture
    try:
        for b, batch in enumerate(batches):
            tally.check(b, reach.reachable_many(batch))
    finally:
        engine_mod._search_survivors = original_search
    stats = reach.stats
    pass_searches = stats.searches
    sources = np.concatenate([s for s, _ in survivors_seen] or [np.empty(0, np.int64)])
    targets = np.concatenate([t for _, t in survivors_seen] or [np.empty(0, np.int64)])
    unique_pairs = {(int(u), int(v)) for u, v in zip(sources, targets)}
    searches = max(stats.searches, 1)
    result.put("cut.decided_share",
               (stats.negative_cuts + stats.positive_cuts) / stats.queries, "ratio")
    result.put("observers.decided_share",
               (stats.observer_positive + stats.observer_negative) / stats.queries,
               "ratio")
    result.put("search.survivor_share", stats.searches / stats.queries, "ratio")
    result.put("search.expanded_per_survivor", stats.expanded / searches, "count")
    result.put("engine.dedup_share",
               1.0 - len(unique_pairs) / searches if stats.searches else 0.0, "ratio")

    # The batch pipeline with a span around each layer's entry point,
    # alternating with untraced passes over the same batches.
    spans = Spans()
    index = reach.index

    def install() -> None:
        spans.patch(reach, "reachable_many", "facade")
        spans.patch(index, "query_many", "base")
        spans.patch(base_mod, "vectorized_query_many", "engine")
        if index._observers is not None:
            spans.patch(index._observers, "classify", "observers")
        spans.patch(index._cut_table, "classify", "cut")
        spans.patch(engine_mod, "_search_survivors", "search")

    # Each batch runs untraced and traced back to back, in alternating
    # order, so both see the same machine and the same cache state.
    passes = {"traced": 0, "untraced": 0}
    pairs_done = 0
    perf = time.perf_counter_ns
    deadline = time.perf_counter() + seconds / 3.0
    turn = 0
    while time.perf_counter() < deadline:
        for b, batch in enumerate(batches):
            turn += 1
            for traced in ((False, True) if turn % 2 else (True, False)):
                if traced:
                    install()
                try:
                    start = perf()
                    if traced:
                        with spans.span("bench.batch"):
                            answers = reach.reachable_many(batch)
                    else:
                        answers = reach.reachable_many(batch)
                    passes["traced" if traced else "untraced"] += perf() - start
                finally:
                    spans.unpatch()
                tally.check(b, answers)
            pairs_done += len(batch)
    self_ns, total_ns = spans.self_times()
    per_pair = {name: ns / pairs_done for name, ns in self_ns.items()}
    result.put("facade.map_ns_per_pair", per_pair.get("facade", 0.0), "ns")
    result.put("base.validate_ns_per_pair", per_pair.get("base", 0.0), "ns")
    result.put("engine.ns_per_pair", per_pair.get("engine", 0.0), "ns")
    result.put("observers.classify_ns_per_pair", per_pair.get("observers", 0.0), "ns")
    result.put("cut.classify_ns_per_pair", per_pair.get("cut", 0.0), "ns")
    traced_survivors = pass_searches * pairs_done / num_pairs
    result.put("search.ns_per_survivor",
               total_ns.get("search", 0) / max(traced_survivors, 1), "ns")
    layer_self = sum(ns for name, ns in self_ns.items() if name != "bench.batch")
    result.put("trace.coverage", layer_self / total_ns["bench.batch"], "ratio")
    result.put("trace.overhead", passes["traced"] / passes["untraced"] - 1.0,
               "ratio")
    spans.dump(WORK / f"spans-{workload}.jsonl")
    trace_spans = len(spans.records)

    # The engine's per-survivor search hook on each kernel tier, over the
    # distinct survivors.
    survivor_list = list(dict.fromkeys(zip(sources.tolist(), targets.tolist())))[:2000]
    tier_ns = {}
    for tier in ("python", "numpy", "python", "numpy"):  # best of two each
        reach.set_kernel(tier)
        _, secs = _timed(lambda: [index._search_pair(u, v) for u, v in survivor_list])
        ns = secs * 1e9 / max(len(survivor_list), 1)
        tier_ns[tier] = min(ns, tier_ns.get(tier, ns))
    reach.set_kernel(None)
    for tier, ns in tier_ns.items():
        result.put(f"kernels.{tier}_ns_per_survivor", ns, "ns")

    # Scalar facade call.
    flat = [p for batch in batches for p in batch][:20_000]
    _, secs = _timed(lambda: [reach.reachable(u, v) for u, v in flat])
    result.put("query.scalar_ns", secs * 1e9 / len(flat), "ns")

    # Budgeted batch route.
    budget = repro.QueryBudget(max_steps=BUDGET_STEPS, policy="unknown")
    reach.stats.reset()
    few = batches[: max(1, len(batches) // 4)]
    answers, secs = _timed(
        lambda: [reach.reachable_many(batch, budget=budget) for batch in few]
    )
    for b, got in enumerate(answers):
        tally.check(b, got, budgeted=True)
    few_pairs = sum(len(b) for b in few)
    result.put("budget.ns_per_pair", secs * 1e9 / few_pairs, "ns")
    result.put("budget.unknown_share", reach.stats.unknowns / few_pairs, "ratio")

    # Slow-log route (per-pair timing inside batches).
    reach.enable_slow_log(threshold_ms=1.0)
    answers, secs = _timed(lambda: [reach.reachable_many(batch) for batch in few])
    reach.index.attach_slow_log(None)
    for b, got in enumerate(answers):
        tally.check(b, got)
    result.put("slowlog.ns_per_pair", secs * 1e9 / few_pairs, "ns")

    # Survivor pool at two workers, where survivors fill a pool chunk.
    if k:
        pool_spans = Spans()
        pool_spans.patch(engine_mod, "_search_survivors", "search")
        reach.enable_search_pool(2)
        try:
            answers, _ = _timed(lambda: [reach.reachable_many(batch) for batch in few])
        finally:
            reach.close_search_pool()
            pool_spans.unpatch()
        for b, got in enumerate(answers):
            tally.check(b, got)
        _, total_ns = pool_spans.self_times()
        few_survivors = pass_searches * few_pairs / num_pairs
        result.put("pool.ns_per_survivor",
                   total_ns.get("search", 0) / max(few_survivors, 1), "ns")

    result.attempted = tally.attempted
    result.failed = tally.wrong
    result.env = {"workload": workload, "traced": True, "trace_spans": trace_spans}
    reach.close()
    return result
