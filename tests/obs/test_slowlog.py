"""Unit tests for the bounded slow-query log (threshold + reservoir)."""

import random
import time
from collections import Counter

import pytest

from repro.baselines.base import create_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import new_trace_id, tracing_enabled
from repro.perf.observers import build_observers
from repro.resilience import UNKNOWN, QueryBudget


class TestThresholdMode:
    def test_fast_queries_dropped(self):
        log = SlowQueryLog(threshold_ns=1000)
        assert log.record(0, 1, True, 999, "feline") is None
        rec = log.record(0, 2, False, 1000, "feline")
        assert rec is not None and rec.elapsed_ns == 1000
        assert len(log) == 1
        assert log.observed == 2

    def test_ring_buffer_evicts_oldest(self):
        log = SlowQueryLog(capacity=3, threshold_ns=0)
        for i in range(5):
            log.record(i, i + 1, True, 100 + i, "feline")
        assert [r.u for r in log.records()] == [2, 3, 4]
        assert log.observed == 5

    def test_slowest_sorts_descending(self):
        log = SlowQueryLog(threshold_ns=0)
        for i, ns in enumerate([50, 900, 200]):
            log.record(i, i, True, ns, "feline")
        assert [r.elapsed_ns for r in log.slowest(2)] == [900, 200]

    def test_clear_keeps_observed(self):
        log = SlowQueryLog(threshold_ns=0)
        log.record(0, 1, True, 10, "feline")
        log.clear()
        assert len(log) == 0
        assert log.observed == 1


class TestReservoirMode:
    def test_fills_then_stays_bounded(self):
        log = SlowQueryLog(capacity=10, mode="reservoir", seed=7)
        for i in range(1000):
            log.record(i, i, False, i, "feline")
        assert len(log) == 10
        assert log.observed == 1000
        # A uniform sample over [0, 1000) is overwhelmingly unlikely to
        # be the first ten offers.
        assert any(r.seq > 10 for r in log.records())

    def test_deterministic_under_seed(self):
        def sample(seed):
            log = SlowQueryLog(capacity=5, mode="reservoir", seed=seed)
            for i in range(200):
                log.record(i, i, True, i, "m")
            return [r.seq for r in log.records()]

        assert sample(3) == sample(3)

    def test_threshold_ignored_in_reservoir(self):
        log = SlowQueryLog(
            capacity=4, mode="reservoir", threshold_ns=10**9
        )
        log.record(0, 1, True, 1, "m")
        assert len(log) == 1


class TestValidationAndRecords:
    def test_rejects_bad_mode_and_capacity(self):
        with pytest.raises(ValueError):
            SlowQueryLog(mode="nope")
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_record_dict_is_json_ready(self):
        log = SlowQueryLog(threshold_ns=0)
        log.record(3, 4, UNKNOWN, 1500, "feline", cut="search")
        (payload,) = log.as_dicts()
        assert payload["verdict"] == "UNKNOWN"
        assert payload["elapsed_us"] == 1.5
        assert payload["cut"] == "search"


class TestIndexIntegration:
    def _graph(self):
        return DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])

    def test_scalar_queries_are_offered(self):
        index = create_index("feline", self._graph()).build()
        log = index.attach_slow_log(SlowQueryLog(threshold_ns=0))
        index.query(0, 3)
        index.query(3, 0)
        assert log.observed == 2
        verdicts = {(r.u, r.v): r.verdict for r in log.records()}
        assert verdicts == {(0, 3): True, (3, 0): False}

    def test_batches_logged_per_pair(self):
        index = create_index("feline", self._graph()).build()
        log = index.attach_slow_log(SlowQueryLog(threshold_ns=0))
        index.query_many([(0, 1), (0, 2), (1, 3)])
        assert log.observed == 3

    def test_scalar_loop_offers_reflexive_and_observer_decided_pairs(self):
        g = random_dag(200, avg_degree=2.5, seed=11)
        index = create_index("feline", g).build()
        index.attach_observers(build_observers(g, k=4))
        log = index.attach_slow_log(SlowQueryLog(threshold_ns=0))
        rng = random.Random(12)
        pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(300)]
        pairs.append((3, 3))
        for u, v in pairs:
            index.query(u, v)
        stats = index.stats
        assert stats.equal_cuts and stats.observer_negative
        assert log.observed == len(pairs)

    def test_detach_restores_fast_path(self):
        index = create_index("feline", self._graph()).build()
        index.attach_slow_log(SlowQueryLog(threshold_ns=0))
        index.attach_slow_log(None)
        assert index._hot_obs is None
        index.query(0, 3)
        assert index.slow_log is None


class TestBatchOnTheEngine:
    """A slow-logged ``query_many`` keeps the vectorized cut pass: each
    survivor search is timed and offered on its own, each cut-decided
    pair with its share of the cut pass."""

    SLOW_NS = 2_000_000

    def _index(self, log):
        g = random_dag(60, avg_degree=2.5, seed=3)
        index = create_index("feline", g).build()
        index.attach_slow_log(log)
        return g, index

    def _pairs(self, n):
        rng = random.Random(5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(150)]
        return pairs + pairs[:40] + [(3, 3)]

    def _slow_searches(self, index):
        """Make every survivor search take at least ``SLOW_NS``."""
        inner = index._search_pair
        searched = []

        def slow_search(u, v):
            searched.append((u, v))
            time.sleep(self.SLOW_NS * 1e-9)
            return inner(u, v)

        index._search_pair = slow_search
        return searched

    def test_threshold_mode_records_every_slow_survivor(self):
        log = SlowQueryLog(capacity=1024, threshold_ns=self.SLOW_NS)
        g, index = self._index(log)
        searched = self._slow_searches(index)
        pairs = self._pairs(g.num_vertices)
        answers = index.query_many(pairs)
        assert searched, "the workload needs survivor searches"
        searched = set(searched)
        survivors = Counter(pair for pair in pairs if pair in searched)
        recorded = Counter((r.u, r.v) for r in log.records())
        assert recorded == survivors
        truth = dict(zip(pairs, answers))
        for record in log.records():
            assert record.verdict is truth[(record.u, record.v)]
            assert record.elapsed_ns >= self.SLOW_NS
        assert log.observed == len(pairs)

    def test_budgeted_batch_offers_every_pair(self):
        log = SlowQueryLog(capacity=1024, threshold_ns=0)
        g, index = self._index(log)
        pairs = self._pairs(g.num_vertices)
        answers = index.query_many(
            pairs, budget=QueryBudget(max_steps=1, policy="unknown")
        )
        assert UNKNOWN in answers
        assert log.observed == len(pairs)
        assert Counter((r.u, r.v, r.verdict) for r in log.records()) == (
            Counter((u, v, a) for (u, v), a in zip(pairs, answers))
        )

    def test_reservoir_mode_samples_cut_decided_pairs(self):
        log = SlowQueryLog(capacity=1024, mode="reservoir")
        g, index = self._index(log)
        searched = self._slow_searches(index)
        pairs = self._pairs(g.num_vertices)
        index.query_many(pairs)
        assert log.observed == len(pairs)
        decided = {(r.u, r.v) for r in log.records()} - set(searched)
        assert (3, 3) in decided
        assert len(decided) > 1

    def test_tracer_yields_one_batch_span_whose_trace_id_lands(self):
        with tracing_enabled() as tracer:
            log = SlowQueryLog(capacity=1024, threshold_ns=0)
            g, index = self._index(log)
            pairs = self._pairs(g.num_vertices)
            trace_id = new_trace_id()
            with tracer.span("request", trace_id=trace_id):
                index.query_many(pairs)
            batch = [s for s in tracer.spans() if s.name == "query_many"]
            assert len(batch) == 1
            assert batch[0].trace_id == trace_id
            assert not [s for s in tracer.spans() if s.name == "query"]
        assert log.observed == len(pairs)
        assert {r.trace_id for r in log.records()} == {trace_id}
