"""The fault-injection harness: every injected fault is detected or
survived — never a silent wrong answer."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.core.query import FelineIndex
from repro.exceptions import WorkerError
from repro.graph.generators import random_dag
from repro.resilience import UNKNOWN, RetryPolicy, chaos
from repro.resilience.chaos import InjectedFault, injected
from repro.shard import ShardConfig, ShardService
from tests.conftest import reachability_oracle


@pytest.fixture(autouse=True)
def _clean_hooks():
    chaos.clear()
    yield
    chaos.clear()


class TestHookPoints:
    def test_fire_without_hooks_is_noop(self):
        chaos.fire("nonexistent.point", anything=1)

    def test_injected_context_manager(self):
        with injected("some.point"):
            assert chaos.active_hooks() == ["some.point"]
            with pytest.raises(InjectedFault) as excinfo:
                chaos.fire("some.point")
            assert excinfo.value.point == "some.point"
        assert chaos.active_hooks() == []

    def test_custom_hook_receives_context(self):
        seen = {}
        chaos.install("p", lambda **ctx: seen.update(ctx))
        chaos.fire("p", a=1, b="x")
        assert seen == {"a": 1, "b": "x"}
        chaos.uninstall("p")

    def test_build_hook_point(self, paper_dag):
        with injected("index.build.start"):
            with pytest.raises(InjectedFault):
                FelineIndex(paper_dag).build()
        # After the fault, a clean build still works.
        assert FelineIndex(paper_dag).build().query(0, 4) is True

    def test_persistence_hook_points(self, paper_dag, tmp_path):
        from repro.core.persistence import load_coordinates, save_coordinates

        index = FelineIndex(paper_dag).build()
        target = tmp_path / "idx.feline"
        with injected("persistence.save"):
            with pytest.raises(InjectedFault):
                save_coordinates(index.coordinates, target)
        save_coordinates(index.coordinates, target)
        with injected("persistence.load.section"):
            with pytest.raises(InjectedFault):
                load_coordinates(target)


class TestCorruptors:
    def test_corrupt_is_pure(self, paper_dag):
        index = FelineIndex(paper_dag).build()
        before = list(index.coordinates.x)
        chaos.corrupt_coordinates(index.coordinates, seed=0)
        assert list(index.coordinates.x) == before

    def test_corrupt_is_deterministic(self, paper_dag):
        index = FelineIndex(paper_dag).build()
        a = chaos.corrupt_coordinates(index.coordinates, seed=5)
        b = chaos.corrupt_coordinates(index.coordinates, seed=5)
        assert list(a.x) == list(b.x) and list(a.y) == list(b.y)

    def test_flip_bytes_deterministic(self, tmp_path):
        f1 = tmp_path / "a.bin"
        f2 = tmp_path / "b.bin"
        f1.write_bytes(bytes(range(256)))
        f2.write_bytes(bytes(range(256)))
        assert chaos.flip_bytes(f1, seed=3) == chaos.flip_bytes(f2, seed=3)
        assert f1.read_bytes() == f2.read_bytes()

    def test_truncate_file(self, tmp_path):
        f = tmp_path / "t.bin"
        f.write_bytes(b"0123456789")
        chaos.truncate_file(f, 4)
        assert f.read_bytes() == b"0123"


class TestRetryPolicy:
    def test_retries_transient_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise WorkerError("boom", transient=True)
            return "ok"

        policy = RetryPolicy(max_attempts=3, seed=1)
        assert policy.call(flaky) == "ok"
        assert policy.retries == 2
        assert policy.total_delay_s >= 0.0

    def test_non_transient_fails_fast(self):
        def fatal():
            raise WorkerError("dead", transient=False)

        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(WorkerError):
            policy.call(fatal)
        assert policy.retries == 0

    def test_exhausted_retries_propagate(self):
        def always():
            raise WorkerError("still down", transient=True)

        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(WorkerError):
            policy.call(always)
        assert policy.retries == 1

    def test_backoff_is_seeded(self):
        a = RetryPolicy(seed=9)
        b = RetryPolicy(seed=9)
        assert [a.backoff(i) for i in range(3)] == [
            b.backoff(i) for i in range(3)
        ]

    def test_backoff_respects_ceiling(self):
        policy = RetryPolicy(
            base_delay_s=0.5, multiplier=10.0, max_delay_s=1.0, seed=2
        )
        for i in range(6):
            assert policy.backoff(i) <= 1.0

    def test_recorded_sleep(self):
        slept = []
        policy = RetryPolicy(seed=0, sleep=slept.append)
        delay = policy.backoff(0)
        assert slept == [delay]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shard workers need the fork start method",
)
class TestClusterFaults:
    """Worker faults on the shard service.  A hook installed before the
    service starts fires inside every forked worker; workers restarted
    after it is uninstalled run clean.  A fork-shared counter lets a
    hook count or clear across worker processes."""

    GRAPH = random_dag(200, avg_degree=2.0, seed=7)
    PAIRS = [(u, v) for u in range(0, 200, 13) for v in range(0, 200, 17)]

    def run(self, hook, keep_hook=False, **config):
        """Answers and stats of ``PAIRS`` on a 4-shard service whose
        first workers fire ``hook`` on every request (restarted ones
        too with ``keep_hook``)."""
        config = ShardConfig(num_shards=4, supervise=False, **config)
        with injected("shard.worker.request", hook):
            service = ShardService(self.GRAPH, config)
            if not keep_hook:
                chaos.uninstall("shard.worker.request")
            with service:
                answers = [service.reachable(u, v) for u, v in self.PAIRS]
        return answers, service.stats

    def expected(self):
        oracle = reachability_oracle(self.GRAPH)
        return [oracle(u, v) for u, v in self.PAIRS]

    @staticmethod
    def counter(start=0):
        return multiprocessing.get_context("fork").Value("i", start)

    @staticmethod
    def bump(counter, by=1) -> int:
        with counter.get_lock():
            counter.value += by
            return counter.value

    def test_flaky_worker_survived(self):
        def fail(**ctx):
            raise WorkerError("chaos dispatch", shard_id=ctx["shard_id"])

        # Every first-generation worker fails; failover re-forks clean ones.
        answers, stats = self.run(fail)
        assert answers == self.expected()
        assert stats.rpc_failures > 0
        assert stats.failovers == stats.rpc_failures
        assert stats.degraded_fallback == stats.degraded_unknown == 0

    def test_worker_outage_surfaces_not_silences(self):
        def fail(**ctx):
            raise WorkerError("chaos dispatch", shard_id=ctx["shard_id"])

        # More failures than the retry budget on every worker: shard-bound
        # queries must surface as UNKNOWN, never as a wrong boolean.
        answers, stats = self.run(
            fail, keep_hook=True, max_attempts=2, on_shard_loss="unknown"
        )
        assert UNKNOWN in answers
        for answer, truth in zip(answers, self.expected()):
            assert answer is UNKNOWN or answer == truth
        assert stats.degraded_unknown == answers.count(UNKNOWN)

    def test_slow_worker_accumulates_delay(self):
        delayed = self.counter()

        def slow(**ctx):
            self.bump(delayed)
            time.sleep(0.002)

        start = time.monotonic()
        answers, _ = self.run(slow, keep_hook=True)
        assert answers == self.expected()
        assert delayed.value > 0
        assert time.monotonic() - start >= 0.002 * delayed.value

    def test_expand_hook_fires(self):
        fired = self.counter()
        answers, stats = self.run(
            lambda **ctx: self.bump(fired), keep_hook=True
        )
        assert answers == self.expected()
        assert fired.value >= stats.local_queries + stats.cross_queries > 0

    def test_injected_transient_fault_at_dispatch_is_retried(self):
        left = self.counter(2)

        def hook(**ctx):
            if self.bump(left, -1) >= 0:
                raise WorkerError(
                    "chaos dispatch", shard_id=ctx["shard_id"], transient=True
                )

        # The fault outlives one restart but clears within max_attempts=3:
        # one query is retried twice and answered exactly, undegraded.
        answers, stats = self.run(hook, keep_hook=True, max_attempts=3)
        assert answers == self.expected()
        assert stats.rpc_failures == 2
        assert stats.failovers == 1
        assert stats.degraded_fallback == stats.degraded_unknown == 0
