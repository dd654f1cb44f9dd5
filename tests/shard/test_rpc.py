"""The RPC protocol under chaos: drops, duplicates, stale frames, timeouts."""

import multiprocessing
import threading

import pytest

from repro.exceptions import WorkerError
from repro.graph.generators import crown_graph, random_dag
from repro.resilience import chaos
from repro.shard import ShardConfig, ShardService, WorkerChannel, build_shard_plan
from repro.shard.worker import worker_main
from tests.conftest import reachability_oracle

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shard workers need the fork start method",
)


class _StubProcess:
    """A Process stand-in for channel tests served from a thread."""

    def __init__(self, alive=True, pid=12345):
        self._alive = alive
        self.pid = pid
        self.exitcode = None if alive else -9

    def is_alive(self):
        return self._alive


def make_channel():
    parent, peer = multiprocessing.get_context("fork").Pipe(duplex=True)
    return WorkerChannel(parent, _StubProcess(), shard_id=0), peer


def serve_frames(peer, frames):
    """Answer the next request on ``peer`` with the given raw frames;
    ``seq`` in a frame is replaced by the request's real sequence."""

    def run():
        seq, _op, _payload = peer.recv()
        for frame in frames:
            if isinstance(frame, tuple) and frame[0] == "seq":
                peer.send((seq,) + frame[1:])
            else:
                peer.send(frame)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestChannelProtocol:
    def test_garbage_and_stale_frames_are_discarded(self):
        channel, peer = make_channel()
        serve_frames(
            peer,
            [
                "not-a-frame",                 # garbage: wrong shape
                (999999999, "ok", "stale"),    # stale: wrong sequence
                ("seq", "ok", "the-answer"),   # the real response
            ],
        )
        assert channel.request("ping", None, timeout_s=5.0) == "the-answer"

    def test_duplicate_response_cannot_answer_the_next_request(self):
        channel, peer = make_channel()
        serve_frames(peer, [("seq", "ok", "first"), ("seq", "ok", "first")])
        assert channel.request("ping", None, timeout_s=5.0) == "first"
        # The duplicate of the first answer is still in the pipe; the
        # second request must discard it and wait for its own.
        serve_frames(peer, [("seq", "ok", "second")])
        assert channel.request("ping", None, timeout_s=5.0) == "second"

    def test_error_status_raises_transient_worker_error(self):
        channel, peer = make_channel()
        serve_frames(peer, [("seq", "error", "ValueError: boom")])
        with pytest.raises(WorkerError) as excinfo:
            channel.request("local_many", ([(0, 1)], None), timeout_s=5.0)
        assert excinfo.value.transient

    def test_timeout_raises_transient_worker_error(self):
        channel, _peer = make_channel()
        with pytest.raises(WorkerError) as excinfo:
            channel.request("ping", None, timeout_s=0.05)
        assert excinfo.value.transient
        assert "timed out" in str(excinfo.value)

    def test_dead_process_detected_while_waiting(self):
        channel, _peer = make_channel()
        channel.process._alive = False
        with pytest.raises(WorkerError) as excinfo:
            channel.request("ping", None, timeout_s=5.0)
        assert "died" in str(excinfo.value)

    def test_try_request_yields_none_when_busy(self):
        channel, _peer = make_channel()
        with channel.lock:
            assert channel.try_request("ping", None, timeout_s=0.01) is None

    def test_closed_channel_fails_fast(self):
        channel, _peer = make_channel()
        channel.close()
        channel.close()  # idempotent
        with pytest.raises(WorkerError):
            channel.request("ping", None, timeout_s=1.0)


class TestWorkerUnderChaos:
    """Chaos hooks installed *before* the fork are inherited by workers."""

    def spawn_worker(self, plan, shard_id=0):
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_main, args=(plan.shards[shard_id], child), daemon=True
        )
        process.start()
        child.close()
        return WorkerChannel(parent, process, shard_id)

    def test_dropped_response_recovers_on_retry(self):
        plan = build_shard_plan(random_dag(40, avg_degree=2.0, seed=1), 1)
        state = {"dropped": False}

        def drop_once(**context):
            if not state["dropped"]:
                state["dropped"] = True
                raise chaos.DropResponse("chaos: eaten")

        with chaos.injected("shard.worker.respond", drop_once):
            channel = self.spawn_worker(plan)
        try:
            # First RPC: the response is swallowed, the wait times out.
            with pytest.raises(WorkerError):
                channel.request("ping", None, timeout_s=0.3)
            # Same worker, same pipe: the retry simply works, and the
            # sequence numbers keep the two requests unconfusable.
            assert channel.request("ping", None, timeout_s=5.0) == "pong"
        finally:
            channel.request("stop", None, timeout_s=1.0)
            channel.process.join(timeout=2.0)
            channel.close()

    def test_duplicated_responses_are_harmless(self):
        plan = build_shard_plan(random_dag(40, avg_degree=2.0, seed=1), 1)

        def duplicate(**context):
            raise chaos.DuplicateResponse("chaos: twice")

        with chaos.injected("shard.worker.respond", duplicate):
            channel = self.spawn_worker(plan)
        try:
            shard = plan.shards[0]
            oracle = reachability_oracle(plan.dag)
            for u in shard.owned[:8]:
                for v in shard.owned[:8]:
                    answer = channel.request(
                        "local_many", ([(u, v)], None), timeout_s=5.0
                    )
                    assert answer == [oracle(u, v)], (u, v)
        finally:
            channel.request("stop", None, timeout_s=1.0)
            channel.process.join(timeout=2.0)
            channel.close()


class TestServiceUnderRpcChaos:
    def test_service_survives_duplicated_responses(self):
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)

        def duplicate(**context):
            raise chaos.DuplicateResponse("chaos: twice")

        with chaos.injected("shard.worker.respond", duplicate):
            service = ShardService(
                graph, ShardConfig(num_shards=2, supervise=False)
            )
        with service:
            import random

            rng = random.Random(0)
            n = graph.num_vertices
            for _ in range(80):
                u, v = rng.randrange(n), rng.randrange(n)
                assert service.reachable(u, v) == oracle(u, v)

    def test_always_failing_worker_degrades_to_exact_fallback(self):
        graph = crown_graph(6)
        oracle = reachability_oracle(graph)

        def explode(**context):
            raise ValueError("chaos: worker bug")

        # The hook stays installed for the whole run, so even the
        # hedged-re-dispatch replacement workers fork with it: every
        # attempt fails, and each shard-bound query must fall back.
        with chaos.injected("shard.worker.request", explode):
            with ShardService(
                graph,
                ShardConfig(
                    num_shards=2, supervise=False, rpc_timeout_s=0.5,
                    on_shard_loss="fallback",
                ),
            ) as service:
                import random

                rng = random.Random(1)
                n = graph.num_vertices
                for _ in range(40):
                    u, v = rng.randrange(n), rng.randrange(n)
                    assert service.reachable(u, v) == oracle(u, v)
                if service.stats.local_queries or service.stats.cross_queries:
                    assert service.stats.degraded_fallback >= 1
                    assert service.stats.rpc_failures >= 1
