"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import batch  # noqa: E402
import serving  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_printed_metrics():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["batch-cut", "batch-search"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", ["batch-cut", "batch-search"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    def inputs(seed):
        paths = [path for graph in batch.prepare(workload, seed, tiny=True)
                 for path in graph]
        out = [path.read_bytes() for path in paths]
        for path in paths:
            path.unlink()
        return out

    first, again, other = inputs(7), inputs(7), inputs(8)
    assert first == again
    assert len(first) == 3 * batch.GRAPHS
    assert len(set(first)) == len(first)  # the graphs of one run differ too
    assert all(a != b for a, b in zip(first, other))


def test_serving_inputs_follow_the_seed():
    def inputs(seed):
        graph_path, pairs, truth = serving.prepare("serve", seed, tiny=True)
        data = graph_path.read_bytes()
        graph_path.unlink()
        (serving.WORK / f"serve-{seed}.pairs.npy").unlink()
        return data, pairs, truth, serving._schedule(seed, 50, serving.PROBE_SHARE)

    first, again, other = inputs(3), inputs(3), inputs(4)
    assert first == again
    assert first[0] != other[0]
    assert first[1] != other[1]
    assert first[3] != other[3]


def _session(sid: int) -> list[str]:
    """Every process (zombies too) in session ``sid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            name, fields = stat.read_text().rsplit(")", 1)
        except OSError:
            continue
        if int(fields.split()[3]) == sid:
            found.append(f"{stat.parent.name} {name.split('(', 1)[1]}")
    return found


def _run(workload: str, trace: int) -> dict:
    # In a session of its own, so whatever it leaves behind can be found,
    # and with SIGINT ignored, as a background job of a shell starts it.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    stdout, stderr = proc.communicate(timeout=600)
    assert proc.returncode == 0, stderr[-2000:]
    assert _session(proc.pid) == [], "processes left running"
    assert "left running" not in stderr
    assert "teardown left" not in stderr  # servers stopped by SIGINT alone
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["batch-cut", "batch-search"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_completes_with_every_metric(workload, trace):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    names = END_TO_END if trace == 0 else PER_LAYER
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    for metric in out["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())
    elif workload == "batch-cut":  # the server layers ran
        assert out["metrics"]["serve.coalesce_batch_mean"]["value"] > 0
        assert out["metrics"]["serve.coverage"]["value"] > 0


def test_wrong_answer_fails_loudly():
    tally = batch._Tally([[True, False]])
    tally.check(0, [True, False])
    with pytest.raises(batch.WrongAnswer):
        tally.check(0, [False, False])
    tally = batch._Tally([[True, False]])
    tally.check(0, [True, None], budgeted=True)  # UNKNOWN under a budget
    assert tally.unknown == 1 and tally.wrong == 0


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-cut",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
