"""SIGTERM stops ``repro shard-serve`` as cleanly as Ctrl-C.

The server is spawned as its CLI on a small generated graph.  Once it
answers ``/healthz`` it gets SIGTERM; it must exit promptly, take its
shard workers with it and unlink the ``psm_*`` shared-memory segments
they mapped.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.request import urlopen

import pytest

from repro.graph.generators import random_dag

SHM = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not SHM.is_dir()
    or not Path("/proc/self/stat").exists(),
    reason="needs fork, /dev/shm and /proc",
)

SRC = Path(__file__).resolve().parents[2] / "src"


def _segments(pids) -> set[str]:
    """The ``psm_*`` segments mapped by any of ``pids``."""
    found = set()
    for pid in pids:
        try:
            maps = Path(f"/proc/{pid}/maps").read_text()
        except OSError:
            continue
        found.update(re.findall(r"/dev/shm/(psm_\w+)", maps))
    return found


def _children(pid: int) -> set[int]:
    """Pids whose parent is ``pid`` (fields after the ``(comm)`` entry)."""
    found = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.add(int(stat.parent.name))
    return found


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


def _read_lines(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)


def test_sigterm_leaves_no_worker_and_no_segment(tmp_path):
    graph = random_dag(300, avg_degree=2.5, seed=7)
    edges = tmp_path / "g.edges"
    edges.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "shard-serve", str(edges),
         "--shards", "2", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    workers: set[int] = set()
    segments: set[str] = set()
    lines: queue.Queue = queue.Queue()
    threading.Thread(
        target=_read_lines, args=(proc.stdout, lines), daemon=True
    ).start()
    try:
        url = None
        deadline = time.monotonic() + 60
        while url is None and time.monotonic() < deadline:
            try:
                line = lines.get(timeout=1)
            except queue.Empty:
                assert proc.poll() is None, "shard-serve exited early"
                continue
            match = re.search(r"on (http://\S+)", line)
            if match:
                url = match.group(1)
        assert url is not None, "shard-serve never printed its URL"
        with urlopen(url + "/healthz", timeout=10) as response:
            assert response.status == 200
        workers = _children(proc.pid)
        assert len(workers) >= 2
        segments = _segments(workers | {proc.pid})
        assert segments, "expected shared-memory index pages"

        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)

        gone_by = time.monotonic() + 5
        while any(_alive(pid) for pid in workers):
            assert time.monotonic() < gone_by, "shard workers outlived it"
            time.sleep(0.05)
        left = {name for name in segments if (SHM / name).exists()}
        assert not left, f"segments left behind: {sorted(left)}"
    finally:
        # Leave nothing behind even when the server is at fault.
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        for name in segments:
            (SHM / name).unlink(missing_ok=True)
