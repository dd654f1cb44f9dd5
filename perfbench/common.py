"""Shared pieces of the layered benchmark: inputs, calibration, results.

A fixed pure-Python calibration loop runs in short chunks between the
timed work (or around each window and set-up, where the work cannot be
interrupted).  A window's value is rescaled to a reference machine speed
by its chunks' mean time, so a shared box whose CPU speed swings from
one minute to the next still reports repeatable figures.  The raw
calibration time is printed with every run, because a change that burns
CPU while idle would slow the calibration loop and inflate every
rescaled figure.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

# One calibration chunk and the machine speed it is normalised to.  On
# the reference box (2 vCPU, Python 3.11) a chunk takes about this long
# when the box is quiet, so rescaled figures read close to raw ones then.
CHUNK_ITERATIONS = 3_400
REF_CHUNK_MS = 0.8
CALIB_EVERY_S = 0.006  # work between two calibration chunks
# The chunk reads a table larger than a core's private caches, so it
# slows down with the cache contention of a shared box about as much as
# the program under test does (measured: time of a batch ~ chunk^1.0);
# a loop over registers alone slows less (~ chunk^1.25).  The table is
# read through once untimed first, so what the program left in the
# caches does not change the chunk's time.
GATHER_SLOTS = 1 << 17
# A second chunk, of nested pure-Python function calls, for scalar calls
# that are mostly interpreter call overhead, which slows with a busy box
# differently from the table walk.  Measured over 2.4 s stretches of a
# loaded box on batch-cut, scalar latency divided by the table walk
# still spread 11%, divided by this chunk 2.4%; batch throughput the
# other way round (2% against 11%).
CALL_ITERATIONS = 3_000
REF_CALL_MS = 0.6


def import_repro():
    """Import the package under test from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src}/repro")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    return repro


# -- inputs --------------------------------------------------------------
def make_graph_file(name: str, scale: float, seed: int, tag: str):
    """Write the seeded stand-in graph as an edge list.

    Returns the path and the vertex count a reader infers from the file
    (one more than the largest id on an edge; isolated trailing vertices
    do not appear in an edge list).
    """
    import_repro()
    from repro.datasets.real_stand_ins import load_real_stand_in
    from repro.graph.io import write_edge_list

    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{tag}-{name}-{seed}.edges"
    graph = load_real_stand_in(name, scale=scale, seed=seed)
    write_edge_list(graph, path)
    return path, 1 + max(max(edge) for edge in graph.edges())


def make_pairs(num_vertices: int, count: int, seed: int) -> np.ndarray:
    """``count`` uniform random ``(u, v)`` pairs as a ``(count, 2)`` array.

    Latin hypercube sampling: the vertex range is cut into ``count``
    equal strata, each coordinate takes one uniform vertex from every
    stratum, and the two coordinates are paired at random.  Each pair is
    still uniform over all vertex pairs, but the set covers the sources
    and targets evenly, so the few vertices that make searches expensive
    are not over- or under-drawn by chance from one seed to the next.
    """
    rng = np.random.default_rng([seed, 0x5EED])

    def coordinate() -> np.ndarray:
        strata = (np.arange(count) + rng.random(count)) * (num_vertices / count)
        return rng.permutation(np.minimum(strata.astype(np.int64), num_vertices - 1))

    return np.column_stack([coordinate(), coordinate()])


# -- oracle --------------------------------------------------------------
class Oracle:
    """Reachability answers by plain BFS on the original graph.

    It shares nothing with any index: one descendant set per distinct
    source, cached, so checking a sample costs one BFS per source.
    """

    def __init__(self, graph) -> None:
        import_repro()
        from repro.graph.traversal import descendants

        self._descendants = descendants
        self.graph = graph
        self._cache: dict[int, set[int]] = {}

    def reachable(self, u: int, v: int) -> bool:
        if u == v:
            return True
        seen = self._cache.get(u)
        if seen is None:
            seen = self._cache[u] = self._descendants(self.graph, u)
        return v in seen


class WrongAnswer(AssertionError):
    """The program under test returned a wrong boolean answer."""


# -- calibration and windows ---------------------------------------------
@functools.lru_cache(maxsize=1)
def _gather_table() -> list[int]:
    return list(range(1_000_000, 1_000_000 + GATHER_SLOTS))


def calib_chunk() -> float:
    """Milliseconds one fixed pure-Python loop takes right now: pseudo-
    random reads over a fixed table (a full-period LCG walk), after an
    untimed read-through of the table."""
    table = _gather_table()
    mask = GATHER_SLOTS - 1
    index, acc = 1, sum(table)
    start = time.perf_counter_ns()
    for _ in range(CHUNK_ITERATIONS):
        index = (index * 1103515245 + 12345) & mask
        acc += table[index]
    return (time.perf_counter_ns() - start) / 1e6


def _leaf(x: int, y: int) -> int:
    return x if x > y else y


def _middle(x: int, y: int) -> int:
    return _leaf(y, x)


def _top(x: int, y: int) -> int:
    return _middle(x, y) + 1


def call_chunk() -> float:
    """Milliseconds one fixed loop of nested pure-Python calls takes."""
    top = _top
    acc = 0
    start = time.perf_counter_ns()
    for i in range(CALL_ITERATIONS):
        acc += top(i, acc & 1023)
    return (time.perf_counter_ns() - start) / 1e6


# (chunk, its reference milliseconds) for interleaved_windows
WALK = (calib_chunk, REF_CHUNK_MS)
CALLS = (call_chunk, REF_CALL_MS)


def calibrate(chunks: int = 8) -> float:
    """Mean milliseconds per calibration chunk over ``chunks`` chunks."""
    return statistics.fmean(calib_chunk() for _ in range(chunks))


def calibrate_cpus(chunks: int = 4) -> float:
    """Mean milliseconds per chunk over every CPU this process may use.

    A server under test runs in other processes, on whichever CPU is
    free, and the CPUs of a shared box change speed independently; so
    the client runs ``chunks`` chunks pinned to each CPU in turn.
    """
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(calibrate(chunks))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(per_cpu)


def pin_to_one_cpu() -> None:
    """Keep this process on the CPU it runs on now, so its work and its
    calibration chunks always share one CPU."""
    with open("/proc/self/stat") as handle:
        cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def speed_factor(chunk_ms: float, ref_ms: float = REF_CHUNK_MS) -> float:
    """How much slower than the reference the machine ran."""
    return chunk_ms / ref_ms


@dataclass
class Windows:
    """Calibrated measurement windows of one phase (rates)."""

    calib_ms: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)  # rescaled
    raw: list[float] = field(default_factory=list)

    def median(self) -> float:
        return statistics.median(self.values)

    def add(self, rate: float, chunk_ms: float,
            ref_ms: float = REF_CHUNK_MS) -> float:
        """Record one window's raw rate; returns its speed factor."""
        factor = speed_factor(chunk_ms, ref_ms)
        self.calib_ms.append(chunk_ms)
        self.raw.append(rate)
        self.values.append(rate * factor)
        return factor


def interleaved_windows(phases: dict, seconds: float, window_s: float) -> dict:
    """Run each phase's ``step()`` in turn, one window at a time.

    ``phases`` maps a name to ``(step, on_window, calibration)``:
    ``step()`` does some work and returns its units (pairs answered);
    ``on_window(factor)``, when given, is called after each of the
    phase's windows with that window's speed factor; ``calibration`` is
    :data:`WALK` or :data:`CALLS`.  A calibration chunk follows every
    ``CALIB_EVERY_S`` of work, so each window's factor comes from the
    same stretch of time as its work, and the phases take turns so a slow
    spell of the machine is shared between them.  Returns
    ``{name: Windows}`` of units per second.
    """
    out = {name: Windows() for name in phases}
    perf = time.perf_counter
    gc.collect()
    deadline = perf() + seconds
    while True:
        for name, (step, on_window, (chunk, ref_ms)) in phases.items():
            units, work, calib, since = 0, 0.0, [], 0.0
            end = perf() + window_s
            while True:
                start = perf()
                units += step()
                took = perf() - start
                work += took
                since += took
                if since >= CALIB_EVERY_S:
                    calib.append(chunk())
                    since = 0.0
                if perf() >= end:
                    break
            if not calib:
                calib.append(chunk())
            factor = out[name].add(units / work, statistics.fmean(calib), ref_ms)
            if on_window is not None:
                on_window(factor)
        if perf() >= deadline:
            return out


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples`` (nearest rank)."""
    ordered = sorted(samples)
    if not len(ordered):
        raise ValueError("no samples")
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


# -- memory --------------------------------------------------------------
def reset_peak_rss() -> None:
    """Reset this process's peak-RSS mark to its current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of ``pid`` in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- processes -----------------------------------------------------------
PR_SET_CHILD_SUBREAPER = 36  # linux/prctl.h


def descendants(pid: int) -> set[int]:
    """Every live (not zombie) descendant of ``pid`` (scans /proc)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            parents[int(entry)] = int(fields[1])
    found, frontier = set(), {pid}
    while frontier:
        frontier = {p for p, parent in parents.items() if parent in frontier}
        found |= frontier
    return found


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A process whose parent ends before it (the resource tracker of a
    stopped server, say) is then re-parented here instead of to init, so
    :func:`stop_children` can still wait for it.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap() -> bool:
    """Collect every ended child; False once no child is left."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        return False
    return True


def stop_children(grace_s: float = 2.0) -> int:
    """Stop every process this one started and wait until each has ended.

    The multiprocessing resource tracker (started by any shared-memory
    use) is told to stop and waited for; any other child still running
    after ``grace_s`` is killed.  Returns the number of processes killed.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()  # closes its pipe, waits
    except Exception:
        pass
    deadline = time.monotonic() + grace_s
    killed = set()
    while _reap():
        if time.monotonic() >= deadline:
            for pid in descendants(os.getpid()) - killed:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
    return len(killed)


# -- environment and result ----------------------------------------------
def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code under
    test where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """The checkout's commit, read without running git (may be absent)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(extra: dict) -> dict:
    """The run's environment record (printed before the result line)."""
    import_repro()
    from repro.perf.kernels import numba_version, resolve_backend

    env = {
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": resolve_backend(None),
        "numba_version": numba_version(),
    }
    env.update(extra)
    return env


@dataclass
class Result:
    """What one run prints: correctness, counts and named metrics."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def emit(self) -> None:
        print(json.dumps({"env": self.env}, sort_keys=True))
        print(
            json.dumps(
                {
                    "correct": self.failed == 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": self.metrics,
                }
            )
        )
