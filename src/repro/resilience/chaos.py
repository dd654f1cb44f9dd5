"""Deterministic fault injection — prove faults are detected, not silent.

The harness has three parts:

* **Hook points.**  Production code calls :func:`fire` at named points
  (``"index.build.start"``, ``"persistence.load.section"``,
  ``"shard.worker.request"``, ...).  With no
  hooks installed this is one empty-dict truthiness check; tests install
  callables with :func:`install` / the :func:`injected` context manager to
  raise :class:`InjectedFault` (or anything else) mid-build or mid-query.
* **Data corruptors.**  Seeded, pure functions that damage a
  :class:`~repro.core.index.FelineCoordinates` in memory
  (:func:`corrupt_coordinates`) or an index file on disk
  (:func:`flip_bytes`, :func:`truncate_file`) so the integrity layers —
  checksums, :func:`repro.resilience.verify.verify_index` — can be shown
  to catch every mutation.
* **Process faults.**  :func:`kill_process` (SIGKILL), the
  :func:`freeze_process` / :func:`thaw_process` pair (SIGSTOP/SIGCONT)
  and the :class:`DropResponse` / :class:`DuplicateResponse` control
  exceptions give the multi-process shard service (:mod:`repro.shard`)
  its murder weapons: a worker can be killed or wedged mid-query, a
  raising ``shard.worker.request`` hook fails a dispatch (the
  coordinator retries it through
  :class:`~repro.resilience.retry.RetryPolicy`), and a shard worker's
  response hook can drop or duplicate a wire message.  The service must still answer every
  admitted query within its deadline, correctly or honestly-UNKNOWN.

Everything is seeded and deterministic: the same seed injects the same
fault, so a failing chaos test reproduces exactly.
"""

from __future__ import annotations

import os
import signal
from array import array
from contextlib import contextmanager
from pathlib import Path
from random import Random

from repro.exceptions import ReproError

__all__ = [
    "InjectedFault",
    "install",
    "uninstall",
    "clear",
    "injected",
    "fire",
    "active_hooks",
    "corrupt_coordinates",
    "flip_bytes",
    "truncate_file",
    "DropResponse",
    "DuplicateResponse",
    "kill_process",
    "freeze_process",
    "thaw_process",
]


class InjectedFault(ReproError):
    """The canonical exception raised by chaos hooks.

    Distinct from every production error type so a test can assert that a
    surfaced failure is *the injected one* and not collateral damage.
    ``point`` names the hook that fired.
    """

    def __init__(self, message: str, point: str = "") -> None:
        super().__init__(message)
        self.point = point


# ---------------------------------------------------------------------------
# Hook points
# ---------------------------------------------------------------------------
_HOOKS: dict[str, object] = {}


def install(point: str, hook) -> None:
    """Install ``hook`` (a callable taking ``**context``) at ``point``."""
    _HOOKS[point] = hook


def uninstall(point: str) -> None:
    """Remove the hook at ``point`` (no-op when absent)."""
    _HOOKS.pop(point, None)


def clear() -> None:
    """Remove every installed hook."""
    _HOOKS.clear()


def active_hooks() -> list[str]:
    """Names of the points that currently have a hook installed."""
    return sorted(_HOOKS)


@contextmanager
def injected(point: str, hook=None):
    """Scoped :func:`install`; restores the previous state on exit.

    With ``hook=None`` a default injector is installed that raises
    :class:`InjectedFault` naming the point.
    """
    if hook is None:
        def hook(**context):
            raise InjectedFault(
                f"chaos: injected fault at {point!r}", point=point
            )
    previous = _HOOKS.get(point)
    _HOOKS[point] = hook
    try:
        yield
    finally:
        if previous is None:
            _HOOKS.pop(point, None)
        else:
            _HOOKS[point] = previous


def fire(point: str, **context) -> None:
    """Trigger ``point``; called by production code at its hook points.

    Fast path: when no hooks are installed anywhere this is a single
    truthiness check on an empty dict.
    """
    if not _HOOKS:
        return
    hook = _HOOKS.get(point)
    if hook is not None:
        hook(**context)


# ---------------------------------------------------------------------------
# Data corruptors
# ---------------------------------------------------------------------------
def corrupt_coordinates(coords, seed: int = 0, mutations: int = 1):
    """A damaged copy of ``coords``: seeded random coordinate mutations.

    Each mutation picks one of the present arrays (x, y, levels, interval
    starts/posts) and either swaps two entries or overwrites one with a
    random in-range value — exactly the silent corruption a bad memory
    module or a buggy writer would produce.  The input is not modified.
    """
    from repro.core.index import FelineCoordinates
    from repro.graph.spanning import IntervalLabels

    rng = Random(seed)
    x = array("l", coords.x)
    y = array("l", coords.y)
    levels = array("l", coords.levels) if coords.levels is not None else None
    if coords.tree_intervals is not None:
        start = array("l", coords.tree_intervals.start)
        post = array("l", coords.tree_intervals.post)
    else:
        start = post = None

    arrays = [a for a in (x, y, levels, start, post) if a is not None]
    n = len(x)
    if n == 0:
        raise ReproError("cannot corrupt an empty coordinate set")
    for _ in range(mutations):
        target = rng.choice(arrays)
        if n > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            target[i], target[j] = target[j], target[i]
        else:
            target[rng.randrange(n)] = rng.randrange(n)

    intervals = (
        IntervalLabels(start=start, post=post) if start is not None else None
    )
    return FelineCoordinates(
        x=x, y=y, levels=levels, tree_intervals=intervals
    )


def flip_bytes(
    path: str | Path, seed: int = 0, flips: int = 1
) -> list[int]:
    """Flip one random bit in each of ``flips`` seeded byte offsets.

    Returns the damaged offsets so tests can report which bytes were hit.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ReproError(f"{path}: cannot bit-flip an empty file")
    rng = Random(seed)
    offsets = []
    for _ in range(flips):
        offset = rng.randrange(len(data))
        data[offset] ^= 1 << rng.randrange(8)
        offsets.append(offset)
    path.write_bytes(bytes(data))
    return offsets


def truncate_file(path: str | Path, size: int) -> None:
    """Truncate ``path`` to ``size`` bytes (simulating a torn write)."""
    path = Path(path)
    if size < 0:
        raise ReproError(f"truncate size must be >= 0, got {size}")
    data = path.read_bytes()
    path.write_bytes(data[:size])


# ---------------------------------------------------------------------------
# Process faults
# ---------------------------------------------------------------------------
class DropResponse(ReproError):
    """Control exception for shard-worker response hooks: eat the reply.

    Raised by a hook installed at ``shard.worker.respond``; the worker
    swallows it and simply never sends the response, simulating a lost
    wire message.  The coordinator must recover by timeout + retry.
    """


class DuplicateResponse(ReproError):
    """Control exception for shard-worker response hooks: send it twice.

    Simulates a duplicated wire message; the coordinator's sequence
    matching must discard the second copy instead of mistaking it for
    the answer to a later request.
    """


def kill_process(pid: int) -> bool:
    """SIGKILL ``pid`` (no cleanup, no goodbye — the hard murder).

    Returns ``False`` when the process is already gone, ``True`` when
    the signal was delivered.  Refuses to kill the calling process.
    """
    if pid == os.getpid():
        raise ReproError("chaos: refusing to SIGKILL the current process")
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def freeze_process(pid: int) -> bool:
    """SIGSTOP ``pid`` — the process wedges without dying.

    A frozen worker keeps its pipes open, so the only symptom is
    silence: RPCs time out rather than erroring.  Pair with
    :func:`thaw_process` (or a supervisor's kill-and-restart fencing).
    """
    if pid == os.getpid():
        raise ReproError("chaos: refusing to SIGSTOP the current process")
    try:
        os.kill(pid, signal.SIGSTOP)
    except ProcessLookupError:
        return False
    return True


def thaw_process(pid: int) -> bool:
    """SIGCONT a process frozen by :func:`freeze_process`."""
    try:
        os.kill(pid, signal.SIGCONT)
    except ProcessLookupError:
        return False
    return True
