"""Query budgets and graceful degradation.

FELINE's pitch is bounded, predictable query latency — but a pathological
query whose pruned DFS degenerates toward full online search can still
take O(|V| + |E|).  A :class:`QueryBudget` caps that: it limits the number
of DFS expansion steps and/or imposes a wall-clock deadline, and chooses
what happens on exhaustion:

* ``policy="raise"`` — surface :class:`~repro.exceptions.QueryBudgetExceeded`;
* ``policy="unknown"`` — return the three-valued :data:`UNKNOWN` sentinel
  (the query is *unanswered*, never answered wrongly);
* ``policy="fallback"`` — run a node-bounded bidirectional BFS (the
  O'Reach-style cheap online fallback); if that bound is also hit the
  answer degrades to :data:`UNKNOWN`.

The soundness contract, relied on by the property tests: **a budgeted
query never returns a wrong ``True`` or ``False`` — only** :data:`UNKNOWN`
**may replace an answer.**  Exhaustion and degradation are counted both on
:class:`~repro.baselines.base.QueryStats` and, when metrics are enabled,
on the ``repro_budget_exhausted_total`` / ``repro_degraded_total``
observability counters.

The per-search accounting lives in :class:`SearchGuard`, a tiny object the
index installs around each online search (``_search_pair``), on the
scalar and the batch path alike; every ``_search`` loop calls
``guard.step()`` once per expanded vertex (a single ``is not None`` check
when no budget is active).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.exceptions import QueryBudgetExceeded, ReproError

__all__ = [
    "UNKNOWN",
    "Ternary",
    "QueryBudget",
    "SearchGuard",
    "POLICIES",
]

POLICIES = ("raise", "unknown", "fallback")

#: How many guard steps pass between wall-clock reads — ``perf_counter``
#: costs far more than the step counter, so the deadline is enforced with
#: this granularity.
_CLOCK_STRIDE = 256


class Ternary:
    """The third truth value: *the query was not answered*.

    There is exactly one instance, :data:`UNKNOWN`.  It refuses boolean
    coercion — ``if answer:`` on an unanswered query is precisely the
    silent-wrong-answer bug this subsystem exists to prevent — so callers
    must compare explicitly (``answer is UNKNOWN`` / ``answer is True``).
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        raise TypeError(
            "UNKNOWN is not a boolean: a budgeted query was not answered. "
            "Test `answer is UNKNOWN` (or `answer is True/False`) instead."
        )

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __reduce__(self):
        return (Ternary, ())


UNKNOWN = Ternary()


@dataclass(frozen=True)
class QueryBudget:
    """Resource limits for a single reachability query.

    Parameters
    ----------
    max_steps:
        Maximum vertices the online search may expand (``None`` = no step
        cap).  This bounds the dominant cost of a degenerate query.
    deadline_s:
        Wall-clock allowance in seconds (``None`` = no deadline), checked
        every :data:`_CLOCK_STRIDE` steps.
    policy:
        ``"raise"``, ``"unknown"`` or ``"fallback"`` — what exhaustion
        degrades to (see the module docstring).
    fallback_nodes:
        Node cap for the ``"fallback"`` bidirectional BFS; defaults to
        ``4 * max_steps`` (or 4096 when only a deadline is set).

    Examples
    --------
    >>> QueryBudget(max_steps=1000).policy
    'raise'
    >>> QueryBudget(max_steps=100, policy="fallback").resolved_fallback_nodes
    400
    """

    max_steps: int | None = None
    deadline_s: float | None = None
    policy: str = "raise"
    fallback_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.max_steps is None and self.deadline_s is None:
            raise ReproError(
                "QueryBudget needs max_steps and/or deadline_s; an "
                "unlimited budget is spelled budget=None"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise ReproError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ReproError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.policy not in POLICIES:
            raise ReproError(
                f"unknown budget policy {self.policy!r}; "
                f"use one of {', '.join(POLICIES)}"
            )

    @property
    def resolved_fallback_nodes(self) -> int:
        """The effective node cap of the fallback bidirectional BFS."""
        if self.fallback_nodes is not None:
            return self.fallback_nodes
        if self.max_steps is not None:
            return 4 * self.max_steps
        return 4096

    def new_guard(self) -> "SearchGuard":
        """A fresh :class:`SearchGuard` enforcing this budget."""
        return SearchGuard(self.max_steps, self.deadline_s)


class SearchGuard:
    """Per-query step/deadline accountant threaded through ``_search``.

    ``step()`` is called once per expanded vertex; it raises
    :class:`~repro.exceptions.QueryBudgetExceeded` the moment the budget
    is exhausted.  The wall clock is only read every
    :data:`_CLOCK_STRIDE` steps to keep the per-step cost to an integer
    increment and compare.
    """

    __slots__ = ("steps", "max_steps", "deadline_at", "start", "_next_clock")

    def __init__(
        self, max_steps: int | None, deadline_s: float | None
    ) -> None:
        self.steps = 0
        self.max_steps = max_steps
        self.start = perf_counter()
        self.deadline_at = (
            self.start + deadline_s if deadline_s is not None else None
        )
        self._next_clock = _CLOCK_STRIDE

    def step(self) -> None:
        """Account one expanded vertex; raise on budget exhaustion."""
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise QueryBudgetExceeded(
                f"query exceeded its step budget of {self.max_steps}",
                resource="steps",
                steps=self.steps,
                elapsed_s=perf_counter() - self.start,
            )
        if self.deadline_at is not None and self.steps >= self._next_clock:
            self._next_clock += _CLOCK_STRIDE
            now = perf_counter()
            if now > self.deadline_at:
                raise QueryBudgetExceeded(
                    "query exceeded its wall-clock deadline of "
                    f"{self.deadline_at - self.start:.6f}s",
                    resource="deadline",
                    steps=self.steps,
                    elapsed_s=now - self.start,
                )


def bounded_fallback(graph, u: int, v: int, max_nodes: int):
    """The degradation path: node-bounded bidirectional BFS.

    Returns ``True`` / ``False`` when the search concludes within
    ``max_nodes`` visited vertices, :data:`UNKNOWN` when the bound is hit
    first.  A ``False`` is definitive — both frontiers were exhausted —
    so the soundness contract holds.

    Runs through :func:`repro.perf.kernels.bounded_search`, so the
    degradation path uses the same native tiers as the main searches;
    every backend returns bit-identical ``True``/``False``/``None``.
    """
    from repro.perf.kernels import bounded_search

    answer = bounded_search(graph, u, v, max_nodes)
    return UNKNOWN if answer is None else answer
