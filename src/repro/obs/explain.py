"""Per-query verdict provenance: which cut answered, and at what cost.

FELINE's value proposition is *which* O(1) cut answers a query — the
negative coordinate cut, the level filter, the positive-cut interval —
versus how far the pruned DFS of Algorithm 3 had to go.  The aggregate
``QueryStats`` counters show the distribution; a
:class:`QueryExplanation` answers the per-query question ("why was *this*
query slow / answered true?") that GRAIL's and FERRARI's evaluations were
built around.

Produced by :meth:`repro.baselines.base.ReachabilityIndex.explain` (and
:meth:`repro.Reachability.explain` on the facade); the query chain itself
names the step that decided — the family's cut table reports which of
its cuts fired — and each index family enriches
:attr:`QueryExplanation.details` through the ``_explain_details`` hook —
FELINE adds the coordinates, levels and tree intervals it consulted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CUTS", "BudgetReport", "QueryExplanation"]

#: Every value :attr:`QueryExplanation.cut` can take.  ``negative-cut``
#: means the O(1) coordinate/label cut (for FELINE: ``i(u) ⋠ i(v)``);
#: ``level-filter`` and ``negative-cut-reversed`` are FELINE refinements
#: of it; ``positive-cut`` the O(1) positive answer;
#: ``observer-positive`` / ``observer-negative`` mean the attached
#: O'Reach-style observer layer decided *before* the family's own cuts
#: ran (see :mod:`repro.perf.observers`); ``search`` means the pruned
#: online search (Algorithm 3) had to run; ``same-scc`` is the facade's
#: condensation shortcut for two vertices in one component.
CUTS = (
    "equal",
    "same-scc",
    "observer-positive",
    "observer-negative",
    "negative-cut",
    "negative-cut-reversed",
    "level-filter",
    "positive-cut",
    "search",
)


@dataclass(frozen=True)
class BudgetReport:
    """How a :class:`~repro.resilience.budget.QueryBudget` was consumed.

    ``outcome`` is ``"completed"`` when the search finished within
    budget, otherwise the degradation that replaced the answer
    (``"raised"``, ``"unknown"``, ``"fallback_true"``,
    ``"fallback_false"``, ``"fallback_unknown"``).
    """

    policy: str
    max_steps: int | None
    deadline_s: float | None
    steps_used: int
    exhausted: bool
    outcome: str

    @classmethod
    def of(cls, budget, steps_used: int, outcome: str) -> "BudgetReport":
        """The report for ``budget`` after ``steps_used`` search steps
        ended in ``outcome``."""
        return cls(
            policy=budget.policy,
            max_steps=budget.max_steps,
            deadline_s=budget.deadline_s,
            steps_used=steps_used,
            exhausted=outcome != "completed",
            outcome=outcome,
        )

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "max_steps": self.max_steps,
            "deadline_s": self.deadline_s,
            "steps_used": self.steps_used,
            "exhausted": self.exhausted,
            "outcome": self.outcome,
        }


@dataclass
class QueryExplanation:
    """Structured provenance for one reachability query.

    Attributes
    ----------
    method, u, v:
        The index method and the (index-space) query pair.
    verdict:
        ``True`` / ``False``, or :data:`~repro.resilience.budget.UNKNOWN`
        when a budget degraded the answer.
    cut:
        Which mechanism produced the verdict — one of :data:`CUTS`.
    expanded, pruned:
        Vertices expanded by the online search and branches cut by the
        index filters during it (both 0 when an O(1) cut fired).
    elapsed_ns:
        Wall time of the explained query, monotonic and clamped >= 0.
    details:
        Per-method enrichment: FELINE puts the coordinates ``i(u)`` /
        ``i(v)``, levels, and tree intervals it consulted here.
    budget:
        A :class:`BudgetReport` when the query ran under a
        ``QueryBudget``, else ``None``.
    """

    method: str
    u: int
    v: int
    verdict: object
    cut: str
    expanded: int = 0
    pruned: int = 0
    elapsed_ns: int = 0
    details: dict = field(default_factory=dict)
    budget: BudgetReport | None = None

    def as_dict(self) -> dict:
        """Plain-data view (JSON-ready; ``UNKNOWN`` renders as a string)."""
        verdict = self.verdict if isinstance(self.verdict, bool) else str(
            self.verdict
        )
        out: dict = {
            "method": self.method,
            "u": self.u,
            "v": self.v,
            "verdict": verdict,
            "cut": self.cut,
            "expanded": self.expanded,
            "pruned": self.pruned,
            "elapsed_ns": self.elapsed_ns,
        }
        if self.details:
            out["details"] = {
                key: (value if isinstance(value, (bool, int, float, str))
                      else str(value))
                for key, value in self.details.items()
            }
        if self.budget is not None:
            out["budget"] = self.budget.as_dict()
        return out

    def render(self) -> str:
        """Human-readable multi-line rendering (the ``repro explain`` CLI)."""
        verdict = (
            "reachable" if self.verdict is True
            else "not reachable" if self.verdict is False
            else str(self.verdict)
        )
        lines = [
            f"r({self.u}, {self.v}) on {self.method}: {verdict}",
            f"  answered by: {_CUT_PROSE.get(self.cut, self.cut)}",
        ]
        for key, value in self.details.items():
            lines.append(f"  {key}: {value}")
        if self.cut == "search" or self.expanded or self.pruned:
            lines.append(
                f"  search: {self.expanded} vertices expanded, "
                f"{self.pruned} branches pruned"
            )
        if self.budget is not None:
            b = self.budget
            limit = []
            if b.max_steps is not None:
                limit.append(f"max_steps={b.max_steps}")
            if b.deadline_s is not None:
                limit.append(f"deadline_s={b.deadline_s}")
            lines.append(
                f"  budget: {', '.join(limit)} policy={b.policy} "
                f"steps_used={b.steps_used} outcome={b.outcome}"
            )
        lines.append(f"  elapsed: {self.elapsed_ns / 1000.0:.1f} us")
        return "\n".join(lines)


_CUT_PROSE = {
    "equal": "reflexivity (u == v), O(1)",
    "same-scc": "same strongly connected component, O(1)",
    "observer-positive":
        "observer layer: a supporting vertex connects u to v, O(1)",
    "observer-negative":
        "observer layer: topological interval or supporting-vertex "
        "contrapositive, O(1)",
    "negative-cut": "negative coordinate cut (Theorem 1), O(1)",
    "negative-cut-reversed":
        "negative cut on the reversed index (FELINE-B), O(1)",
    "level-filter": "topological level filter (§3.4.2), O(1)",
    "positive-cut": "positive-cut interval containment (§3.4.1), O(1)",
    "search": "refined online search (Algorithm 3)",
}
