"""Solver interface shared by every SLADE algorithm.

A solver consumes a :class:`~repro.core.problem.SladeProblem` and produces a
:class:`SolveResult`, which packages the decomposition plan together with its
cost, the wall-clock time spent, and algorithm-specific metadata (e.g. the
number of OPQ combinations enumerated).  The experiment harness and the
benchmarks only ever talk to solvers through this interface.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.core.plan import DecompositionPlan
from repro.core.problem import SladeProblem
from repro.utils.timing import Stopwatch


@dataclass
class SolveResult:
    """Outcome of one solver invocation.

    Attributes
    ----------
    plan:
        The decomposition plan produced by the solver.
    problem:
        The problem instance that was solved (kept for feasibility checks and
        per-task reporting).
    elapsed_seconds:
        Wall-clock time spent inside the solver.
    solver:
        Name of the algorithm that produced the plan.
    metadata:
        Free-form algorithm diagnostics (iterations, pruned nodes, ...).
    verified:
        Whether :meth:`Solver.solve` already checked the plan against every
        atomic task's threshold.  That check raises on an infeasible plan,
        so a verified result is feasible and :attr:`feasible` does not run
        the per-task pass a second time.
    """

    plan: DecompositionPlan
    problem: SladeProblem
    elapsed_seconds: float
    solver: str
    metadata: Dict[str, Any] = field(default_factory=dict)
    verified: bool = False

    @property
    def total_cost(self) -> float:
        """Total incentive cost of the produced plan."""
        return self.plan.total_cost

    @property
    def feasible(self) -> bool:
        """Whether the plan satisfies every atomic task's threshold.

        Reuses the solve's own verification; only a result solved with
        ``verify=False`` is checked here.
        """
        return self.verified or self.plan.is_feasible(self.problem.task)

    def summary(self) -> Dict[str, Any]:
        """A flat dictionary for experiment reports."""
        info = {
            "solver": self.solver,
            "problem": self.problem.name,
            "n": self.problem.n,
            "m": self.problem.m,
            "total_cost": self.total_cost,
            "elapsed_seconds": self.elapsed_seconds,
            "feasible": self.feasible,
        }
        info.update({f"meta_{k}": v for k, v in self.metadata.items()})
        return info


class Solver(abc.ABC):
    """Abstract base class for SLADE solvers.

    Subclasses implement :meth:`_solve`, returning a
    :class:`~repro.core.plan.DecompositionPlan`; the public :meth:`solve`
    wrapper adds timing, tags the plan with the solver name, and (optionally)
    verifies feasibility.

    Parameters
    ----------
    verify:
        When ``True`` (the default) the produced plan is checked against every
        atomic task's reliability threshold and an
        :class:`~repro.core.errors.InfeasiblePlanError` is raised on failure.
        That is the solve's one verification: the result records it
        (:attr:`SolveResult.verified`), and :attr:`SolveResult.feasible`
        reuses it.  Benchmarks may disable the check to time the pure
        algorithm; ``feasible`` then runs the check each time it is read.
    """

    #: Human-readable solver name; subclasses override.
    name: str = "abstract"

    #: Whether the constructor accepts a ``queue_factory`` keyword through
    #: which a shared OPQ cache can be injected.  Solvers that build optimal
    #: priority queues (Algorithm 2) set this to ``True``; the batch planning
    #: engine checks it before injecting its :class:`~repro.engine.cache.PlanCache`.
    accepts_queue_factory: bool = False

    #: Whether the constructor accepts a ``budget_seconds`` keyword bounding
    #: the wall-clock time of one solve.  The service facade checks it before
    #: forwarding a request's remaining deadline budget (see
    #: :class:`~repro.algorithms.anytime.AnytimeSolver`).
    accepts_budget: bool = False

    def __init__(self, verify: bool = True) -> None:
        self.verify = verify
        self._metadata: Dict[str, Any] = {}

    def solve(self, problem: SladeProblem) -> SolveResult:
        """Solve ``problem`` and return a :class:`SolveResult`."""
        self._metadata: Dict[str, Any] = {}
        watch = Stopwatch()
        with watch:
            plan = self._solve(problem)
        plan.solver = self.name
        if self.verify:
            plan.require_feasible(problem.task)
        return SolveResult(
            plan=plan,
            problem=problem,
            elapsed_seconds=watch.elapsed,
            solver=self.name,
            metadata=dict(self._metadata),
            verified=self.verify,
        )

    def record(self, key: str, value: Any) -> None:
        """Record a metadata value for the current :meth:`solve` call."""
        self._metadata[key] = value

    @abc.abstractmethod
    def _solve(self, problem: SladeProblem) -> DecompositionPlan:
        """Produce a decomposition plan for ``problem``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
