"""Decomposition plans: the output of every SLADE solver.

A plan is a multiset of *bin assignments*.  Each assignment posts one task bin
``b_l`` to the crowd with a concrete set of at most ``l`` atomic tasks inside.
The plan exposes the two quantities the paper optimises and constrains:

* the total incentive cost ``sum_i tau_i * c_i`` (Definition 3), and
* the reliability each atomic task reaches through the bins it appears in
  (Definition 2).

Plans are plain data: solvers build them, the experiment harness prices them,
and the crowd simulator executes them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.bins import TaskBin
from repro.core.errors import InfeasiblePlanError, InvalidBinError
from repro.core.task import CrowdsourcingTask
from repro.utils.logmath import (
    RESIDUAL_EPSILON,
    reliability_from_residual,
    residual_from_reliability,
)


@dataclass(frozen=True)
class BinAssignment:
    """One posting of a task bin holding a concrete set of atomic tasks.

    Attributes
    ----------
    task_bin:
        The ``l``-cardinality bin posted to the crowd.
    task_ids:
        Identifiers of the atomic tasks packed into this posting.  At most
        ``task_bin.cardinality`` distinct tasks; fewer is allowed (the last
        posting of a plan is often partially filled) and the full bin cost is
        still paid, exactly as on a real platform.
    """

    task_bin: TaskBin
    task_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.task_ids) == 0:
            raise InvalidBinError("a bin assignment must contain at least one atomic task")
        if len(set(self.task_ids)) != len(self.task_ids):
            raise InvalidBinError(
                f"a bin assignment cannot repeat an atomic task: {self.task_ids}"
            )
        if len(self.task_ids) > self.task_bin.cardinality:
            raise InvalidBinError(
                f"{len(self.task_ids)} tasks exceed bin cardinality "
                f"{self.task_bin.cardinality}"
            )

    @property
    def cost(self) -> float:
        """Incentive cost of this posting (the full bin cost)."""
        return self.task_bin.cost

    @property
    def fill_ratio(self) -> float:
        """Fraction of the bin's capacity actually used."""
        return len(self.task_ids) / self.task_bin.cardinality

    def __str__(self) -> str:
        ids = ",".join(str(i) for i in self.task_ids)
        return f"{self.task_bin.cardinality}-bin[{ids}]"


class DecompositionPlan:
    """A complete decomposition plan ``DP_T`` for a large-scale task.

    Parameters
    ----------
    assignments:
        The bin postings making up the plan.
    solver:
        Optional name of the algorithm that produced the plan, carried along
        for experiment reports.
    """

    def __init__(
        self,
        assignments: Iterable[BinAssignment] = (),
        solver: Optional[str] = None,
    ) -> None:
        self._assignments: List[BinAssignment] = list(assignments)
        self.solver = solver

    # -- mutation (used by solvers while building) ------------------------------

    def add(self, task_bin: TaskBin, task_ids: Sequence[int]) -> BinAssignment:
        """Append a posting of ``task_bin`` holding ``task_ids`` and return it."""
        assignment = BinAssignment(task_bin, tuple(task_ids))
        self._assignments.append(assignment)
        return assignment

    def extend(self, other: "DecompositionPlan") -> None:
        """Append every assignment of ``other`` to this plan.

        The heterogeneous solver merges the per-group plans this way
        (Algorithm 5, line 15).
        """
        self._assignments.extend(other.assignments)

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._assignments)

    def __iter__(self) -> Iterator[BinAssignment]:
        return iter(self._assignments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecompositionPlan(assignments={len(self)}, "
            f"cost={self.total_cost:.4f}, solver={self.solver!r})"
        )

    @property
    def assignments(self) -> List[BinAssignment]:
        """The bin postings in insertion order."""
        return list(self._assignments)

    # -- cost accounting ----------------------------------------------------------

    @property
    def total_cost(self) -> float:
        """Total incentive cost ``sum_i tau_i c_i`` of the plan."""
        return sum(assignment.cost for assignment in self._assignments)

    def bin_usage(self) -> Dict[int, int]:
        """How many times each bin cardinality is posted (the ``tau_i`` values)."""
        usage: Counter = Counter()
        for assignment in self._assignments:
            usage[assignment.task_bin.cardinality] += 1
        return dict(usage)

    def cost_per_task(self, task: CrowdsourcingTask) -> float:
        """Average incentive cost per atomic task of ``task``."""
        return self.total_cost / len(task)

    # -- reliability accounting ------------------------------------------------------

    def residuals(self) -> Dict[int, float]:
        """Accumulated residual reliability per atomic task id.

        Tasks never mentioned by the plan are simply absent from the mapping.
        """
        totals: Dict[int, float] = defaultdict(float)
        # One log per bin, not per posting; postings share their bin objects.
        contributions: Dict[int, float] = {}
        for assignment in self._assignments:
            task_bin = assignment.task_bin
            contribution = contributions.get(id(task_bin))
            if contribution is None:
                contribution = contributions[id(task_bin)] = (
                    task_bin.residual_contribution
                )
            for task_id in assignment.task_ids:
                totals[task_id] += contribution
        return dict(totals)

    def reliabilities(self) -> Dict[int, float]:
        """Achieved reliability ``Rel(a_i, B(a_i))`` per atomic task id."""
        return {
            task_id: reliability_from_residual(residual)
            for task_id, residual in self.residuals().items()
        }

    def reliability_of(self, task_id: int) -> float:
        """Achieved reliability of one atomic task (0.0 when unassigned)."""
        return self.reliabilities().get(task_id, 0.0)

    def assignments_of(self, task_id: int) -> List[BinAssignment]:
        """All postings that include the given atomic task."""
        return [a for a in self._assignments if task_id in a.task_ids]

    # -- feasibility -------------------------------------------------------------------

    def unsatisfied_tasks(self, task: CrowdsourcingTask) -> List[int]:
        """Identifiers of atomic tasks whose reliability threshold is not met.

        Every task is checked against the residual its own postings add up
        to; only the demand ``-ln(1 - t)`` is computed once per distinct
        threshold.
        """
        residuals = self.residuals()
        thresholds = task.thresholds
        demands = {
            threshold: residual_from_reliability(threshold)
            for threshold in set(thresholds)
        }
        return [
            task_id
            for task_id, threshold in zip(task.task_ids, thresholds)
            if residuals.get(task_id, 0.0) + RESIDUAL_EPSILON < demands[threshold]
        ]

    def is_feasible(self, task: CrowdsourcingTask) -> bool:
        """Whether every atomic task of ``task`` meets its threshold."""
        return not self.unsatisfied_tasks(task)

    def require_feasible(self, task: CrowdsourcingTask) -> "DecompositionPlan":
        """Raise :class:`InfeasiblePlanError` unless the plan is feasible.

        Returns the plan itself so callers can chain the check.
        """
        failing = self.unsatisfied_tasks(task)
        if failing:
            preview = ", ".join(str(i) for i in failing[:10])
            suffix = "..." if len(failing) > 10 else ""
            raise InfeasiblePlanError(
                f"plan ({self.solver or 'unknown solver'}) leaves {len(failing)} "
                f"atomic task(s) below their reliability threshold: {preview}{suffix}"
            )
        return self

    # -- reporting ----------------------------------------------------------------------

    def summary(self, task: Optional[CrowdsourcingTask] = None) -> Dict[str, object]:
        """A compact dictionary describing the plan for reports and logs."""
        info: Dict[str, object] = {
            "solver": self.solver,
            "assignments": len(self._assignments),
            "total_cost": self.total_cost,
            "bin_usage": self.bin_usage(),
        }
        if task is not None:
            info["n_tasks"] = len(task)
            info["feasible"] = self.is_feasible(task)
            info["cost_per_task"] = self.cost_per_task(task)
            reliabilities = self.reliabilities()
            covered = [reliabilities.get(task_id, 0.0) for task_id in task.task_ids]
            info["min_reliability"] = min(covered)
            info["mean_reliability"] = sum(covered) / len(covered)
        return info
