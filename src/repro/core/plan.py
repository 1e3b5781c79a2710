"""Decomposition plans: the output of every SLADE solver.

A plan is a multiset of *bin assignments*.  Each assignment posts one task bin
``b_l`` to the crowd with a concrete set of at most ``l`` atomic tasks inside.
Algorithm 3 repeats one combination over many blocks of tasks, so its plans
hold those repetitions as *block runs*, which expand into assignments only
when a caller iterates the plan.
The plan exposes the two quantities the paper optimises and constrains:

* the total incentive cost ``sum_i tau_i * c_i`` (Definition 3), and
* the reliability each atomic task reaches through the bins it appears in
  (Definition 2).

Plans are plain data: solvers build them, the experiment harness prices them,
and the crowd simulator executes them.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.bins import TaskBin
from repro.core.errors import InfeasiblePlanError, InvalidBinError, InvalidProblemError
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


@dataclass(frozen=True)
class BlockRun:
    """One combination applied to consecutive blocks of a task-id slice.

    ``task_ids`` is cut into blocks of ``combination.lcm`` ids, the last one
    possibly partial, and each block expands through
    :meth:`~repro.algorithms.opq.Combination.postings_for_block`, the one
    expansion routine.  The run's postings are therefore exactly the ones
    Algorithm 3 would add block by block.

    Attributes
    ----------
    combination:
        A :class:`~repro.algorithms.opq.Combination` (its ``lcm``,
        ``counts`` and ``bins`` are read).
    task_ids:
        The atomic tasks the run covers, in block order.
    """

    combination: Any
    task_ids: Sequence[int]

    def postings(self) -> Iterator[BinAssignment]:
        """Build the run's postings, block by block."""
        ids = self.task_ids
        lcm = self.combination.lcm
        postings_for_block = self.combination.postings_for_block
        for start in range(0, len(ids), lcm):
            for task_bin, members in postings_for_block(ids[start:start + lcm]):
                yield BinAssignment(task_bin, members)

    def _block_sizes(self) -> List[Tuple[int, int]]:
        """``(block size, block count)`` pairs: the full blocks, then the rest."""
        lcm = self.combination.lcm
        full, rest = divmod(len(self.task_ids), lcm)
        return [(size, count) for size, count in ((lcm, full), (rest, 1)) if size and count]

    def _block_postings(self, size: int) -> List[Tuple[TaskBin, int]]:
        """``(bin, postings)`` in posting order for a block of ``size`` ids."""
        bins = self.combination.bins
        return [
            (bins[cardinality], count * -(-size // cardinality))
            for cardinality, count in self.combination.counts
        ]

    def posting_count(self) -> int:
        """How many postings the run expands to."""
        return sum(
            blocks * postings
            for size, blocks in self._block_sizes()
            for _bin, postings in self._block_postings(size)
        )

    def costs(self) -> Iterator[float]:
        """The cost of each posting, in plan order, without building them."""
        blocks = (
            repeat([
                task_bin.cost
                for task_bin, postings in self._block_postings(size)
                for _ in range(postings)
            ], count)
            for size, count in self._block_sizes()
        )
        return chain.from_iterable(chain.from_iterable(blocks))

    def contributions(self) -> List[float]:
        """The residual each task of the run receives from each of its
        postings, in plan order; every task receives the same sequence."""
        bins = self.combination.bins
        return [
            bins[cardinality].residual_contribution
            for cardinality, count in self.combination.counts
            for _ in range(count)
        ]


class DecompositionPlan:
    """A complete decomposition plan ``DP_T`` for a large-scale task.

    The plan is one ordered list of segments: postings appended by
    :meth:`add` and block runs appended by :meth:`add_run`.  Iteration
    expands the runs in place, so callers see one posting sequence either
    way.  The count, the cost and the feasibility check read the runs
    without building their postings.

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
        self._segments: List[Union[BinAssignment, BlockRun]] = list(assignments)
        self._size = len(self._segments)
        self.solver = solver

    # -- mutation (used by solvers while building) ------------------------------

    def add(self, task_bin: TaskBin, task_ids: Sequence[int]) -> BinAssignment:
        """Append a posting of ``task_bin`` holding ``task_ids`` and return it."""
        assignment = BinAssignment(task_bin, tuple(task_ids))
        self._segments.append(assignment)
        self._size += 1
        return assignment

    def add_run(self, combination: Any, task_ids: Sequence[int], blocks: int = 1) -> None:
        """Append ``blocks`` applications of ``combination`` over ``task_ids``.

        The ids are covered in order, ``combination.lcm`` per block; the last
        block may be partially filled and still pays full bin prices (see
        :class:`BlockRun`).

        Raises
        ------
        InvalidProblemError
            If ``task_ids`` holds more than ``blocks`` blocks.
        """
        lcm = combination.lcm
        if len(task_ids) > blocks * lcm:
            raise InvalidProblemError(
                f"block of {len(task_ids)} tasks exceeds combination LCM {lcm}"
                if blocks == 1 else
                f"{len(task_ids)} tasks exceed {blocks} blocks of combination LCM {lcm}"
            )
        if task_ids:
            run = BlockRun(combination, task_ids)
            self._segments.append(run)
            self._size += run.posting_count()

    def extend(self, other: "DecompositionPlan") -> None:
        """Append every assignment of ``other`` to this plan.

        The heterogeneous solver merges the per-group plans this way
        (Algorithm 5, line 15).
        """
        self._segments.extend(other._segments)
        self._size += other._size

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[BinAssignment]:
        for segment in self._segments:
            if isinstance(segment, BlockRun):
                yield from segment.postings()
            else:
                yield segment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecompositionPlan(assignments={len(self)}, "
            f"cost={self.total_cost:.4f}, solver={self.solver!r})"
        )

    @property
    def assignments(self) -> List[BinAssignment]:
        """The bin postings in insertion order."""
        return list(self)

    # -- cost accounting ----------------------------------------------------------

    @property
    def total_cost(self) -> float:
        """Total incentive cost ``sum_i tau_i c_i`` of the plan.

        One left-to-right sum over the postings in plan order.  The builtin
        ``sum`` is compensated from Python 3.12 on and would round
        differently from one interpreter to the next.
        """
        costs = chain.from_iterable(
            segment.costs() if isinstance(segment, BlockRun) else (segment.cost,)
            for segment in self._segments
        )
        return reduce(operator.add, costs, 0.0)

    def bin_usage(self) -> Dict[int, int]:
        """How many times each bin cardinality is posted (the ``tau_i`` values)."""
        usage: Counter = Counter()
        for assignment in self:
            usage[assignment.task_bin.cardinality] += 1
        return dict(usage)

    def cost_per_task(self, task: CrowdsourcingTask) -> float:
        """Average incentive cost per atomic task of ``task``."""
        return self.total_cost / len(task)

    # -- reliability accounting ------------------------------------------------------

    def residuals(self) -> Dict[int, float]:
        """Accumulated residual reliability per atomic task id.

        Tasks never mentioned by the plan are simply absent from the mapping.
        Each task's residual is summed posting by posting, in plan order.  A
        block run gives every task it covers the same contributions in the
        same order, so for the tasks it is the first to reach that sum is
        computed once per run.
        """
        totals: Dict[int, float] = {}
        # One log per bin, not per posting; postings share their bin objects.
        contributions: Dict[int, float] = {}
        for segment in self._segments:
            if isinstance(segment, BlockRun):
                steps = segment.contributions()
                run_total = 0.0
                for step in steps:
                    run_total += step
                fresh = dict.fromkeys(segment.task_ids, run_total)
                if len(fresh) == len(segment.task_ids) and totals.keys().isdisjoint(
                    fresh.keys()
                ):
                    # No task of the run has a residual yet, and each is in
                    # one block: each one's sum from 0.0 is ``run_total``.
                    if totals:
                        totals.update(fresh)
                    else:
                        totals = fresh
                    continue
                for task_id in segment.task_ids:
                    total = totals.get(task_id, 0.0)
                    for step in steps:
                        total += step
                    totals[task_id] = total
                continue
            task_bin = segment.task_bin
            contribution = contributions.get(id(task_bin))
            if contribution is None:
                contribution = contributions[id(task_bin)] = (
                    task_bin.residual_contribution
                )
            for task_id in segment.task_ids:
                totals[task_id] = totals.get(task_id, 0.0) + contribution
        return totals

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
        return [a for a in self if task_id in a.task_ids]

    # -- feasibility -------------------------------------------------------------------

    def unsatisfied_tasks(self, task: CrowdsourcingTask) -> List[int]:
        """Identifiers of atomic tasks whose reliability threshold is not met.

        Every task is judged against the residual its own postings add up
        to; only the demand ``-ln(1 - t)`` is computed once per distinct
        threshold.  When the smallest residual of the task's ids meets the
        largest demand, no task can fail (float addition is monotone), and
        the per-task list is skipped.
        """
        residuals = self.residuals()
        task_ids = task.task_ids
        thresholds = task.thresholds
        demands = {
            threshold: residual_from_reliability(threshold)
            for threshold in (thresholds[:1] if task.is_homogeneous else set(thresholds))
        }
        weakest = min(map(residuals.get, task_ids, repeat(0.0)))
        if weakest + RESIDUAL_EPSILON >= max(demands.values()):
            return []
        return [
            task_id
            for task_id, threshold in zip(task_ids, thresholds)
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
            "assignments": len(self),
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
            info["mean_reliability"] = reduce(operator.add, covered, 0.0) / len(covered)
        return info
