"""Algorithms 4-5: the partitioned OPQ solver for heterogeneous SLADE.

When atomic tasks carry different reliability thresholds, the paper partitions
them into groups by powers of two of the *transformed* threshold
``theta_i = -ln(1 - t_i)`` (Algorithm 4).  Each group is upper-bounded by a
single transformed threshold ``tau`` — either the next power-of-two boundary or
``theta_max`` for the last group — and an optimal priority queue is built for
the equivalent reliability ``1 - e^{-tau}``.  Algorithm 5 then runs the
homogeneous OPQ-Based solver independently on every group and concatenates the
per-group plans, which Theorem 3 shows costs at most
``2 * ceil(log(theta_max / theta_min)) * log n`` times the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import Solver
from repro.algorithms.opq import (
    OptimalPriorityQueue,
    OPQSolver,
    QueueFactory,
    build_optimal_priority_queue,
)
from repro.core.bins import TaskBinSet
from repro.core.errors import InvalidProblemError
from repro.core.plan import DecompositionPlan
from repro.core.problem import SladeProblem
from repro.utils.logmath import (
    reliability_from_residual,
    residual_from_reliability,
)


@dataclass(frozen=True)
class ThresholdGroup:
    """One partition cell of the heterogeneous threshold range.

    Attributes
    ----------
    index:
        Group index ``i`` (0-based), matching ``OPQ_i`` in the paper.
    upper_residual:
        The transformed-threshold upper bound ``tau`` of the cell.  Every task
        assigned to the group has ``theta_i <= tau``.
    queue:
        The optimal priority queue built for reliability ``1 - e^{-tau}``.
    """

    index: int
    upper_residual: float
    queue: OptimalPriorityQueue

    @property
    def threshold(self) -> float:
        """The reliability the group's queue guarantees: ``1 - e^{-tau}``."""
        return reliability_from_residual(self.upper_residual)


def partition_boundaries(theta_min: float, theta_max: float) -> List[float]:
    """Compute the power-of-two upper bounds of Algorithm 4.

    The boundaries are ``2^(alpha+1), 2^(alpha+2), ...`` with
    ``alpha = floor(log2(theta_min))``, capped at ``theta_max`` for the final
    group.  Degenerate ranges (all thresholds equal, or ``theta_min`` a power
    of two equal to ``theta_max``) collapse to a single boundary at
    ``theta_max``.
    """
    if theta_min <= 0.0 or theta_max <= 0.0:
        raise InvalidProblemError("transformed thresholds must be positive")
    if theta_min > theta_max:
        raise InvalidProblemError("theta_min must not exceed theta_max")

    alpha = math.floor(math.log2(theta_min))
    boundaries: List[float] = []
    i = 0
    while 2.0 ** (alpha + i) < theta_max:
        upper = 2.0 ** (alpha + i + 1)
        if upper > theta_max:
            upper = theta_max
        boundaries.append(upper)
        i += 1
    if not boundaries:
        boundaries.append(theta_max)
    return boundaries


def _group_boundaries(thresholds: Sequence[float]) -> List[float]:
    """The residual-space upper bounds of the Algorithm 4 groups."""
    if not thresholds:
        raise InvalidProblemError("thresholds must not be empty")
    residuals = [residual_from_reliability(t) for t in thresholds]
    return partition_boundaries(min(residuals), max(residuals))


def group_thresholds(thresholds: Sequence[float]) -> List[float]:
    """The reliability each Algorithm 4 group's queue is built for.

    This exposes the group boundaries *without* paying for queue
    construction, so the batch planning engine can pre-warm its OPQ cache
    before dispatching heterogeneous instances to worker processes.  It
    shares :func:`_group_boundaries` with :func:`build_opq_set`, so the two
    can never disagree on which queues an instance needs.
    """
    return [reliability_from_residual(upper) for upper in _group_boundaries(thresholds)]


def build_opq_set(
    bins: TaskBinSet,
    thresholds: Sequence[float],
    queue_factory: Optional[QueueFactory] = None,
) -> List[ThresholdGroup]:
    """Algorithm 4: build one optimal priority queue per threshold interval.

    Parameters
    ----------
    bins:
        The task bin set ``B``.
    thresholds:
        The reliability thresholds ``t_1..t_n`` of the atomic tasks.
    queue_factory:
        Optional queue supplier (defaults to a cold
        :func:`~repro.algorithms.opq.build_optimal_priority_queue` run); the
        batch planning engine passes a cache here so repeated group
        thresholds across instances construct each queue only once.

    Returns
    -------
    list of ThresholdGroup
        Groups ordered by increasing upper bound; the last group's bound is
        exactly ``theta_max`` so no task over-pays beyond the paper's 2x
        rounding factor.
    """
    factory = (
        build_optimal_priority_queue if queue_factory is None else queue_factory
    )
    boundaries = _group_boundaries(thresholds)
    groups: List[ThresholdGroup] = []
    for index, upper in enumerate(boundaries):
        reliability = reliability_from_residual(upper)
        queue = factory(bins, reliability)
        groups.append(ThresholdGroup(index, upper, queue))
    return groups


def assign_to_groups(
    residuals: Dict[int, float],
    groups: Sequence[ThresholdGroup],
) -> Dict[int, List[int]]:
    """Algorithm 5 lines 5-7: map task ids to the lowest group covering them.

    Parameters
    ----------
    residuals:
        Mapping of atomic task id to transformed threshold ``theta_i``.
    groups:
        The threshold groups from :func:`build_opq_set`.

    Returns
    -------
    dict
        Mapping of group index to the list of task ids assigned to it.
    """
    membership: Dict[int, List[int]] = {group.index: [] for group in groups}
    for task_id, theta in residuals.items():
        chosen: Optional[ThresholdGroup] = None
        for group in groups:
            if theta <= group.upper_residual + 1e-12:
                chosen = group
                break
        if chosen is None:
            # Floating point drift can push theta_max marginally above the last
            # boundary; the last group is the correct home in that case.
            chosen = groups[-1]
        membership[chosen.index].append(task_id)
    return membership


def solve_over_groups(
    problem: SladeProblem,
    groups: Sequence[ThresholdGroup],
) -> Tuple[DecompositionPlan, Dict[int, int]]:
    """Algorithm 5's group loop: Algorithm 3 per group over its prebuilt queue.

    Every task goes to the lowest group covering its transformed threshold
    (:func:`assign_to_groups`) and is solved against that group's upper
    bound, which dominates each individual threshold in the group.  The
    per-group plans are concatenated in group order.  Returns the plan and
    the number of tasks each group received.
    """
    residuals = {
        atomic.task_id: residual_from_reliability(atomic.threshold)
        for atomic in problem.task
    }
    membership = assign_to_groups(residuals, groups)
    plan = DecompositionPlan()
    group_sizes: Dict[int, int] = {}
    for group in groups:
        task_ids = membership[group.index]
        group_sizes[group.index] = len(task_ids)
        if not task_ids:
            continue
        sub_problem = SladeProblem(
            problem.task.subset(
                task_ids, name=f"{problem.task.name}-group{group.index}"
            ),
            problem.bins,
            name=f"{problem.name}-group{group.index}",
        )
        sub_solver = OPQSolver(verify=False, prebuilt_queue=group.queue)
        plan.extend(sub_solver._solve(sub_problem))
    return plan, group_sizes


class OPQExtendedSolver(Solver):
    """Algorithm 5: OPQ-Extended for the heterogeneous SLADE problem.

    The solver also accepts homogeneous instances (they form a single group),
    so experiment sweeps can use it uniformly.

    Parameters
    ----------
    verify:
        See :class:`~repro.algorithms.base.Solver`.
    queue_factory:
        Optional queue supplier forwarded to :func:`build_opq_set`; the batch
        planning engine injects its shared OPQ cache here.
    """

    name = "opq-extended"
    accepts_queue_factory = True

    def __init__(
        self,
        verify: bool = True,
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(verify=verify)
        self._queue_factory = queue_factory

    def _solve(self, problem: SladeProblem) -> DecompositionPlan:
        groups = build_opq_set(
            problem.bins, problem.task.thresholds,
            queue_factory=self._queue_factory,
        )
        plan, group_sizes = solve_over_groups(problem, groups)
        self.record("groups", len(groups))
        self.record("group_sizes", group_sizes)
        return plan
