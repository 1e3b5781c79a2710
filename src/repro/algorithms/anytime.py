"""The anytime wrapper: the optimal answer within the budget, greedy otherwise.

Algorithm 3 needs the full optimal priority queue, and Algorithm 2 builds it
all or nothing: a build either returns the full Pareto frontier or
raises :class:`~repro.algorithms.opq.BuildAbandoned` at its deadline.
:class:`AnytimeSolver` orders its ladder by cost:

1. **Cache** — when the plan cache already holds every queue the instance
   needs, Algorithm 3 (or the Algorithm 5 group loop) runs over them.
2. **Build** — otherwise Algorithm 2 builds each missing queue under the
   deadline.  A finished build is **published** to the plan cache, so the
   fleet reuses it; an abandoned one publishes nothing.
3. **Greedy** — only when a build was abandoned does Algorithm 1 answer.
   It needs no queue and its plan is feasible by construction.

The first two rungs answer with exactly the ``opq`` plan (homogeneous) or
the ``opq-extended`` plan (heterogeneous), whether the cache was cold or
warm.  The result's ``quality`` metadata is ``"optimal"`` for them and
``"greedy"`` for the third; ``tier`` names the rung that answered
(``"cache"``, ``"build"`` or ``"greedy"``).
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.algorithms.base import Solver
from repro.algorithms.greedy import GreedySolver
from repro.algorithms.opq import (
    BuildAbandoned,
    OptimalPriorityQueue,
    OPQSolver,
    QueueFactory,
)
from repro.algorithms.opq_vec import build_queue
from repro.algorithms.opq_extended import (
    group_thresholds,
    solve_over_groups,
    ThresholdGroup,
)
from repro.core.plan import DecompositionPlan
from repro.core.problem import SladeProblem
from repro.utils.logmath import residual_from_reliability

#: The ladder rung markers carried in solver metadata and response provenance.
QUALITY_OPTIMAL = "optimal"
QUALITY_GREEDY = "greedy"


class AnytimeSolver(Solver):
    """Deadline-aware wrapper over greedy (Algorithm 1) and OPQ (Algorithms 2-5).

    Parameters
    ----------
    verify:
        See :class:`~repro.algorithms.base.Solver`.
    budget_seconds:
        Wall-clock budget for one :meth:`solve` call, measured from entry.
        ``None`` means unbounded: no build is ever abandoned, so the solver
        answers like the plain OPQ path and always reports ``"optimal"``.
    queue_factory:
        Optional queue supplier.  When the injected object additionally
        exposes ``peek(bins, threshold)`` and ``publish(bins, threshold,
        queue, build_seconds)`` — a :class:`~repro.engine.cache.PlanCache`,
        which is what the batch planner injects, does — cached queues are
        reused without paying for cold builds, and fresh builds are
        published back for later requests.
    """

    name = "anytime"
    accepts_queue_factory = True
    accepts_budget = True

    def __init__(
        self,
        verify: bool = True,
        budget_seconds: Optional[float] = None,
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(verify=verify)
        if budget_seconds is not None and budget_seconds < 0:
            raise ValueError(
                f"budget_seconds must be >= 0; got {budget_seconds}"
            )
        self.budget_seconds = budget_seconds
        self._queue_factory = queue_factory

    # -- cache plumbing (duck-typed off the injected factory) -----------------

    def _peek(self, problem: SladeProblem, threshold: float):
        peek = getattr(self._queue_factory, "peek", None)
        if peek is None:
            return None
        return peek(problem.bins, threshold)

    def _seed(self, problem: SladeProblem, threshold: float):
        """Warm-start elements from the cache's plan curve, when it has one."""
        seed_for = getattr(self._queue_factory, "seed_for", None)
        if seed_for is None:
            return None
        return seed_for(problem.bins, threshold)

    def _publish(
        self,
        problem: SladeProblem,
        threshold: float,
        queue: OptimalPriorityQueue,
        build_seconds: float,
    ) -> None:
        publish = getattr(self._queue_factory, "publish", None)
        if publish is not None:
            publish(problem.bins, threshold, queue, build_seconds)

    # -- the ladder ------------------------------------------------------------

    def _solve(self, problem: SladeProblem) -> DecompositionPlan:
        deadline = (
            None if self.budget_seconds is None
            else time.monotonic() + self.budget_seconds
        )
        self.record("budget_seconds", self.budget_seconds)
        thresholds = self._group_reliabilities(problem)
        queues = [self._peek(problem, t) for t in thresholds]
        tier = "cache"
        try:
            for index, threshold in enumerate(thresholds):
                if queues[index] is None:
                    queues[index] = self._build(problem, threshold, deadline)
                    tier = "build"
        except BuildAbandoned:
            self.record("quality", QUALITY_GREEDY)
            self.record("tier", "greedy")
            return GreedySolver(verify=False)._solve(problem)
        self.record("quality", QUALITY_OPTIMAL)
        self.record("tier", tier)
        return self._opq_plan(problem, thresholds, queues)

    def _build(
        self,
        problem: SladeProblem,
        threshold: float,
        deadline: Optional[float],
    ) -> OptimalPriorityQueue:
        """Algorithm 2 under the deadline; a finished queue is published."""
        started = time.monotonic()
        queue = build_queue(
            problem.bins, threshold, deadline=deadline,
            seed=self._seed(problem, threshold),
        )
        self._publish(problem, threshold, queue, time.monotonic() - started)
        return queue

    # -- OPQ dispatch over prebuilt queues -------------------------------------

    @staticmethod
    def _group_reliabilities(problem: SladeProblem) -> List[float]:
        """The reliability each needed queue is built for (one per group)."""
        if problem.is_homogeneous:
            return [problem.homogeneous_threshold]
        return group_thresholds(problem.task.thresholds)

    def _opq_plan(
        self,
        problem: SladeProblem,
        thresholds: List[float],
        queues: List[OptimalPriorityQueue],
    ) -> DecompositionPlan:
        """Algorithm 3 (or the Algorithm 5 group loop) over prebuilt queues."""
        if problem.is_homogeneous:
            solver = OPQSolver(verify=False, prebuilt_queue=queues[0])
            return solver._solve(problem)
        groups = [
            ThresholdGroup(index, residual_from_reliability(threshold), queue)
            for index, (threshold, queue) in enumerate(zip(thresholds, queues))
        ]
        plan, _group_sizes = solve_over_groups(problem, groups)
        return plan
