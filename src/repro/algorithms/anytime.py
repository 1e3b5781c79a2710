"""The anytime wrapper: a feasible answer now, the optimal one budget permitting.

The SLADE algorithms are all-or-nothing: Algorithm 3 needs the full optimal
priority queue, and building that queue (Algorithm 2) *is* the latency tail at
production scale.  :class:`AnytimeSolver` hedges between answering early at
coarse quality and late at fine quality:

1. **Cached ladder rung** — if a *complete* OPQ for the instance is already in
   the plan cache, the optimal answer is cheap; take it and stop.
2. **Greedy floor** — otherwise run Algorithm 1 first.  It needs no queue, it
   handles heterogeneous thresholds natively, and its plan is feasible by
   construction, so there is always something to return.
3. **Budgeted refinement** — with budget remaining, run Algorithm 2 under a
   deadline.  Enumeration abandoned at the deadline leaves a *truncated*
   Pareto frontier whose every element still satisfies the threshold, so
   Algorithm 3 over it yields a feasible (possibly suboptimal) plan.  The
   cheapest feasible plan across the rungs wins.

Every built queue is **published** back to the plan cache: a complete frontier
overwrites a coarse one left by an earlier budget-starved request, so the
fleet's cache monotonically refines toward optimality (see
:meth:`repro.engine.cache.PlanCache.publish`).

The result's ``quality`` metadata records how far the ladder got:
``"optimal"`` — refinement ran to completion (the answer is what the
all-or-nothing path would produce, or a cheaper feasible plan); ``"refined"``
— a truncated frontier contributed; ``"greedy"`` — only the immediate
heuristic fit the budget.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.algorithms.base import Solver
from repro.algorithms.greedy import GreedySolver
from repro.algorithms.opq import (
    OptimalPriorityQueue,
    OPQSolver,
    QueueFactory,
    queue_is_complete,
)
from repro.algorithms.opq_vec import build_queue
from repro.algorithms.opq_extended import (
    group_thresholds,
    solve_over_groups,
    ThresholdGroup,
)
from repro.core.errors import InfeasiblePlanError
from repro.core.plan import DecompositionPlan
from repro.core.problem import SladeProblem
from repro.utils.logmath import residual_from_reliability

#: The ladder rung markers carried in solver metadata and response provenance.
QUALITY_OPTIMAL = "optimal"
QUALITY_REFINED = "refined"
QUALITY_GREEDY = "greedy"

#: Below this many seconds of remaining budget, starting an Algorithm 2 run is
#: pointless: the stride-based deadline check cannot stop it much faster.
MIN_REFINE_SECONDS = 1e-4


class AnytimeSolver(Solver):
    """Deadline-aware wrapper over greedy (Algorithm 1) and OPQ (Algorithms 2-5).

    Parameters
    ----------
    verify:
        See :class:`~repro.algorithms.base.Solver`.
    budget_seconds:
        Wall-clock budget for one :meth:`solve` call, measured from entry.
        ``None`` means unbounded: the solver behaves like the plain OPQ path
        (plus the greedy safety net) and always reports ``"optimal"``.
    queue_factory:
        Optional queue supplier.  When the injected object additionally
        exposes ``peek(bins, threshold)`` and ``publish(bins, threshold,
        queue, build_seconds)`` — a :class:`~repro.engine.cache.PlanCache`,
        which is what the batch planner injects, does — cached queues are
        reused without paying for cold builds, and fresh builds are
        published back so refined frontiers overwrite coarse cached ones.
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

        # Rung 1: a complete cached frontier makes the optimal answer cheap.
        cached = [self._peek(problem, t) for t in thresholds]
        if all(q is not None and queue_is_complete(q) for q in cached):
            plan = self._opq_plan(problem, thresholds, cached)
            self.record("quality", QUALITY_OPTIMAL)
            self.record("tier", "cache")
            return plan

        # Rung 2: the greedy floor — always feasible, never queue-bound.
        greedy = GreedySolver(verify=False)
        best = greedy._solve(problem)
        best_cost = best.total_cost
        quality = QUALITY_GREEDY
        tier = "greedy"

        # Rung 3: refine toward the full Pareto frontier, budget permitting.
        remaining = (
            float("inf") if deadline is None else deadline - time.monotonic()
        )
        if remaining > MIN_REFINE_SECONDS:
            refined = self._refine(problem, thresholds, cached, deadline)
            if refined is not None:
                plan, complete, built = refined
                if plan.total_cost <= best_cost:
                    best, best_cost = plan, plan.total_cost
                    tier = "build" if built else "cache"
                quality = QUALITY_OPTIMAL if complete else QUALITY_REFINED
        elif all(q is not None for q in cached):
            # No budget to build, but an earlier request left (possibly
            # truncated) frontiers in the cache: solving over them is cheap
            # and at least as good as greedy more often than not.
            plan = self._opq_plan(problem, thresholds, cached)
            if plan.total_cost <= best_cost:
                best, best_cost = plan, plan.total_cost
                tier = "cache"
            quality = QUALITY_REFINED

        self.record("quality", quality)
        self.record("tier", tier)
        return best

    def _refine(
        self,
        problem: SladeProblem,
        thresholds: List[float],
        cached: List[Optional[OptimalPriorityQueue]],
        deadline: Optional[float],
    ) -> Optional[Tuple[DecompositionPlan, bool, bool]]:
        """Build (or reuse) the per-group queues under the deadline and solve.

        Returns ``(plan, complete, built)`` — whether every frontier is
        exhaustive and whether any queue had to be constructed — or ``None``
        when the budget expired before any frontier element was found (the
        greedy floor stands).
        """
        queues: List[OptimalPriorityQueue] = []
        built = False
        for threshold, hit in zip(thresholds, cached):
            if hit is not None and queue_is_complete(hit):
                queues.append(hit)
                continue
            started = time.monotonic()
            try:
                queue = build_queue(
                    problem.bins, threshold, deadline=deadline,
                    seed=self._seed(problem, threshold),
                )
            except InfeasiblePlanError:
                # Deadline elapsed before a single feasible combination was
                # enumerated (or the instance is genuinely infeasible, in
                # which case the greedy rung already raised).
                return None
            built = True
            self._publish(
                problem, threshold, queue, time.monotonic() - started
            )
            # A stale truncated cache entry is superseded in-process too: the
            # fresh build is at least as refined as what peek returned.
            queues.append(queue)
        complete = all(queue_is_complete(q) for q in queues)
        self.record(
            "refined_groups",
            sum(1 for q in queues if not queue_is_complete(q)),
        )
        plan = self._opq_plan(problem, thresholds, queues)
        return plan, complete, built

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
