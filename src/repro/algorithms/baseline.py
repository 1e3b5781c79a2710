"""Section 4.3: the covering-integer-program (CIP) baseline.

The paper reduces SLADE to a CIP: every way of filling an ``l``-cardinality
task bin with a concrete set of atomic tasks is a *column* ``j`` with cost
``c_l``; a column contributes ``-ln(1 - r_l)`` towards the residual demand
``-ln(1 - t_i)`` of every task it contains.  The CIP asks for non-negative
integer multiplicities ``y_j`` minimising total cost subject to the coverage
constraints.  Because the full column set has ``sum_l C(n, l)`` members, the
paper "only generate[s] part of the combination instances"; this implementation
does the same, then solves the LP relaxation with ``scipy`` and applies
randomized rounding followed by a greedy repair pass to restore feasibility.

To keep the LP tractable at the paper's instance sizes (up to 100k atomic
tasks) the baseline processes the task set in fixed-size chunks and
concatenates the per-chunk plans.  This mirrors how the exponential reduction
must be truncated in practice and keeps the baseline's qualitative behaviour
from the paper: feasible, but the least cost-effective of the three solvers and
noticeably sensitive to the available bin cardinalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import Solver
from repro.core.bins import TaskBin
from repro.core.errors import InfeasiblePlanError
from repro.core.plan import DecompositionPlan
from repro.core.problem import SladeProblem
from repro.core.task import AtomicTask
from repro.utils.logmath import RESIDUAL_EPSILON, residual_from_reliability
from repro.utils.rng import RandomSource, ensure_rng


@dataclass(frozen=True)
class _Column:
    """One generated CIP column: a task bin filled with concrete tasks."""

    task_bin: TaskBin
    task_ids: Tuple[int, ...]

    @property
    def cost(self) -> float:
        return self.task_bin.cost

    @property
    def contribution(self) -> float:
        return self.task_bin.residual_contribution


class CIPBaselineSolver(Solver):
    """LP-relaxation + randomized-rounding baseline for SLADE.

    Parameters
    ----------
    chunk_size:
        Number of atomic tasks handled per CIP instance.  Larger chunks give
        the LP more freedom but grow the constraint matrix quadratically.
    random_columns_per_task:
        How many additional random columns (beyond the systematic consecutive
        blocks) to generate per task in a chunk, emulating the paper's partial
        enumeration of combination instances.
    rounding_boost:
        Scaling factor applied to the fractional LP solution before rounding;
        the classic CIP analysis uses ``O(log n)`` — the default derives it
        from the chunk size.
    seed:
        Seed (or generator) driving column sampling and randomized rounding.
    verify:
        See :class:`~repro.algorithms.base.Solver`.
    """

    name = "baseline"

    def __init__(
        self,
        chunk_size: int = 256,
        random_columns_per_task: int = 2,
        rounding_boost: Optional[float] = None,
        seed: RandomSource = 0,
        verify: bool = True,
    ) -> None:
        super().__init__(verify=verify)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive; got {chunk_size}")
        self.chunk_size = chunk_size
        self.random_columns_per_task = max(0, random_columns_per_task)
        self.rounding_boost = rounding_boost
        self._rng = ensure_rng(seed)

    # -- public entry point -----------------------------------------------------

    def _solve(self, problem: SladeProblem) -> DecompositionPlan:
        plan = DecompositionPlan(solver=self.name)
        tasks = problem.atomic_tasks
        lp_calls = 0
        columns_generated = 0
        for start in range(0, len(tasks), self.chunk_size):
            chunk = tasks[start:start + self.chunk_size]
            generated = self._solve_chunk(problem, chunk, plan)
            columns_generated += generated
            lp_calls += 1
        self.record("lp_calls", lp_calls)
        self.record("columns_generated", columns_generated)
        return plan

    # -- chunk pipeline -----------------------------------------------------------

    def _solve_chunk(
        self,
        problem: SladeProblem,
        chunk: Sequence[AtomicTask],
        plan: DecompositionPlan,
    ) -> int:
        """Generate columns, solve the LP, round, repair; append to ``plan``."""
        columns = self._generate_columns(problem, chunk)
        demands = {
            atomic.task_id: residual_from_reliability(atomic.threshold)
            for atomic in chunk
        }
        fractional = self._solve_lp(columns, demands)
        counts = self._randomized_rounding(fractional, len(chunk))
        achieved = self._apply_counts(columns, counts, plan)
        self._greedy_repair(problem, demands, achieved, plan)
        return len(columns)

    def _generate_columns(
        self,
        problem: SladeProblem,
        chunk: Sequence[AtomicTask],
    ) -> List[_Column]:
        """Generate a tractable subset of the exponential CIP column space.

        Two families are produced: systematic consecutive blocks (every task is
        covered by at least one column of every cardinality) and uniformly
        random fills (the paper's arbitrary combination instances).
        """
        task_ids = [atomic.task_id for atomic in chunk]
        columns: List[_Column] = []
        for task_bin in problem.bins:
            cardinality = task_bin.cardinality
            for start in range(0, len(task_ids), cardinality):
                members = tuple(task_ids[start:start + cardinality])
                if members:
                    columns.append(_Column(task_bin, members))
            random_columns = self.random_columns_per_task * max(
                1, len(task_ids) // cardinality
            )
            for _ in range(random_columns):
                size = min(cardinality, len(task_ids))
                members = tuple(
                    sorted(
                        int(i)
                        for i in self._rng.choice(task_ids, size=size, replace=False)
                    )
                )
                columns.append(_Column(task_bin, members))
        return columns

    def _solve_lp(
        self,
        columns: Sequence[_Column],
        demands: Dict[int, float],
    ) -> np.ndarray:
        """Solve the LP relaxation ``min c^T y  s.t.  U y >= v, y >= 0``."""
        # Imported here, not at module level: scipy roughly doubles the
        # import time and memory of a server that never runs this baseline.
        from scipy import sparse
        from scipy.optimize import linprog

        task_index = {task_id: row for row, task_id in enumerate(demands)}
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for j, column in enumerate(columns):
            for task_id in column.task_ids:
                rows.append(task_index[task_id])
                cols.append(j)
                data.append(column.contribution)
        coverage = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(demands), len(columns))
        )
        costs = np.array([column.cost for column in columns])
        demand_vector = np.array([demands[t] for t in demands])

        result = linprog(
            c=costs,
            A_ub=-coverage,
            b_ub=-demand_vector,
            bounds=(0, None),
            method="highs",
        )
        if not result.success:  # pragma: no cover - scipy failure is exceptional
            raise InfeasiblePlanError(
                f"LP relaxation of the CIP failed: {result.message}"
            )
        return np.asarray(result.x)

    def _randomized_rounding(self, fractional: np.ndarray, chunk_size: int) -> np.ndarray:
        """Round the fractional LP solution to integer multiplicities.

        Each ``y_j`` is scaled by the boost factor and rounded up with
        probability equal to its fractional part (otherwise down), the standard
        randomized-rounding scheme for covering programs.
        """
        boost = self.rounding_boost
        if boost is None:
            boost = max(1.0, math.log(max(2, chunk_size)) / 2.0)
        scaled = fractional * boost
        floors = np.floor(scaled)
        fractions = scaled - floors
        draws = self._rng.random(len(scaled))
        return (floors + (draws < fractions)).astype(int)

    def _apply_counts(
        self,
        columns: Sequence[_Column],
        counts: np.ndarray,
        plan: DecompositionPlan,
    ) -> Dict[int, float]:
        """Add the rounded columns to the plan; return residual achieved per task."""
        achieved: Dict[int, float] = {}
        for column, count in zip(columns, counts):
            for _ in range(int(count)):
                plan.add(column.task_bin, column.task_ids)
                for task_id in column.task_ids:
                    achieved[task_id] = achieved.get(task_id, 0.0) + column.contribution
        return achieved

    def _greedy_repair(
        self,
        problem: SladeProblem,
        demands: Dict[int, float],
        achieved: Dict[int, float],
        plan: DecompositionPlan,
    ) -> None:
        """Cover any tasks the rounding left short.

        Unsatisfied tasks are patched with the single most cost-effective bin
        (lowest cost per unit of residual), filled greedily with other
        still-unsatisfied tasks so the repair does not distort the baseline's
        cost more than necessary.
        """
        shortfall = {
            task_id: demand - achieved.get(task_id, 0.0)
            for task_id, demand in demands.items()
            if demand - achieved.get(task_id, 0.0) > RESIDUAL_EPSILON
        }
        if not shortfall:
            return
        best_bin = min(
            (b for b in problem.bins if b.residual_contribution > 0.0),
            key=lambda b: b.cost / b.residual_contribution,
        )
        contribution = best_bin.residual_contribution
        while shortfall:
            pending = sorted(shortfall, key=lambda t: -shortfall[t])
            members = pending[: best_bin.cardinality]
            plan.add(best_bin, members)
            for task_id in members:
                shortfall[task_id] -= contribution
                if shortfall[task_id] <= RESIDUAL_EPSILON:
                    del shortfall[task_id]
