"""Solvers for the SLADE problem.

The package mirrors Sections 4-6 of the paper:

* :class:`~repro.algorithms.greedy.GreedySolver` — Algorithm 1, the
  cost-confidence-ratio greedy heuristic (homogeneous and heterogeneous).
* :class:`~repro.algorithms.opq.OPQSolver` — Algorithms 2-3, the optimal
  priority queue construction and the log(n)-approximate OPQ-Based solver for
  the homogeneous problem.
* :class:`~repro.algorithms.opq_extended.OPQExtendedSolver` — Algorithms 4-5,
  the threshold-partitioned extension for the heterogeneous problem.
* :class:`~repro.algorithms.baseline.CIPBaselineSolver` — Section 4.3, the
  covering-integer-program baseline (LP relaxation + randomized rounding).
* :class:`~repro.algorithms.dp_relaxed.RelaxedDPSolver` — Section 4.2, the
  rod-cutting dynamic program for the relaxed polynomial variant.
* :class:`~repro.algorithms.exhaustive.ExactSolver` — a brute-force exact
  solver for tiny instances, used as a test oracle.
"""

from repro.algorithms.anytime import AnytimeSolver, QUALITY_GREEDY, QUALITY_OPTIMAL
from repro.algorithms.base import Solver, SolveResult
from repro.algorithms.baseline import CIPBaselineSolver
from repro.algorithms.budgeted import BudgetedDecomposer, BudgetedResult
from repro.algorithms.dp_relaxed import RelaxedDPSolver
from repro.algorithms.exhaustive import ExactSolver
from repro.algorithms.greedy import GreedySolver
from repro.algorithms.online import OnlineDecomposer
from repro.algorithms.opq import (
    Combination,
    OPQSolver,
    OptimalPriorityQueue,
    build_optimal_priority_queue,
)
from repro.algorithms.opq_extended import OPQExtendedSolver, build_opq_set
from repro.algorithms.registry import available_solvers, create_solver, register_solver

__all__ = [
    "Solver",
    "SolveResult",
    "AnytimeSolver",
    "QUALITY_GREEDY",
    "QUALITY_OPTIMAL",
    "GreedySolver",
    "OPQSolver",
    "OPQExtendedSolver",
    "CIPBaselineSolver",
    "RelaxedDPSolver",
    "ExactSolver",
    "BudgetedDecomposer",
    "BudgetedResult",
    "OnlineDecomposer",
    "Combination",
    "OptimalPriorityQueue",
    "build_optimal_priority_queue",
    "build_opq_set",
    "available_solvers",
    "create_solver",
    "register_solver",
]
