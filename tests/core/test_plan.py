"""Tests for decomposition plans."""

import operator
from functools import reduce

import pytest

from repro.algorithms.registry import create_solver
from repro.core.bins import TaskBin
from repro.core.errors import InfeasiblePlanError, InvalidBinError
from repro.core.plan import BinAssignment, DecompositionPlan
from repro.core.problem import SladeProblem
from repro.core.task import CrowdsourcingTask
from repro.datasets.jelly import jelly_bin_set


class TestBinAssignment:
    def test_basic_construction(self, table1_bins):
        assignment = BinAssignment(table1_bins[2], (0, 1))
        assert assignment.cost == 0.18
        assert assignment.fill_ratio == 1.0

    def test_partial_fill_allowed(self, table1_bins):
        assignment = BinAssignment(table1_bins[3], (5,))
        assert assignment.fill_ratio == pytest.approx(1 / 3)

    def test_overfull_rejected(self, table1_bins):
        with pytest.raises(InvalidBinError):
            BinAssignment(table1_bins[2], (0, 1, 2))

    def test_duplicate_tasks_rejected(self, table1_bins):
        with pytest.raises(InvalidBinError):
            BinAssignment(table1_bins[2], (0, 0))

    def test_empty_rejected(self, table1_bins):
        with pytest.raises(InvalidBinError):
            BinAssignment(table1_bins[1], ())

    def test_str_lists_members(self, table1_bins):
        assert "[0,1]" in str(BinAssignment(table1_bins[2], (0, 1)))


class TestPlanCostAccounting:
    def test_empty_plan_costs_nothing(self):
        assert DecompositionPlan().total_cost == 0.0

    def test_example4_plan_p1_cost(self, table1_bins):
        # Plan P1 of Example 4: four 2-cardinality bins cost 0.72.
        plan = DecompositionPlan()
        for members in [(0, 1), (0, 1), (2, 3), (2, 3)]:
            plan.add(table1_bins[2], members)
        assert plan.total_cost == pytest.approx(0.72)
        assert plan.bin_usage() == {2: 4}

    def test_example4_plan_p2_cost(self, table1_bins):
        # Plan P2 of Example 4: two 3-bins and one 2-bin cost 0.66.
        plan = DecompositionPlan()
        plan.add(table1_bins[3], (0, 1, 2))
        plan.add(table1_bins[3], (0, 1, 3))
        plan.add(table1_bins[2], (2, 3))
        assert plan.total_cost == pytest.approx(0.66)

    def test_cost_per_task(self, table1_bins):
        task = CrowdsourcingTask.homogeneous(4, 0.5)
        plan = DecompositionPlan()
        plan.add(table1_bins[2], (0, 1))
        plan.add(table1_bins[2], (2, 3))
        assert plan.cost_per_task(task) == pytest.approx(0.36 / 4)

    def test_total_cost_adds_left_to_right_on_every_interpreter(self):
        # The builtin sum is compensated from Python 3.12 on and reads 1.0.
        plan = DecompositionPlan()
        for task_id in range(10):
            plan.add(TaskBin(1, 0.9, 0.1), (task_id,))
        assert plan.total_cost == 0.9999999999999999

    def test_extend_merges_assignments(self, table1_bins):
        first = DecompositionPlan()
        first.add(table1_bins[1], (0,))
        second = DecompositionPlan()
        second.add(table1_bins[1], (1,))
        first.extend(second)
        assert len(first) == 2
        assert first.total_cost == pytest.approx(0.2)


class TestPlanReliability:
    def test_example4_plan_p1_reliability(self, table1_bins):
        plan = DecompositionPlan()
        for members in [(0, 1), (0, 1), (2, 3), (2, 3)]:
            plan.add(table1_bins[2], members)
        reliabilities = plan.reliabilities()
        for task_id in range(4):
            assert reliabilities[task_id] == pytest.approx(0.9775)

    def test_unassigned_task_has_zero_reliability(self, table1_bins):
        plan = DecompositionPlan()
        plan.add(table1_bins[1], (0,))
        assert plan.reliability_of(99) == 0.0

    def test_assignments_of_filters_by_task(self, table1_bins):
        plan = DecompositionPlan()
        plan.add(table1_bins[2], (0, 1))
        plan.add(table1_bins[1], (1,))
        assert len(plan.assignments_of(1)) == 2
        assert len(plan.assignments_of(0)) == 1


class TestPlanFeasibility:
    def test_example4_p1_is_feasible(self, table1_bins, example4_problem):
        plan = DecompositionPlan()
        for members in [(0, 1), (0, 1), (2, 3), (2, 3)]:
            plan.add(table1_bins[2], members)
        assert plan.is_feasible(example4_problem.task)
        assert plan.unsatisfied_tasks(example4_problem.task) == []

    def test_single_assignment_is_infeasible_for_high_threshold(
        self, table1_bins, example4_problem
    ):
        plan = DecompositionPlan()
        plan.add(table1_bins[3], (0, 1, 2))
        failing = plan.unsatisfied_tasks(example4_problem.task)
        assert set(failing) == {0, 1, 2, 3}

    def test_require_feasible_raises_with_task_ids(self, table1_bins, example4_problem):
        plan = DecompositionPlan(solver="unit-test")
        plan.add(table1_bins[1], (0,))
        with pytest.raises(InfeasiblePlanError, match="unit-test"):
            plan.require_feasible(example4_problem.task)

    def test_require_feasible_returns_plan(self, table1_bins):
        task = CrowdsourcingTask.homogeneous(1, 0.5)
        plan = DecompositionPlan()
        plan.add(table1_bins[1], (0,))
        assert plan.require_feasible(task) is plan

    def test_boundary_threshold_exactly_met(self, table1_bins):
        # A single 0.9-confidence bin exactly meets a 0.9 threshold.
        task = CrowdsourcingTask.homogeneous(1, 0.9)
        plan = DecompositionPlan()
        plan.add(table1_bins[1], (0,))
        assert plan.is_feasible(task)


class TestPlanSummary:
    def test_summary_without_task(self, table1_bins):
        plan = DecompositionPlan(solver="greedy")
        plan.add(table1_bins[1], (0,))
        summary = plan.summary()
        assert summary["solver"] == "greedy"
        assert summary["assignments"] == 1

    def test_summary_with_task_includes_feasibility(self, table1_bins):
        task = CrowdsourcingTask.homogeneous(1, 0.5)
        plan = DecompositionPlan()
        plan.add(table1_bins[1], (0,))
        summary = plan.summary(task)
        assert summary["feasible"] is True
        assert summary["min_reliability"] == pytest.approx(0.9)

    @pytest.mark.parametrize("threshold", [0.8, 0.9, 0.95])
    @pytest.mark.parametrize("n", [7, 61, 997, 10_000])
    def test_mean_reliability_adds_left_to_right_on_every_interpreter(
        self, n, threshold
    ):
        # The builtin sum is compensated from Python 3.12 on; 9 of these 12
        # means differ in their last bits between 3.11 and 3.12 with it.
        problem = SladeProblem.homogeneous(n, threshold, jelly_bin_set(8))
        plan = create_solver("opq").solve(problem).plan
        reliabilities = plan.reliabilities()
        covered = [reliabilities.get(task_id, 0.0) for task_id in problem.task.task_ids]
        summary = plan.summary(problem.task)
        assert summary["mean_reliability"] == reduce(operator.add, covered, 0.0) / n
