"""Tests for the anytime solver: the cache, build and greedy rungs, their
quality markers, and the all-or-nothing Algorithm 2 build under a deadline."""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import opq, opq_vec
from repro.algorithms.anytime import (
    QUALITY_GREEDY,
    QUALITY_OPTIMAL,
    AnytimeSolver,
)
from repro.algorithms.opq import (
    BuildAbandoned,
    OPQSolver,
    build_optimal_priority_queue,
)
from repro.algorithms.opq_vec import build_optimal_priority_queue_vec
from repro.algorithms.registry import create_solver, solver_accepts_budget
from repro.core.bins import TaskBinSet
from repro.core.errors import InfeasiblePlanError
from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.engine import PlanCache

QUALITIES = (QUALITY_OPTIMAL, QUALITY_GREEDY)


def postings(plan):
    """A plan's postings, without the solver tag naming who produced it."""
    return [(a.task_bin.cardinality, a.task_ids) for a in plan]


class TestAnytimeLadder:
    def test_unbounded_solve_matches_opq(self, example4_problem):
        anytime = AnytimeSolver().solve(example4_problem)
        opq = OPQSolver().solve(example4_problem)
        assert anytime.plan.is_feasible(example4_problem.task)
        assert anytime.plan.total_cost == pytest.approx(opq.plan.total_cost)
        assert anytime.metadata["quality"] == QUALITY_OPTIMAL

    def test_tiny_budget_returns_greedy_floor(self, example4_problem):
        result = AnytimeSolver(budget_seconds=0.0).solve(example4_problem)
        assert result.plan.is_feasible(example4_problem.task)
        assert result.metadata["quality"] == QUALITY_GREEDY
        assert result.metadata["tier"] == "greedy"

    def test_any_budget_yields_feasible_plan(self, example4_problem):
        for budget in (0.0, 1e-5, 1e-3, 0.1):
            result = AnytimeSolver(budget_seconds=budget).solve(example4_problem)
            assert result.plan.is_feasible(example4_problem.task)
            assert result.metadata["quality"] in QUALITIES

    def test_heterogeneous_budgeted_solve(self, heterogeneous_example_problem):
        result = AnytimeSolver(budget_seconds=0.05).solve(
            heterogeneous_example_problem
        )
        assert result.plan.is_feasible(heterogeneous_example_problem.task)
        assert result.metadata["quality"] in QUALITIES

    def test_answers_with_the_opq_plan_or_the_greedy_plan(self, example4_problem):
        optimal = postings(OPQSolver().solve(example4_problem).plan)
        greedy = postings(create_solver("greedy").solve(example4_problem).plan)
        for budget in (0.0, 1e-4, None):
            result = AnytimeSolver(budget_seconds=budget).solve(example4_problem)
            expected = (
                optimal if result.metadata["quality"] == QUALITY_OPTIMAL
                else greedy
            )
            assert postings(result.plan) == expected

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            AnytimeSolver(budget_seconds=-1.0)

    def test_registry_exposes_budget_capability(self):
        assert solver_accepts_budget("anytime")
        assert not solver_accepts_budget("opq")
        result = create_solver("anytime")
        assert isinstance(result, AnytimeSolver)

    def test_budget_forwarded_through_registry(self, example4_problem):
        solver = create_solver("anytime", budget_seconds=0.0)
        result = solver.solve(example4_problem)
        assert result.metadata["quality"] == QUALITY_GREEDY


class TestCacheInterplay:
    def test_warm_cache_answers_optimal_from_cache(self, example4_problem):
        cache = PlanCache()
        first = AnytimeSolver(queue_factory=cache).solve(example4_problem)
        second = AnytimeSolver(
            queue_factory=cache, budget_seconds=0.0
        ).solve(example4_problem)
        assert first.metadata["quality"] == QUALITY_OPTIMAL
        # The second call's zero budget doesn't matter: the complete cached
        # frontier answers without any enumeration.
        assert second.metadata["quality"] == QUALITY_OPTIMAL
        assert second.metadata["tier"] == "cache"
        assert second.plan.total_cost == pytest.approx(first.plan.total_cost)

    def test_expired_deadline_build_raises(self, table1_bins):
        for build in (build_optimal_priority_queue, build_optimal_priority_queue_vec):
            with pytest.raises(BuildAbandoned):
                build(table1_bins, 0.9, deadline=time.monotonic() - 1.0)
        # A timeout must never read as an infeasible menu.
        assert not issubclass(BuildAbandoned, InfeasiblePlanError)

    @pytest.mark.parametrize(
        "module,build",
        [(opq, build_optimal_priority_queue),
         (opq_vec, build_optimal_priority_queue_vec)],
        ids=["reference", "vectorized"],
    )
    def test_deadline_mid_build_returns_no_frontier(self, cut_clock, module, build):
        """Both cores abandon the whole build, not just the rest of it."""
        with cut_clock(module, 1):
            with pytest.raises(BuildAbandoned):
                build(jelly_bin_set(20), 0.95, deadline=time.monotonic() + 60.0)

    def test_abandoned_build_publishes_nothing(self, cut_clock):
        cache = PlanCache()
        problem = SladeProblem.homogeneous(500, 0.95, jelly_bin_set(20))
        with cut_clock(opq_vec, 1):
            result = AnytimeSolver(
                queue_factory=cache, budget_seconds=60.0
            ).solve(problem)
        assert (result.metadata["quality"], result.metadata["tier"]) == (
            QUALITY_GREEDY, "greedy"
        )
        assert len(cache) == 0
        assert cache.stats.misses == 0


#: Random bin menus: 1-5 bins with distinct cardinalities.
bin_sets = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.35, max_value=0.97),
        st.floats(min_value=0.02, max_value=2.0),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda triple: triple[0],
).map(TaskBinSet.from_triples)


class TestFeasibilityProperty:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        instance=st.tuples(
            bin_sets,
            st.integers(min_value=1, max_value=30),
            st.floats(min_value=0.5, max_value=0.98),
        ),
        budget=st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=0.02)
        ),
    )
    def test_returned_plans_always_meet_thresholds(self, instance, budget):
        """The anytime contract: whatever the budget, never an infeasible plan."""
        bins, n, threshold = instance
        problem = SladeProblem.homogeneous(n, threshold, bins)
        result = AnytimeSolver(budget_seconds=budget).solve(problem)
        assert result.plan.is_feasible(problem.task)
        assert result.metadata["quality"] in QUALITIES
