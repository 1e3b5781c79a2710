"""A plan held as block runs reads exactly like its expansion.

Algorithm 3 appends one block run per head application and per fallback
(``DecompositionPlan.add_run``) instead of one posting per bin.  Every reader
of a plan must not be able to tell: each plan here is compared with
``DecompositionPlan(list(plan))``, the same postings added one by one.  Floats
are compared with ``==``: ``total_cost`` and the residuals must be
bit-identical, not close.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms.opq import Combination, OPQSolver
from repro.algorithms.opq_extended import OPQExtendedSolver
from repro.core.bins import TaskBin, TaskBinSet
from repro.core.errors import InfeasiblePlanError, InvalidProblemError
from repro.core.plan import BinAssignment, DecompositionPlan
from repro.core.problem import SladeProblem
from repro.core.task import AtomicTask, CrowdsourcingTask
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set
from repro.utils.logmath import RESIDUAL_EPSILON, residual_from_reliability

MENUS = {"jelly": jelly_bin_set(20), "smic": smic_bin_set(20)}


@st.composite
def sub_menus(draw):
    """Two to five bins of the Jelly or SMIC 20-bin menu."""
    menu = MENUS[draw(st.sampled_from(sorted(MENUS)))]
    cardinalities = draw(st.lists(
        st.sampled_from([b.cardinality for b in menu]),
        min_size=2, max_size=5, unique=True,
    ))
    return TaskBinSet(menu[cardinality] for cardinality in cardinalities)


thresholds_st = st.floats(min_value=0.5, max_value=0.99)


@st.composite
def problems(draw):
    """A homogeneous ``opq`` problem or an ``opq-extended`` one."""
    bins = draw(sub_menus())
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=400))
        return SladeProblem.homogeneous(n, draw(thresholds_st), bins), OPQSolver()
    thresholds = draw(st.lists(thresholds_st, min_size=1, max_size=120))
    return SladeProblem.heterogeneous(thresholds, bins), OPQExtendedSolver()


def verdict(plan, task):
    """``unsatisfied_tasks`` and the ``require_feasible`` error, if any."""
    try:
        plan.require_feasible(task)
        error = None
    except InfeasiblePlanError as exc:
        error = str(exc)
    return plan.unsatisfied_tasks(task), error


def reference_unsatisfied(plan, task):
    """The per-task check written out, over the expanded plan's residuals."""
    residuals = DecompositionPlan(list(plan)).residuals()
    return [
        task_id
        for task_id, threshold in zip(task.task_ids, task.thresholds)
        if residuals.get(task_id, 0.0) + RESIDUAL_EPSILON
        < residual_from_reliability(threshold)
    ]


def tasks_to_judge(plan, task):
    """The task itself, one on which some tasks fail, one the plan misses."""
    ids, thresholds = task.task_ids, task.thresholds
    # Above every achieved reliability, so each tightened task fails.
    strongest = max(plan.reliabilities().values())
    tight = strongest + (1.0 - strongest) / 2
    tightened = CrowdsourcingTask([
        AtomicTask(task_id, tight if index % 3 == 0 else threshold)
        for index, (task_id, threshold) in enumerate(zip(ids, thresholds))
    ])
    uncovered = CrowdsourcingTask(
        [AtomicTask(task_id, threshold) for task_id, threshold in zip(ids, thresholds)]
        + [AtomicTask(max(ids) + 1 + k, thresholds[0]) for k in range(2)]
    )
    return task, tightened, uncovered


def assert_reads_like_its_expansion(plan, task):
    expanded = DecompositionPlan(list(plan), solver=plan.solver)
    assert list(plan) == list(expanded)
    assert plan.assignments == expanded.assignments
    assert len(plan) == len(expanded) == len(list(plan))
    assert plan.total_cost == expanded.total_cost
    assert plan.residuals() == expanded.residuals()
    assert list(plan.residuals()) == list(expanded.residuals())
    assert plan.reliabilities() == expanded.reliabilities()
    assert plan.bin_usage() == expanded.bin_usage()
    ids = task.task_ids
    for task_id in {ids[0], ids[len(ids) // 2], ids[-1], max(ids) + 1}:
        assert plan.assignments_of(task_id) == expanded.assignments_of(task_id)
    assert plan.summary(task) == expanded.summary(task)
    for judged in tasks_to_judge(plan, task):
        assert verdict(plan, judged) == verdict(expanded, judged)
        assert plan.unsatisfied_tasks(judged) == reference_unsatisfied(plan, judged)
    _, tightened, uncovered = tasks_to_judge(plan, task)
    assert plan.unsatisfied_tasks(tightened)
    assert plan.unsatisfied_tasks(uncovered)[-2:] == uncovered.task_ids[-2:]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_a_solved_plan_reads_like_its_expansion(case):
    problem, solver = case
    plan = solver.solve(problem).plan
    assert_reads_like_its_expansion(plan, problem.task)
    assert verdict(plan, problem.task) == ([], None)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.data())
def test_runs_mixed_with_postings_read_like_their_expansion(case, data):
    problem, solver = case
    first = solver.solve(problem).plan
    # A second plan over the same tasks: its runs reach tasks that already
    # have a residual, so they accumulate posting by posting.
    second = solver.solve(problem).plan
    mixed = DecompositionPlan(solver="mixed")
    ids = problem.task.task_ids
    task_bin = problem.bins.bins()[0]
    members = data.draw(st.lists(
        st.sampled_from(ids), min_size=1, max_size=task_bin.cardinality, unique=True,
    ))
    mixed.add(task_bin, members)
    mixed.extend(first)
    mixed.add(task_bin, members)
    mixed.extend(second)
    assert_reads_like_its_expansion(mixed, problem.task)
    assert len(mixed) == 2 * len(first) + 2


@pytest.fixture
def b3_combination():
    bins = TaskBinSet([TaskBin(1, 0.6, 0.1), TaskBin(3, 0.5, 0.2)])
    return Combination.from_counts({1: 1, 3: 2}, bins)


def test_a_run_over_repeated_ids_accumulates_each_repeat(b3_combination):
    plan = DecompositionPlan()
    plan.add_run(b3_combination, [0, 1, 2, 0, 1, 2], blocks=2)
    expanded = DecompositionPlan(list(plan))
    assert plan.residuals() == expanded.residuals()
    assert len(plan) == len(expanded) == 10


def test_a_partial_block_pays_full_bins(b3_combination):
    plan = DecompositionPlan()
    plan.add_run(b3_combination, [7])
    assert [(a.task_bin.cardinality, a.task_ids) for a in plan] == [
        (1, (7,)), (3, (7,)), (3, (7,)),
    ]
    assert len(plan) == 3
    assert plan.total_cost == 0.1 + 0.2 + 0.2


def test_a_run_longer_than_its_blocks_is_refused(b3_combination):
    plan = DecompositionPlan()
    with pytest.raises(InvalidProblemError, match="block of 4 tasks exceeds combination LCM 3"):
        plan.add_run(b3_combination, [0, 1, 2, 3])
    with pytest.raises(InvalidProblemError, match="7 tasks exceed 2 blocks"):
        plan.add_run(b3_combination, list(range(7)), blocks=2)
    assert len(plan) == 0


def test_an_empty_run_adds_nothing(b3_combination):
    plan = DecompositionPlan()
    plan.add_run(b3_combination, [])
    assert len(plan) == 0 and list(plan) == [] and plan.total_cost == 0.0


def test_solved_plans_hold_runs_not_postings(monkeypatch):
    built = []
    post_init = BinAssignment.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BinAssignment, "__post_init__", counting_post_init)
    result = OPQSolver().solve(SladeProblem.homogeneous(1_000, 0.9, jelly_bin_set(20)))
    assert built == []
    assert len(result.plan) == 100
    assert len(list(result.plan)) == 100 == len(built)
