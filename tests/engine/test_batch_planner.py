"""Tests for the batch planner: dispatch, specs, options, statistics."""

import pytest

from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.engine import BatchPlanner, BatchSpec, PlanCache
from repro.engine.planner import EXECUTORS


@pytest.fixture
def bins():
    return jelly_bin_set(10)


@pytest.fixture
def spec(bins):
    return BatchSpec(
        bins=bins, n_values=(20, 35, 50), thresholds=(0.9, 0.95), name="t"
    )


class TestBatchSpec:
    def test_grid_size_and_names(self, spec):
        problems = spec.problems()
        assert len(problems) == len(spec) == 6
        assert problems[0].name == "t-t0.9-n20"
        assert {p.n for p in problems} == {20, 35, 50}

    def test_repeat_replicates_grid(self, bins):
        spec = BatchSpec(bins=bins, n_values=(10,), thresholds=(0.9,), repeat=3)
        problems = spec.problems()
        assert len(problems) == 3
        assert problems[0].name.endswith("#0")
        assert problems[2].name.endswith("#2")

    def test_empty_grids_rejected(self, bins):
        from repro.core.errors import InvalidProblemError

        with pytest.raises(InvalidProblemError):
            BatchSpec(bins=bins, n_values=())
        with pytest.raises(InvalidProblemError):
            BatchSpec(bins=bins, thresholds=())
        with pytest.raises(InvalidProblemError):
            BatchSpec(bins=bins, repeat=0)


class TestPlannerBasics:
    def test_solve_matches_cold_solver(self, bins):
        from repro.algorithms.registry import create_solver

        problem = SladeProblem.homogeneous(30, 0.9, bins)
        planned = BatchPlanner().solve(problem, "opq")
        cold = create_solver("opq").solve(problem)
        assert planned.total_cost == cold.total_cost
        assert planned.feasible

    def test_solve_many_returns_items_in_order(self, spec):
        batch = BatchPlanner().solve_many(spec, solver="opq")
        assert [item.index for item in batch] == list(range(6))
        assert [item.problem.name for item in batch] == [
            p.name for p in spec.problems()
        ]
        assert batch.all_feasible
        assert batch.total_cost == pytest.approx(
            sum(item.total_cost for item in batch)
        )

    def test_cache_statistics_cover_the_batch(self, spec):
        batch = BatchPlanner().solve_many(spec, solver="opq")
        stats = batch.stats
        # Six instances, two distinct thresholds -> 2 misses, 4 hits.
        assert stats.cache_misses == 2
        assert stats.cache_hits == 4
        assert stats.cache_hit_rate == pytest.approx(4 / 6)
        assert stats.build_seconds > 0.0
        assert stats.solve_seconds > 0.0
        assert stats.wall_seconds > 0.0
        assert stats.instances == 6
        assert stats.as_dict()["cache_hit_rate"] == stats.cache_hit_rate

    def test_shared_cache_across_planners(self, spec):
        cache = PlanCache()
        BatchPlanner(cache=cache).solve_many(spec, "opq")
        second = BatchPlanner(cache=cache).solve_many(spec, "opq")
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hit_rate == 1.0

    def test_non_cacheable_solver_still_runs(self, bins):
        problems = [SladeProblem.homogeneous(10, 0.9, bins) for _ in range(2)]
        batch = BatchPlanner().solve_many(problems, solver="greedy")
        assert batch.all_feasible
        assert batch.stats.cache_misses == 0
        assert batch.stats.cache_hits == 0

    def test_unknown_solver_raises(self, bins):
        with pytest.raises(KeyError):
            BatchPlanner().solve(SladeProblem.homogeneous(5, 0.9, bins), "nope")

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            BatchPlanner(executor="gpu")
        assert set(EXECUTORS) == {"serial", "thread", "process"}


class TestOptions:
    def test_planner_level_options_apply(self, bins):
        problem = SladeProblem.homogeneous(40, 0.9, bins)
        planner = BatchPlanner(
            solver_options={"baseline": {"chunk_size": 10, "seed": 0}}
        )
        result = planner.solve(problem, "baseline")
        assert result.feasible

    def test_call_options_override_planner_options(self, bins):
        problem = SladeProblem.homogeneous(12, 0.9, bins)
        planner = BatchPlanner(
            solver_options={"baseline": {"chunk_size": 4, "seed": 0}}
        )
        result = planner.solve(
            problem, "baseline", options={"chunk_size": 12, "seed": 0}
        )
        assert result.feasible

    def test_verify_override(self, bins):
        problem = SladeProblem.homogeneous(8, 0.9, bins)
        planner = BatchPlanner(verify=False)
        # Explicit verify=True at call time must win over the planner default.
        result = planner.solve(problem, "opq", verify=True)
        assert result.feasible


class TestProcessPrewarm:
    def test_prewarm_covers_both_direct_and_group_threshold_keys(self, bins):
        """The parent must warm every key a worker-side solver can request.

        OPQSolver asks for the raw homogeneous threshold; OPQExtendedSolver
        asks for the Algorithm 4 group threshold, a residual round-trip of
        it that is not always bit-identical.  Cache keys are bit-exact, so
        the prewarm covers both — otherwise workers silently rebuild queues.
        """
        from repro.algorithms.opq_extended import group_thresholds
        from repro.engine.fingerprint import opq_key

        threshold = 0.67  # a value whose residual round-trip differs from it
        problem = SladeProblem.homogeneous(10, threshold, bins)
        planner = BatchPlanner(executor="process")
        planner._prewarm([problem], "opq-extended")
        assert opq_key(bins, threshold) in planner.cache
        for group_threshold in group_thresholds([threshold]):
            assert opq_key(bins, group_threshold) in planner.cache

    def test_homogeneous_opq_extended_process_batch_hits_prewarmed_cache(self, bins):
        problems = [
            SladeProblem.homogeneous(n, 0.67, bins) for n in (10, 20, 30)
        ]
        planner = BatchPlanner(executor="process", max_workers=2)
        batch = planner.solve_many(problems, solver="opq-extended")
        assert batch.all_feasible
        # Every worker request is served from the shipped snapshot: the only
        # misses are the parent's prewarm builds.
        worker_requests = len(problems)
        assert batch.stats.cache_hits >= worker_requests


class TestHeterogeneousBatches:
    def test_group_queues_are_shared_across_instances(self, bins):
        from repro.datasets.thresholds import normal_thresholds

        problems = [
            SladeProblem.heterogeneous(
                normal_thresholds(60, mu=0.9, sigma=0.03, seed=seed), bins
            )
            for seed in range(4)
        ]
        batch = BatchPlanner().solve_many(problems, solver="opq-extended")
        assert batch.all_feasible
        assert batch.stats.cache_hits > 0


class TestAnytimeThroughPlanner:
    """The planner injects the cache object, so the ladder reads and writes it."""

    def test_warm_entry_answers_from_the_cache(self, bins):
        problem = SladeProblem.homogeneous(30, 0.9, bins)
        planner = BatchPlanner()
        planner.solve(problem, "opq")
        before = planner.cache.stats
        result = planner.solve(problem, "anytime")
        assert result.metadata["tier"] == "cache"
        assert planner.cache.stats.since(before).hits == 1

    def test_cold_solve_publishes_its_build(self, bins):
        planner = BatchPlanner()
        planner.solve(SladeProblem.homogeneous(30, 0.9, bins), "anytime")
        assert len(planner.cache) == 1
        assert planner.cache.stats.misses == 1
