"""Tests for the batch planner: dispatch, specs, options, statistics."""

import threading

import pytest

from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.engine import BatchPlanner, BatchSpec, PlanCache


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

    def test_empty_batch(self):
        batch = BatchPlanner().solve_many([])
        assert len(batch) == 0
        assert batch.total_cost == 0
        assert batch.all_feasible
        assert batch.stats.instances == 0
        assert batch.stats.cache_hits == batch.stats.cache_misses == 0
        assert batch.stats.cache_hit_rate == 0.0

    def test_statistics_count_only_this_batch(self, bins, spec):
        planner = BatchPlanner()
        # Earlier traffic on the same cache builds the 0.9 queue ...
        planner.solve(SladeProblem.homogeneous(20, 0.9, bins), "opq")
        batch = planner.solve_many(spec, "opq")
        # ... so the batch builds only 0.95 and answers the rest as hits.
        assert batch.stats.cache_misses == 1
        assert batch.stats.cache_hits == 5
        assert planner.cache.stats.misses == 2

    def test_stats_report_fields(self, spec):
        row = BatchPlanner().solve_many(spec, "opq").stats.as_dict()
        assert set(row) == {
            "instances", "solver", "wall_seconds", "solve_seconds",
            "build_seconds", "cache_hits", "cache_misses", "cache_hit_rate",
        }

    def test_every_solve_runs_on_the_calling_thread(self, spec, monkeypatch):
        from repro.engine import planner as planner_module

        solving_threads = []
        make_solver = planner_module._make_solver

        def recording_make_solver(cache, solver, options):
            made = make_solver(cache, solver, options)
            solve = made.solve

            def recorded_solve(problem):
                solving_threads.append(threading.get_ident())
                return solve(problem)

            made.solve = recorded_solve
            return made

        monkeypatch.setattr(planner_module, "_make_solver", recording_make_solver)
        callers = []

        def run_batch():
            callers.append(threading.get_ident())
            BatchPlanner().solve_many(spec, "opq")

        caller = threading.Thread(target=run_batch)
        caller.start()
        caller.join(timeout=60)
        assert solving_threads == callers * len(spec)


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


class TestWorkerProcesses:
    def test_opq_extended_worker_hits_the_group_key_built_here(
        self, bins, solve_in_processes
    ):
        """Another interpreter asks for the exact keys this one built.

        OPQExtendedSolver asks for the Algorithm 4 group threshold, a
        residual round-trip of the instance threshold (0.67's is not
        bit-identical to it).  Cache keys are bit-exact, so a key derived
        differently in another process would silently rebuild instead of
        hitting the entries the fleet already shares.
        """
        from repro.engine.backends import RemoteBackend
        from repro.engine.backends.server import CacheServerThread

        problems = [
            SladeProblem.homogeneous(n, 0.67, bins) for n in (10, 20, 30)
        ]
        with CacheServerThread() as server:
            cache = PlanCache(backend=RemoteBackend(server.host, server.port))
            warm = BatchPlanner(cache=cache).solve_many(
                problems, solver="opq-extended"
            )
            cache.close()
            _, counters = solve_in_processes(server, problems, "opq-extended", 2)
        assert warm.all_feasible
        assert warm.stats.cache_misses == 1
        assert sum(hits for hits, _ in counters) == len(problems)
        assert sum(misses for _, misses in counters) == 0


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
