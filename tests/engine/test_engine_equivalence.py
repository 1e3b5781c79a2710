"""Equivalence: the engine must change nothing but the wall-clock.

Batch-planned results must be byte-for-byte identical to solving each problem
individually with a cold solver — through cache hits, threads sharing one
planner and processes sharing one cache server alike.  Plans are compared via
their canonical JSON serialisation, which captures every posting, bin and
task id.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.algorithms.registry import create_solver
from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set
from repro.datasets.thresholds import normal_thresholds
from repro.engine import BatchPlanner, PlanCache
from repro.engine.backends import RemoteBackend
from repro.engine.backends.server import CacheServerThread
from repro.io.serialization import plan_to_dict


def plan_bytes(plan) -> bytes:
    """Canonical byte serialisation of a decomposition plan."""
    return json.dumps(plan_to_dict(plan), sort_keys=True).encode("utf-8")


def homogeneous_mix():
    """Instances sharing menus/thresholds (cache hits guaranteed)."""
    jelly = jelly_bin_set(12)
    smic = smic_bin_set(8)
    return [
        SladeProblem.homogeneous(30, 0.9, jelly, name="j-30"),
        SladeProblem.homogeneous(47, 0.9, jelly, name="j-47"),
        SladeProblem.homogeneous(64, 0.95, jelly, name="j-64"),
        SladeProblem.homogeneous(30, 0.9, jelly, name="j-30-again"),
        SladeProblem.homogeneous(25, 0.9, smic, name="s-25"),
        SladeProblem.homogeneous(42, 0.95, smic, name="s-42"),
    ]


def heterogeneous_mix():
    jelly = jelly_bin_set(10)
    return [
        SladeProblem.heterogeneous(
            normal_thresholds(40, mu=0.9, sigma=0.03, seed=seed),
            jelly,
            name=f"h-{seed}",
        )
        for seed in range(3)
    ]


def cold_plan_bytes(problems, solver):
    return [plan_bytes(create_solver(solver).solve(p).plan) for p in problems]


def solve_in_parallel(executor, problems, solver, workers, solve_in_processes):
    """Solve ``problems`` concurrently through one shared cache.

    The planner solves on the calling thread, so the test supplies the
    workers: ``thread`` workers share one :class:`BatchPlanner`, as a
    serving process's solve worker and drift sweep share its cache;
    ``process`` workers are fresh interpreters sharing one cache server, as
    a fleet does.  Returns the plans in submission order.
    """
    if executor == "thread":
        planner = BatchPlanner()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = pool.map(lambda p: planner.solve(p, solver), problems)
            return [result.plan for result in results]
    with CacheServerThread() as server:
        plans, _ = solve_in_processes(server, problems, solver, workers)
    return plans


class TestSerialEquivalence:
    def test_homogeneous_cache_hits_do_not_change_plans(self):
        problems = homogeneous_mix()
        batch = BatchPlanner().solve_many(problems, solver="opq")
        assert batch.stats.cache_hits > 0  # the path under test
        assert [
            plan_bytes(item.result.plan) for item in batch
        ] == cold_plan_bytes(problems, "opq")

    def test_heterogeneous_group_reuse_does_not_change_plans(self):
        problems = heterogeneous_mix()
        batch = BatchPlanner().solve_many(problems, solver="opq-extended")
        assert batch.stats.cache_hits > 0
        assert [
            plan_bytes(item.result.plan) for item in batch
        ] == cold_plan_bytes(problems, "opq-extended")

    def test_single_solve_through_cache_equals_cold(self):
        problem = homogeneous_mix()[0]
        planner = BatchPlanner()
        planner.solve(problem, "opq")           # prime the cache
        warm = planner.solve(problem, "opq")    # cache-hit path
        cold = create_solver("opq").solve(problem)
        assert plan_bytes(warm.plan) == plan_bytes(cold.plan)


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestParallelEquivalence:
    def test_homogeneous_parallel_plans_identical(
        self, executor, solve_in_processes
    ):
        problems = homogeneous_mix()
        plans = solve_in_parallel(executor, problems, "opq", 3, solve_in_processes)
        assert [plan_bytes(plan) for plan in plans] == cold_plan_bytes(
            problems, "opq"
        )

    def test_heterogeneous_parallel_plans_identical(
        self, executor, solve_in_processes
    ):
        problems = heterogeneous_mix()
        plans = solve_in_parallel(
            executor, problems, "opq-extended", 2, solve_in_processes
        )
        assert [plan_bytes(plan) for plan in plans] == cold_plan_bytes(
            problems, "opq-extended"
        )


class TestThreadsShareOneCache:
    def test_racing_threads_build_each_key_once(self):
        problems = homogeneous_mix()
        planner = BatchPlanner()
        start = threading.Barrier(len(problems))

        def solve(problem):
            start.wait(timeout=30)
            return planner.solve(problem, "opq")

        with ThreadPoolExecutor(max_workers=len(problems)) as pool:
            list(pool.map(solve, problems))
        # Six lookups over 4 distinct (menu, threshold) keys: however the
        # threads interleave, per-key coalescing builds each key once.
        assert planner.cache.stats.misses == 4
        assert planner.cache.stats.hits == 2


class TestProcessPathDetails:
    def test_process_workers_report_cache_hits(self, solve_in_processes):
        problems = homogeneous_mix()
        with CacheServerThread() as server:
            # This process builds the 4 distinct (menu, threshold) queues
            # and writes them through to the server ...
            cache = PlanCache(backend=RemoteBackend(server.host, server.port))
            batch = BatchPlanner(cache=cache).solve_many(problems, solver="opq")
            cache.close()
            plans, counters = solve_in_processes(server, problems, "opq", 2)
        assert batch.stats.cache_misses == 4
        # ... so every worker request is a hit against the shared entries.
        assert sum(hits for hits, _ in counters) == len(problems)
        assert sum(misses for _, misses in counters) == 0
        assert [plan_bytes(plan) for plan in plans] == [
            plan_bytes(item.result.plan) for item in batch
        ]

    def test_non_cacheable_solver_through_process_pool(self, solve_in_processes):
        problems = homogeneous_mix()[:2]
        plans = solve_in_parallel(
            "process", problems, "greedy", 2, solve_in_processes
        )
        assert [plan_bytes(plan) for plan in plans] == cold_plan_bytes(
            problems, "greedy"
        )
