"""Equivalence: the service layer must change nothing but the envelope.

For any request, the plan a :class:`SladeService` returns must be
byte-identical (via canonical JSON serialisation, the same yardstick as
``tests/engine/test_engine_equivalence.py``) to calling the registry solver
directly — across the synchronous facade, the async micro-batching frontend,
and the persistent SQLite cache backend, including the warm-restart path.
"""

import asyncio
import json

from repro.algorithms.registry import create_solver
from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set
from repro.datasets.thresholds import normal_thresholds
from repro.engine import SQLiteBackend
from repro.service import (
    AsyncSladeService,
    ServiceConfig,
    SladeService,
    SolveRequest,
)


def plan_bytes(plan) -> bytes:
    from repro.io.serialization import plan_to_dict

    return json.dumps(plan_to_dict(plan), sort_keys=True).encode("utf-8")


def request_mix():
    """Homogeneous and heterogeneous requests with guaranteed cache reuse."""
    jelly = jelly_bin_set(12)
    smic = smic_bin_set(8)
    problems = [
        ("opq", SladeProblem.homogeneous(30, 0.9, jelly, name="j-30")),
        ("opq", SladeProblem.homogeneous(47, 0.9, jelly, name="j-47")),
        ("opq", SladeProblem.homogeneous(64, 0.95, jelly, name="j-64")),
        ("opq", SladeProblem.homogeneous(30, 0.9, jelly, name="j-30-again")),
        ("opq", SladeProblem.homogeneous(25, 0.9, smic, name="s-25")),
        ("greedy", SladeProblem.homogeneous(25, 0.9, smic, name="s-25-greedy")),
        (
            "opq-extended",
            SladeProblem.heterogeneous(
                normal_thresholds(40, mu=0.9, sigma=0.03, seed=0), jelly, name="h-0"
            ),
        ),
        (
            "opq-extended",
            SladeProblem.heterogeneous(
                normal_thresholds(40, mu=0.9, sigma=0.03, seed=1), jelly, name="h-1"
            ),
        ),
    ]
    return [
        SolveRequest(problem=problem, solver=solver, request_id=f"req-{i}")
        for i, (solver, problem) in enumerate(problems)
    ]


def cold_bytes(requests):
    return [
        plan_bytes(create_solver(r.solver).solve(r.problem).plan) for r in requests
    ]


class TestSyncEquivalence:
    def test_facade_plans_match_direct_solver_calls(self):
        requests = request_mix()
        service = SladeService()
        responses = [service.solve(request) for request in requests]
        assert all(r.ok for r in responses)
        assert service.cache_stats.hits > 0  # the reuse path is exercised
        assert [plan_bytes(r.plan) for r in responses] == cold_bytes(requests)

    def test_batch_path_matches_direct_solver_calls(self):
        requests = request_mix()
        responses = SladeService().solve_batch(requests)
        assert [plan_bytes(r.plan) for r in responses] == cold_bytes(requests)


class TestAsyncEquivalence:
    def test_micro_batched_plans_match_direct_solver_calls(self):
        requests = request_mix()

        async def scenario():
            async with AsyncSladeService() as svc:
                return await svc.submit_many(requests)

        responses = asyncio.run(scenario())
        assert all(r.ok for r in responses)
        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        assert [plan_bytes(r.plan) for r in responses] == cold_bytes(requests)


class TestPersistentBackendEquivalence:
    def test_sqlite_backed_plans_match_direct_solver_calls(self, tmp_path):
        requests = request_mix()
        with SladeService(
            backend=SQLiteBackend(tmp_path / "plans.db")
        ) as service:
            responses = [service.solve(request) for request in requests]
        assert [plan_bytes(r.plan) for r in responses] == cold_bytes(requests)

    def test_warm_restart_plans_match_direct_solver_calls(self, tmp_path):
        requests = request_mix()
        path = tmp_path / "plans.db"
        with SladeService(backend=SQLiteBackend(path)) as first:
            for request in requests:
                assert first.solve(request).ok

        # A "restarted" service on the same file serves hits immediately and
        # its decoded queues must produce the same bytes.
        with SladeService(backend=SQLiteBackend(path)) as second:
            responses = [second.solve(request) for request in requests]
            stats = second.cache_stats
        assert stats.misses == 0
        assert stats.hits > 0
        assert [plan_bytes(r.plan) for r in responses] == cold_bytes(requests)


class TestClampingChangesAreExplicit:
    """Clamping is the one normalisation that may alter plans — by design."""

    def test_unclamped_service_never_alters_fingerprint(self, example4_problem):
        response = SladeService().solve(SolveRequest(problem=example4_problem))
        assert response.problem_fingerprint == example4_problem.fingerprint

    def test_capped_request_solves_the_capped_instance(self, table1_bins):
        service = SladeService(ServiceConfig(threshold_cap=0.9))
        hot = SladeProblem.homogeneous(6, 0.95, table1_bins)
        capped = SladeProblem.homogeneous(6, 0.9, table1_bins)
        response = service.solve(SolveRequest(problem=hot))
        assert plan_bytes(response.plan) == plan_bytes(
            create_solver("opq").solve(capped).plan
        )


def untagged_bytes(plan) -> bytes:
    """``plan_bytes`` without the solver tag, which names the solver that ran."""
    from repro.io.serialization import plan_to_dict

    body = plan_to_dict(plan)
    del body["solver"]
    return json.dumps(body, sort_keys=True).encode("utf-8")


class TestBudgetedEquivalence:
    """A budgeted request that pins no solver runs the anytime ladder.

    With a budget no build outlasts, its plan is the cold ``anytime`` plan,
    which is the ``opq`` (or ``opq-extended``) plan, whether the cache was
    cold or already held the queue.
    """

    @staticmethod
    def problems():
        problems = [request.problem for request in request_mix()]
        problems.append(SladeProblem.homogeneous(57, 0.9, jelly_bin_set(20)))
        return problems

    def assert_plans_match_cold_solvers(self, service):
        for problem in self.problems():
            anytime = create_solver("anytime").solve(problem).plan
            exact = create_solver(
                "opq" if problem.is_homogeneous else "opq-extended"
            ).solve(problem).plan
            for attempt in range(2):
                response = service.solve(
                    SolveRequest(problem=problem, deadline_ms=60000)
                )
                assert response.ok, (problem.name, attempt)
                assert plan_bytes(response.plan) == plan_bytes(anytime)
                assert untagged_bytes(response.plan) == untagged_bytes(exact)

    def test_memory_backed_budgeted_plans_match(self):
        with SladeService() as service:
            self.assert_plans_match_cold_solvers(service)

    def test_sqlite_backed_budgeted_plans_match(self, tmp_path):
        with SladeService(backend=SQLiteBackend(tmp_path / "plans.db")) as service:
            self.assert_plans_match_cold_solvers(service)
