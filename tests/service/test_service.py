"""Tests for the synchronous service facade: validation, normalisation,
error envelopes, cache provenance, and configuration."""

import pytest

from repro.algorithms.registry import create_solver
from repro.core.problem import SladeProblem
from repro.engine import BatchPlanner, PlanCache, SQLiteBackend
from repro.service import (
    CACHE_BYPASS,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_NONE,
    RequestValidationError,
    ServiceConfig,
    ServiceError,
    SladeService,
    SolveRequest,
)


@pytest.fixture
def service():
    return SladeService()


@pytest.fixture
def request_for(example4_problem):
    def make(**kwargs):
        return SolveRequest(problem=example4_problem, **kwargs)

    return make


class TestSolveHappyPath:
    def test_successful_response_shape(self, service, request_for, example4_problem):
        response = service.solve(request_for())
        assert response.ok
        assert response.solver == "opq"
        assert response.total_cost == pytest.approx(0.68)
        assert response.feasible is True
        assert response.cache == CACHE_MISS
        assert response.elapsed_seconds > 0.0
        assert response.solve_seconds > 0.0
        assert response.batch_size == 1
        assert response.problem_fingerprint == example4_problem.fingerprint
        assert response.error is None
        assert response.raise_for_error() is response

    def test_repeat_request_is_cache_hit(self, service, request_for):
        service.solve(request_for())
        response = service.solve(request_for())
        assert response.cache == CACHE_HIT

    def test_uncached_solver_reports_bypass(self, service, request_for):
        response = service.solve(request_for(solver="greedy"))
        assert response.ok
        assert response.cache == CACHE_BYPASS

    def test_request_ids_assigned_sequentially(self, service, request_for):
        first = service.solve(request_for())
        second = service.solve(request_for())
        assert (first.request_id, second.request_id) == ("req-1", "req-2")

    def test_caller_request_id_echoed(self, service, request_for):
        response = service.solve(request_for(request_id="my-id"))
        assert response.request_id == "my-id"

    def test_options_forwarded_to_solver(self, service, example4_problem):
        response = service.solve(
            SolveRequest(
                problem=example4_problem,
                solver="baseline",
                options={"chunk_size": 2, "seed": 0},
            )
        )
        assert response.ok
        assert response.solver == "baseline"


class TestErrorEnvelopes:
    def test_unknown_solver_enveloped(self, service, request_for):
        response = service.solve(request_for(solver="magic"))
        assert not response.ok
        assert response.cache == CACHE_NONE
        assert response.error.type == "RequestValidationError"
        assert "magic" in response.error.message
        with pytest.raises(ServiceError):
            response.raise_for_error()

    def test_queue_injection_options_rejected(self, service, request_for):
        response = service.solve(request_for(options={"queue_factory": None}))
        assert not response.ok
        assert response.error.type == "RequestValidationError"

    def test_bad_solver_option_enveloped(self, service, request_for):
        response = service.solve(request_for(options={"no_such_kwarg": 1}))
        assert not response.ok
        assert response.error.type == "TypeError"

    def test_non_problem_request_rejected_at_construction(self):
        with pytest.raises(RequestValidationError):
            SolveRequest(problem="not a problem")

    def test_failure_is_isolated_in_batch(self, service, request_for):
        responses = service.solve_batch(
            [request_for(), request_for(solver="magic"), request_for()]
        )
        assert [r.ok for r in responses] == [True, False, True]
        assert all(r.batch_size == 3 for r in responses)


class TestNormalisation:
    def test_default_solver_from_config(self, example4_problem):
        service = SladeService(ServiceConfig(solver="greedy"))
        response = service.solve(SolveRequest(problem=example4_problem))
        assert response.solver == "greedy"

    def test_threshold_cap_clamps_problem(self, table1_bins):
        service = SladeService(ServiceConfig(threshold_cap=0.95))
        hot = SladeProblem.homogeneous(4, 0.97, table1_bins, name="hot")
        capped = SladeProblem.homogeneous(4, 0.95, table1_bins, name="capped")
        response = service.solve(SolveRequest(problem=hot))
        assert response.ok
        assert response.problem_fingerprint == capped.fingerprint
        assert response.total_cost == pytest.approx(
            create_solver("opq").solve(capped).total_cost
        )

    def test_threshold_floor_clamps_problem(self, table1_bins):
        service = SladeService(ServiceConfig(threshold_floor=0.9))
        weak = SladeProblem.heterogeneous([0.5, 0.95], table1_bins, name="weak")
        response = service.solve(SolveRequest(problem=weak))
        floored = SladeProblem.heterogeneous([0.9, 0.95], table1_bins)
        assert response.problem_fingerprint == floored.fingerprint

    def test_no_clamp_preserves_problem(self, service, request_for, example4_problem):
        response = service.solve(request_for())
        assert response.problem_fingerprint == example4_problem.fingerprint

    def test_verify_override_per_request(self, service, request_for):
        response = service.solve(request_for(verify=False))
        assert response.ok

    def test_invalid_config_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_wait_seconds=-1.0)
        with pytest.raises(ServiceError):
            ServiceConfig(threshold_cap=1.5)
        with pytest.raises(ServiceError):
            ServiceConfig(threshold_floor=0.9, threshold_cap=0.5)


class TestWiring:
    def test_shared_planner_shares_cache(self, example4_problem):
        planner = BatchPlanner(cache=PlanCache())
        planner.solve(example4_problem, solver="opq")   # prime via the planner
        service = SladeService(planner=planner)
        response = service.solve(SolveRequest(problem=example4_problem))
        assert response.cache == CACHE_HIT

    def test_planner_and_backend_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            SladeService(
                planner=BatchPlanner(),
                backend=SQLiteBackend(tmp_path / "plans.db"),
            )

    def test_config_backend_spec_resolved(self, tmp_path, request_for):
        path = tmp_path / "plans.db"
        with SladeService(ServiceConfig(cache_backend=f"sqlite:{path}")) as service:
            assert service.cache.persistent
            assert service.solve(request_for()).ok
        assert path.exists()

    def test_cache_stats_exposed(self, service, request_for):
        service.solve(request_for())
        service.solve(request_for())
        stats = service.cache_stats
        assert (stats.hits, stats.misses) == (1, 1)


class TestDriftAwareNormalisation:
    def test_requests_transparently_use_the_active_epoch(self, table1_bins):
        service = SladeService()
        problem = SladeProblem.homogeneous(4, 0.95, table1_bins)
        first = service.solve(SolveRequest(problem=problem))
        assert first.ok
        # Decay cardinality 1 far below its calibrated 0.9 and sweep.
        for index in range(40):
            service.drift.observe(table1_bins, 1, index % 2 == 0)
        report = service.drift.revalidate_drifted()
        assert report.recalibrated_menus == 1
        # The client re-sends the menu it has always known; the facade
        # resolves it to the recalibrated epoch behind its back.
        after = service.solve(SolveRequest(problem=problem))
        assert after.ok
        active, recalibrations = service.drift.lineage(table1_bins)
        assert recalibrations == 1
        assert after.problem_fingerprint != first.problem_fingerprint
        # Plans priced at the observed 0.5 accuracy for the workhorse
        # single-task bin cost more than plans priced at the stale menu.
        assert after.total_cost > first.total_cost

    def test_drift_config_validation(self):
        with pytest.raises(ServiceError):
            ServiceConfig(drift_window=0)
        with pytest.raises(ServiceError):
            ServiceConfig(drift_min_observations=0)
        with pytest.raises(ServiceError):
            ServiceConfig(drift_window=10, drift_min_observations=11)
        with pytest.raises(ServiceError):
            ServiceConfig(drift_tolerance=0.0)
        with pytest.raises(ServiceError):
            ServiceConfig(drift_tolerance_above=1.0)
        with pytest.raises(ServiceError):
            ServiceConfig(drift_check_seconds=-1.0)

    def test_drift_settings_reach_the_controller(self):
        config = ServiceConfig(
            drift_window=60,
            drift_min_observations=12,
            drift_tolerance=0.08,
            drift_tolerance_above=0.2,
        )
        service = SladeService(config=config)
        assert service.drift.window == 60
        assert service.drift.min_observations == 12
        assert service.drift.tolerance == pytest.approx(0.08)
        assert service.drift.tolerance_above == pytest.approx(0.2)
