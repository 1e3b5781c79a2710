"""Deadline semantics through the facade, the normalisation door, the wire
format, and the unified HTTP clients."""

import time
from dataclasses import replace

import pytest

from repro.io.serialization import (
    SerializationError,
    solve_request_from_dict,
    solve_request_to_dict,
    solve_response_from_dict,
    solve_response_to_dict,
)
from repro.service import (
    DeadlineExceededError,
    Provenance,
    RequestValidationError,
    ServiceConfig,
    SladeService,
    SolveRequest,
    check_not_expired,
    remaining_budget_seconds,
    stamp_deadline,
)
from repro.service.client import (
    _build_headers,
    _payload_dict,
    _solve_path,
)


@pytest.fixture
def service():
    return SladeService()


@pytest.fixture
def request_for(example4_problem):
    def make(**kwargs):
        return SolveRequest(problem=example4_problem, **kwargs)

    return make


class TestNormalize:
    def test_stamp_converts_relative_to_absolute(self, request_for):
        before = time.monotonic()
        stamped = stamp_deadline(request_for(deadline_ms=250.0))
        assert before + 0.2 < stamped.deadline_at < time.monotonic() + 0.3

    def test_stamp_is_idempotent(self, request_for):
        stamped = stamp_deadline(request_for(deadline_ms=250.0))
        assert stamp_deadline(stamped) is stamped

    def test_unbudgeted_request_untouched(self, request_for):
        request = request_for()
        assert stamp_deadline(request) is request
        assert remaining_budget_seconds(request) is None

    def test_check_not_expired_raises_past_deadline(self, request_for):
        expired = replace(
            request_for(deadline_ms=5.0), deadline_at=time.monotonic() - 1.0
        )
        with pytest.raises(DeadlineExceededError, match="expired"):
            check_not_expired(expired, where="submit")

    def test_check_not_expired_passes_with_budget(self, request_for):
        check_not_expired(stamp_deadline(request_for(deadline_ms=60_000.0)))

    def test_negative_deadline_rejected(self, request_for):
        with pytest.raises(RequestValidationError):
            request_for(deadline_ms=-5.0)

    def test_non_numeric_deadline_rejected(self, request_for):
        with pytest.raises(RequestValidationError):
            request_for(deadline_ms="soon")


class TestFacadeDeadlines:
    def test_every_response_carries_provenance(self, service, request_for):
        plain = service.solve(request_for())
        assert plain.provenance is not None
        assert plain.provenance.quality == "optimal"
        assert plain.provenance.tier == "build"
        warm = service.solve(request_for())
        assert warm.provenance.tier == "cache"

    def test_expired_before_dispatch_does_no_planner_work(
        self, service, request_for
    ):
        expired = replace(
            request_for(deadline_ms=5.0), deadline_at=time.monotonic() - 1.0
        )
        planned_before = service.telemetry.counter("planner.instances")
        response = service.solve(expired)
        assert not response.ok
        assert response.error.type == "DeadlineExceededError"
        assert service.telemetry.counter("planner.instances") == planned_before
        assert service.telemetry.counter("deadline.expired") == 1.0
        assert service.telemetry.counter("deadline.requests") == 1.0

    def test_deadline_routes_to_anytime_solver(self, service, request_for):
        response = service.solve(request_for(deadline_ms=60_000.0))
        assert response.ok
        assert response.solver == "anytime"
        assert response.provenance.quality == "optimal"
        assert response.provenance.deadline_ms == 60_000.0
        assert 0 < response.provenance.remaining_budget_ms <= 60_000.0
        assert service.telemetry.counter("deadline.hits") == 1.0

    def test_exhausted_budget_returns_feasible_best_so_far(
        self, service, request_for
    ):
        # A zero solver budget forces the greedy floor deterministically —
        # the served plan must still be feasible, marked degraded, and the
        # best-so-far counter must see it.
        response = service.solve(
            request_for(
                deadline_ms=60_000.0,
                solver="anytime",
                options={"budget_seconds": 0.0},
            )
        )
        assert response.ok
        assert response.feasible is True
        assert response.provenance.quality == "greedy"
        assert service.telemetry.counter("deadline.best_so_far") == 1.0

    def test_explicit_solver_still_honoured(self, service, request_for):
        response = service.solve(request_for(deadline_ms=60_000.0, solver="opq"))
        assert response.ok
        assert response.solver == "opq"
        assert response.provenance.quality == "optimal"


class TestWireFormat:
    def test_deadline_round_trips(self, request_for):
        payload = solve_request_to_dict(request_for(deadline_ms=125.0))
        assert payload["schema_version"] == 2
        assert payload["deadline_ms"] == 125.0
        parsed = solve_request_from_dict(payload)
        assert parsed.deadline_ms == 125.0
        assert parsed.deadline_at is None    # monotonic instants never travel

    def test_unbudgeted_request_omits_field(self, request_for):
        assert "deadline_ms" not in solve_request_to_dict(request_for())

    def test_unknown_request_field_rejected(self, request_for):
        payload = solve_request_to_dict(request_for())
        payload["dead_line_ms"] = 50
        with pytest.raises(RequestValidationError, match="dead_line_ms"):
            solve_request_from_dict(payload)

    def test_version_1_request_accepted(self, request_for):
        payload = solve_request_to_dict(request_for())
        payload["version"] = 1
        del payload["schema_version"]
        assert solve_request_from_dict(payload).request_id is None

    def test_unsupported_version_rejected(self, request_for):
        payload = solve_request_to_dict(request_for())
        payload["schema_version"] = 3
        with pytest.raises(SerializationError, match="schema version"):
            solve_request_from_dict(payload)

    def test_provenance_round_trips(self, service, request_for):
        response = service.solve(request_for(deadline_ms=60_000.0))
        payload = solve_response_to_dict(response)
        assert payload["schema_version"] == 2
        decoded = solve_response_from_dict(payload)
        assert decoded.provenance == response.provenance

    def test_response_reader_is_tolerant(self, service, request_for):
        payload = solve_response_to_dict(service.solve(request_for()))
        payload["a_future_field"] = {"anything": True}
        decoded = solve_response_from_dict(payload)
        assert decoded.ok
        payload.pop("provenance")
        assert solve_response_from_dict(payload).provenance is None


class TestClientHelpers:
    def test_payload_injects_deadline(self):
        payload = _payload_dict({"kind": "solve_request"}, deadline_ms=75.0)
        assert payload["deadline_ms"] == 75.0

    def test_payload_keeps_explicit_deadline(self):
        payload = _payload_dict(
            {"kind": "solve_request", "deadline_ms": 10.0}, deadline_ms=75.0
        )
        assert payload["deadline_ms"] == 10.0

    def test_solve_paths(self):
        assert _solve_path(False, None) == "/v2/solve"
        assert _solve_path(True, True) == "/v2/solve/batch?plan=1"

    def test_headers_carry_tenant_and_token(self):
        headers = _build_headers("team-a", "sekrit")
        assert headers["X-Tenant"] == "team-a"
        assert headers["Authorization"] == "Bearer sekrit"
        assert "X-Tenant" not in _build_headers(None, None)


class TestProvenanceShape:
    def test_provenance_is_frozen_value(self):
        provenance = Provenance(quality="greedy", tier="greedy")
        with pytest.raises(AttributeError):
            provenance.quality = "optimal"

    def test_service_config_anytime_roundtrip(self, example4_problem):
        # A config defaulting to the anytime solver serves unbudgeted
        # requests at optimal quality (no deadline, nothing truncates).
        service = SladeService(ServiceConfig(solver="anytime"))
        response = service.solve(SolveRequest(problem=example4_problem))
        assert response.ok
        assert response.provenance.quality == "optimal"
