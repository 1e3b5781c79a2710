"""The SLADE service layer: typed requests, a facade, async + HTTP frontends.

This package is the top of the stack (core → algorithms → engine → service,
see ``DESIGN.md``): it turns the solver library into an online decomposition
service.

* :mod:`repro.service.api` — the typed request/response surface
  (:class:`SolveRequest`, :class:`SolveResponse`, :class:`ServiceConfig`,
  error envelopes and the ``envelope_from_error`` / ``failure_response`` /
  ``http_status_for`` helpers every transport shares).
* :mod:`repro.service.facade` — :class:`SladeService`, the synchronous
  entry point that validates, normalises, dispatches through a shared
  :class:`~repro.engine.planner.BatchPlanner`, and never raises for
  request-level failures.
* :mod:`repro.service.async_service` — :class:`AsyncSladeService`, the
  asyncio frontend that flushes queued ``submit()`` traffic through the
  facade off the event loop.
* :mod:`repro.service.transport` — the HTTP/1.1 server
  (:class:`HttpSladeServer`) plus per-tenant admission control
  (:class:`AdmissionController`), all stdlib.
* :mod:`repro.service.client` — :class:`SladeHttpClient`, a ``urllib``
  client for the HTTP transport's ``/v2`` routes (tests, benchmarks, the CI
  smoke jobs).

Typical use::

    from repro.service import ServiceConfig, SladeService, SolveRequest

    service = SladeService(ServiceConfig(cache_backend="sqlite:plans.db"))
    response = service.solve(SolveRequest(problem=problem))
    if response.ok:
        print(response.total_cost, response.cache)   # e.g. 0.68 'miss'
"""

from repro.service.api import (
    CACHE_BYPASS,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_NONE,
    TIER_BUILD,
    TIER_CACHE,
    TIER_GREEDY,
    TIER_SOLVER,
    AdmissionError,
    AuthenticationError,
    DeadlineExceededError,
    ErrorEnvelope,
    OverloadedError,
    Provenance,
    RateLimitedError,
    RequestValidationError,
    ServiceClosedError,
    ServiceConfig,
    ServiceError,
    SolveRequest,
    SolveResponse,
    envelope_from_error,
    failure_response,
    http_status_for,
)
from repro.service.async_service import AsyncSladeService
from repro.service.client import HttpReply, SladeHttpClient
from repro.service.facade import SladeService
from repro.service.normalize import (
    check_not_expired,
    parse_request_payload,
    remaining_budget_seconds,
    stamp_deadline,
)
from repro.service.transport import (
    AdmissionController,
    HttpSladeServer,
    TokenBucket,
    run_http_server,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AsyncSladeService",
    "AuthenticationError",
    "CACHE_BYPASS",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_NONE",
    "DeadlineExceededError",
    "ErrorEnvelope",
    "HttpReply",
    "HttpSladeServer",
    "OverloadedError",
    "Provenance",
    "RateLimitedError",
    "RequestValidationError",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "SladeHttpClient",
    "SladeService",
    "SolveRequest",
    "SolveResponse",
    "TIER_BUILD",
    "TIER_CACHE",
    "TIER_GREEDY",
    "TIER_SOLVER",
    "TokenBucket",
    "check_not_expired",
    "envelope_from_error",
    "failure_response",
    "http_status_for",
    "parse_request_payload",
    "remaining_budget_seconds",
    "run_http_server",
    "stamp_deadline",
]
