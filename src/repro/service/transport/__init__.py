"""Network transport for the SLADE service: HTTP/1.1 + admission control.

This package puts a real wire protocol in front of
:class:`~repro.service.async_service.AsyncSladeService`:

* :mod:`repro.service.transport.http11` — a dependency-free HTTP/1.1
  reader/writer over ``asyncio`` streams (request parsing, keep-alive,
  response rendering).  Stdlib only, so CI and deployments need no extra
  packages.
* :mod:`repro.service.transport.admission` — per-tenant token-bucket rate
  limits and max-inflight quotas; rejections raise the structured
  :class:`~repro.service.api.RateLimitedError` /
  :class:`~repro.service.api.OverloadedError` the transports turn into
  429/503 envelopes.
* :mod:`repro.service.transport.server` — :class:`HttpSladeServer`, the
  asyncio server exposing ``POST /v2/solve``, ``POST /v2/solve/batch``,
  ``POST /v2/feedback``, ``GET /healthz`` and ``GET /metrics``, with
  concurrent requests micro-batching onto the shared planner and plan cache.
"""

from repro.service.transport.admission import (
    AdmissionController,
    AdmissionTicket,
    TokenBucket,
)
from repro.service.transport.http11 import HttpRequest, ProtocolError
from repro.service.transport.server import HttpSladeServer, run_http_server

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "HttpRequest",
    "HttpSladeServer",
    "ProtocolError",
    "TokenBucket",
    "run_http_server",
]
