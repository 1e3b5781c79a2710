"""Stdlib HTTP client for the SLADE service transport.

:class:`SladeHttpClient` wraps ``urllib`` so tests, examples, benchmarks and
the CI smoke job can drive a running ``repro serve --http`` server without
any third-party dependency.  Every call returns an :class:`HttpReply` — the
status code, headers, and parsed JSON payload — and *never* raises on 4xx/5xx
responses: admission rejections and validation failures are data (structured
error envelopes), not exceptions, matching the service layer's philosophy.
Solve calls go to the ``/v2`` routes.

Typical use::

    from repro.service.client import SladeHttpClient

    client = SladeHttpClient("http://127.0.0.1:8080", tenant="team-a")
    reply = client.solve({"kind": "solve_request", "version": 1,
                          "n": 1000, "threshold": 0.9,
                          "bins": [[1, 0.9, 0.10], [2, 0.85, 0.18]]},
                         deadline_ms=50)
    reply.raise_for_status()
    print(reply.payload["total_cost"], reply.payload["provenance"])
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.core.errors import SladeError
from repro.service.api import SolveRequest, SolveResponse

#: Payloads accepted wherever a solve request is expected.
RequestLike = Union[SolveRequest, Dict[str, Any]]


class TransportError(SladeError):
    """The server could not be reached or did not speak HTTP."""


@dataclass
class HttpReply:
    """One HTTP exchange: status, headers, and the parsed JSON payload."""

    status: int
    payload: Any
    headers: Dict[str, str] = field(default_factory=dict)
    text: str = ""

    @property
    def ok(self) -> bool:
        """Whether the transport accepted the request (2xx)."""
        return 200 <= self.status < 300

    def raise_for_status(self) -> "HttpReply":
        """Raise :class:`TransportError` on a non-2xx status; else return self."""
        if not self.ok:
            detail = ""
            if isinstance(self.payload, dict) and self.payload.get("error"):
                detail = f": {self.payload['error']}"
            raise TransportError(f"HTTP {self.status}{detail}")
        return self

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Case-insensitive response header lookup."""
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default

    def solve_response(self) -> SolveResponse:
        """Decode the payload as one structured :class:`SolveResponse`."""
        from repro.io.serialization import solve_response_from_dict

        return solve_response_from_dict(self.payload)

    def solve_responses(self) -> List[SolveResponse]:
        """Decode a batch payload into its per-item responses, in order."""
        from repro.io.serialization import solve_response_from_dict

        return [
            solve_response_from_dict(entry)
            for entry in self.payload.get("responses", [])
        ]


class SladeHttpClient:
    """Drive a SLADE HTTP server over ``urllib`` (no external packages).

    Parameters
    ----------
    base_url:
        The server prefix, e.g. ``"http://127.0.0.1:8080"``.
    tenant:
        Default admission identity, sent as the ``X-Tenant`` header on every
        request; per-call ``tenant=`` arguments override it.
    timeout:
        Socket timeout in seconds for each call.
    auth_token:
        Shared secret for servers started with ``repro serve --auth-token``;
        sent as ``Authorization: Bearer <token>`` on every request.
    """

    def __init__(
        self,
        base_url: str,
        tenant: Optional[str] = None,
        timeout: float = 60.0,
        auth_token: Optional[str] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout
        self.auth_token = auth_token
        # A proxy-free opener: localhost servers must not be routed through
        # an environment's HTTP(S)_PROXY.
        self._opener = urllib.request.build_opener(
            urllib.request.ProxyHandler({})
        )

    # -- endpoints -------------------------------------------------------------

    def solve(
        self,
        request: RequestLike,
        tenant: Optional[str] = None,
        include_plan: Optional[bool] = None,
        deadline_ms: Optional[float] = None,
    ) -> HttpReply:
        """POST one solve request to ``/v2/solve``.

        ``deadline_ms`` stamps (or overrides) the request's latency budget;
        the server answers with the OPQ plan, or greedy when the OPQ build
        runs out of budget, or a structured 503 when the budget expires
        before the request is dispatched.
        """
        path = _solve_path(False, include_plan)
        body = _payload_dict(request, deadline_ms=deadline_ms)
        return self._request("POST", path, body, tenant)

    def solve_batch(
        self,
        requests: List[RequestLike],
        tenant: Optional[str] = None,
        include_plan: Optional[bool] = None,
        deadline_ms: Optional[float] = None,
    ) -> HttpReply:
        """POST a request list to ``/v2/solve/batch``.

        ``deadline_ms`` applies per item (each entry gets the same budget,
        measured from server receipt) unless an entry carries its own.
        """
        path = _solve_path(True, include_plan)
        body = {
            "requests": [
                _payload_dict(entry, deadline_ms=deadline_ms)
                for entry in requests
            ]
        }
        return self._request("POST", path, body, tenant)

    def feedback(
        self,
        payload: Dict[str, Any],
        tenant: Optional[str] = None,
    ) -> HttpReply:
        """POST execution outcomes to ``/v2/feedback``.

        ``payload`` carries the menu the outcomes were measured against and
        the per-cardinality probe results::

            {"bins": <bin-set dict or [[l, r, c], ...]>,
             "observations": [[cardinality, correct], ...]}
        """
        return self._request("POST", "/v2/feedback", payload, tenant)

    def healthz(self) -> HttpReply:
        """GET the liveness document."""
        return self._request("GET", "/healthz", None, None)

    def metrics(self, fmt: str = "json") -> HttpReply:
        """GET the telemetry snapshot (``fmt="text"`` for Prometheus lines)."""
        path = "/metrics" if fmt == "text" else "/metrics?format=json"
        return self._request("GET", path, None, None)

    # -- plumbing --------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        tenant: Optional[str],
    ) -> HttpReply:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        effective_tenant = tenant if tenant is not None else self.tenant
        headers = _build_headers(effective_tenant, self.auth_token)
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with self._opener.open(req, timeout=self.timeout) as raw:
                return _build_reply(raw.status, dict(raw.headers), raw.read())
        except urllib.error.HTTPError as exc:
            # 4xx/5xx still carry a structured envelope body.
            return _build_reply(exc.code, dict(exc.headers or {}), exc.read())
        except (urllib.error.URLError, socket.timeout, ConnectionError) as exc:
            raise TransportError(f"cannot reach {self.base_url}: {exc}") from exc


def _build_reply(status: int, headers: Dict[str, str], raw: bytes) -> HttpReply:
    """Decode one raw exchange into an :class:`HttpReply`."""
    text = raw.decode("utf-8", errors="replace")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    return HttpReply(status=status, payload=payload, headers=headers, text=text)


def _payload_dict(
    request: RequestLike, deadline_ms: Optional[float] = None
) -> Dict[str, Any]:
    """Normalise a request-like value into a JSON-ready dictionary.

    ``deadline_ms`` is injected when the payload does not already carry its
    own budget, so a per-call default never silently overrides an explicit
    per-request one.
    """
    if isinstance(request, SolveRequest):
        from repro.io.serialization import solve_request_to_dict

        payload = solve_request_to_dict(request)
    else:
        payload = dict(request)
    if deadline_ms is not None and payload.get("deadline_ms") is None:
        payload["deadline_ms"] = deadline_ms
    return payload


def _solve_path(batch: bool, include_plan: Optional[bool]) -> str:
    """Build the solve route for one call."""
    path = "/v2/solve/batch" if batch else "/v2/solve"
    if include_plan is not None:
        path += f"?plan={'1' if include_plan else '0'}"
    return path


def _build_headers(
    tenant: Optional[str], auth_token: Optional[str]
) -> Dict[str, str]:
    """Request headers for one call."""
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Tenant"] = tenant
    if auth_token:
        headers["Authorization"] = f"Bearer {auth_token}"
    return headers

