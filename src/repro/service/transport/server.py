"""The asyncio HTTP server in front of the async service frontend.

:class:`HttpSladeServer` binds the stdlib-only HTTP/1.1 layer
(:mod:`repro.service.transport.http11`) onto one shared
:class:`~repro.service.async_service.AsyncSladeService`, so requests from
independent connections share the planner and OPQ cache a single-process
deployment already exploits.

Routes
------
``POST /v2/solve``
    One solve request (the :func:`repro.io.serialization.solve_request_to_dict`
    shape, including the compact inline form); answers the matching
    ``solve_response`` JSON.  Application-level failures (infeasible plans,
    unknown solvers) come back as HTTP 200 with ``ok=false`` — the request
    was served; the *solve* failed.  Transport and admission failures use
    4xx/5xx with the same envelope shape.
``POST /v2/solve/batch``
    ``{"requests": [...]}``; items are parsed and solved with per-item
    failure isolation and answered in order as ``{"responses": [...]}``.
``POST /v2/feedback``
    Execution outcomes for the drift-driven calibration loop:
    ``{"bins": <menu>, "observations": [[cardinality, correct], ...]}``.
    Observations feed the menu's quality monitor; when drift exceeds the
    tolerance the background revalidation worker recalibrates the menu at a
    new epoch and retires the stale cached plans with targeted deletes.
``GET /healthz``
    Liveness: a small JSON document answered from the event loop even while
    solves are running in the worker executor.
``GET /metrics``
    The shared telemetry snapshot — cache hits/misses/evictions, planner and
    service batch sizes, queue waits, admission counters, HTTP statuses —
    as Prometheus text by default or JSON with ``?format=json``.

Admission control runs before any solve work — and before any *parse* work:
``/v2/solve`` charges the connection-level identity (``X-Tenant`` header,
else ``anonymous``) ahead of reading the body, then refunds and re-admits
under the body's ``tenant`` field when it names someone else (the field
wins).  An exhausted tenant therefore cannot spend server CPU on
multi-megabyte bodies.  Rejections return structured 429/503 envelopes with
``Retry-After`` when the bucket can estimate one.

When a shared secret is configured (``serve --auth-token``), the solve
endpoints additionally require ``Authorization: Bearer <token>`` (or
``X-Auth-Token: <token>``) *before* admission is charged, and reply with a
structured 401 envelope on mismatch — closing the previously-trusted
``X-Tenant`` rider, where any caller could bill an arbitrary tenant's
quota.  ``/healthz`` and ``/metrics`` stay open for probes and scrapers.

Deadline propagation: ``deadline_ms`` on a request is converted to an
absolute instant when the body is parsed, so time spent queueing (admission,
waiting behind a running batch) counts against the budget.  A budget already
blown at parse is rejected with a structured 503 envelope before the request
is ever submitted — an expired-in-queue request never reaches the planner.

Shutdown is clean: :meth:`HttpSladeServer.close` stops accepting
connections, lets every in-flight request finish and flush its response,
then closes idle keep-alive connections and drains the async service.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import SladeError
from repro.engine.telemetry import render_prometheus
from repro.service.api import (
    AuthenticationError,
    DeadlineExceededError,
    RateLimitedError,
    ServiceClosedError,
    ServiceConfig,
    ServiceError,
    SolveRequest,
    failure_response,
    http_status_for,
)
from repro.service.async_service import AsyncSladeService
from repro.service.normalize import check_not_expired, parse_request_payload
from repro.service.transport.admission import DEFAULT_TENANT, AdmissionController
from repro.service.transport.http11 import (
    MAX_BODY_BYTES,
    HttpRequest,
    ProtocolError,
    read_request,
    render_response,
)

#: Errors a request body can legitimately trigger while being parsed.
_PARSE_ERRORS = (SladeError, KeyError, ValueError, TypeError)


class HttpSladeServer:
    """Serve the SLADE service over HTTP/1.1 on one asyncio event loop.

    Parameters
    ----------
    service:
        An existing :class:`~repro.service.async_service.AsyncSladeService`
        to expose; a fresh one is built from ``config`` when omitted
        (mutually exclusive, mirroring the async frontend's constructor).
    config:
        Service tunables used when building the frontend.
    admission:
        The gatekeeper charged per request; an unlimited controller is built
        when omitted.  Its telemetry defaults to the service's registry so
        ``/metrics`` shows admission counters without extra wiring.
    include_plans:
        Server default for plan bodies in responses; per-request
        ``?plan=0`` / ``?plan=1`` query parameters override it.
    max_body:
        Largest accepted request body in bytes.
    auth_token:
        Optional shared secret required on the solve endpoints (via
        ``Authorization: Bearer <token>`` or ``X-Auth-Token``); ``None``
        leaves them open.  ``/healthz`` and ``/metrics`` are never gated.
    """

    def __init__(
        self,
        service: Optional[AsyncSladeService] = None,
        config: Optional[ServiceConfig] = None,
        admission: Optional[AdmissionController] = None,
        include_plans: bool = True,
        max_body: int = MAX_BODY_BYTES,
        auth_token: Optional[str] = None,
    ) -> None:
        if service is None:
            service = AsyncSladeService(config=config)
        elif config is not None:
            raise ValueError("pass either service or config, not both")
        self.service = service
        self.telemetry = service.telemetry
        if admission is None:
            admission = AdmissionController(telemetry=self.telemetry)
        elif admission.telemetry is None:
            admission.telemetry = self.telemetry
        self.admission = admission
        self.include_plans = include_plans
        self.max_body = max_body
        self.auth_token = auth_token
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        self._inflight_solves = 0
        self._active_requests = 0
        #: Set whenever _active_requests hits zero; close() waits on it
        #: instead of polling the counter in a sleep loop.
        self._drained = asyncio.Event()
        self._drained.set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._request_ids = itertools.count(1)
        #: The background drift-revalidation worker (held so close() can
        #: cancel it; never fire-and-forget).
        self._drift_task: Optional["asyncio.Task[None]"] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        Port 0 asks the OS for a free port (tests and benchmarks).
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        # Bind before starting the service: a failed bind must not leave the
        # micro-batching dispatch task (and the cache backend) running.
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        try:
            await self.service.start()
        except BaseException:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            raise
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        interval = self.service.service.config.drift_check_seconds
        if interval > 0:
            self._drift_task = asyncio.get_running_loop().create_task(
                self._drift_loop(interval)
            )
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Block until the server is closed (the CLI's main coroutine)."""
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - cancelled on close
            pass

    async def close(self) -> None:
        """Stop accepting, drain in-flight requests, close the service."""
        if self._closing:
            return
        self._closing = True
        if self._drift_task is not None:
            self._drift_task.cancel()
            try:
                await self._drift_task
            except asyncio.CancelledError:
                pass
            self._drift_task = None
        if self._server is not None:
            self._server.close()
        # Let requests already being handled finish and flush their
        # responses; new requests on existing connections get 503 envelopes.
        await self._drained.wait()
        # Idle keep-alive connections are blocked reading the next request;
        # closing their transports resolves the read with EOF.
        for writer in list(self._writers):
            writer.close()
        handlers = [task for task in self._handlers if not task.done()]
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        await self.service.close()

    @property
    def base_url(self) -> str:
        """The ``http://host:port`` prefix of the bound server."""
        assert self.host is not None and self.port is not None
        return f"http://{self.host}:{self.port}"

    # -- the drift-revalidation worker -----------------------------------------

    async def _drift_loop(self, interval: float) -> None:
        """Periodically recalibrate drifted menus off the event loop.

        The sweep runs in the worker executor (it performs Algorithm 2
        builds and cache-backend round trips) and is itself fail-open, so
        the worst this loop can do to the serving path is nothing.
        """
        loop = asyncio.get_running_loop()
        drift = self.service.service.drift
        while not self._closing:
            await asyncio.sleep(interval)
            if self._closing:  # pragma: no cover - raced with close()
                return
            await loop.run_in_executor(None, drift.revalidate_drifted)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._writers.add(writer)
        try:
            await self._connection_loop(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(reader, self.max_body)
            except ProtocolError as exc:
                self.telemetry.increment("http.protocol_errors")
                writer.write(self._error_bytes(exc.status, exc, keep_alive=False))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            if request is None:
                return
            # Counted until the response is flushed, so close() never cuts a
            # connection that still owes its client bytes.
            self._active_requests += 1
            self._drained.clear()
            try:
                keep_alive = request.keep_alive and not self._closing
                try:
                    payload = await self._dispatch(request, keep_alive)
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    payload = self._error_bytes(500, exc, keep_alive=False)
                    keep_alive = False
                writer.write(payload)
                await writer.drain()
            finally:
                self._active_requests -= 1
                if self._active_requests == 0:
                    self._drained.set()
            if not keep_alive:
                return

    # -- routing ---------------------------------------------------------------

    async def _dispatch(self, request: HttpRequest, keep_alive: bool) -> bytes:
        self.telemetry.increment("http.requests")
        if request.path == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed(request, "GET", keep_alive)
            return self._respond_healthz(keep_alive)
        if request.path == "/metrics":
            if request.method != "GET":
                return self._method_not_allowed(request, "GET", keep_alive)
            # Backend gauges make real cache-server round trips (remote
            # __len__ / server_stats); a slow scrape must not stall the loop.
            return await asyncio.get_running_loop().run_in_executor(
                None, self._respond_metrics, request, keep_alive
            )
        if request.path == "/v2/solve":
            if request.method != "POST":
                return self._method_not_allowed(request, "POST", keep_alive)
            denied = self._check_auth(request, keep_alive)
            if denied is not None:
                return denied
            return await self._respond_solve(request, keep_alive)
        if request.path == "/v2/solve/batch":
            if request.method != "POST":
                return self._method_not_allowed(request, "POST", keep_alive)
            denied = self._check_auth(request, keep_alive)
            if denied is not None:
                return denied
            return await self._respond_solve_batch(request, keep_alive)
        if request.path == "/v2/feedback":
            if request.method != "POST":
                return self._method_not_allowed(request, "POST", keep_alive)
            denied = self._check_auth(request, keep_alive)
            if denied is not None:
                return denied
            return await self._respond_feedback(request, keep_alive)
        return self._error_bytes(
            404, SladeError(f"no route for {request.method} {request.path}"),
            keep_alive=keep_alive,
        )

    def _check_auth(self, request: HttpRequest, keep_alive: bool) -> Optional[bytes]:
        """401 bytes when the shared-secret check fails; ``None`` when it passes.

        Runs before admission so an unauthenticated caller can neither bill an
        arbitrary ``X-Tenant`` bucket nor occupy an in-flight slot.
        """
        if self.auth_token is None:
            return None
        bearer = request.header("authorization")
        if bearer is not None and bearer.strip() == f"Bearer {self.auth_token}":
            return None
        if request.header("x-auth-token") == self.auth_token:
            return None
        self.telemetry.increment("admission.unauthorized")
        return self._error_bytes(
            401,
            AuthenticationError(
                "missing or invalid auth token; pass 'Authorization: "
                "Bearer <token>' or 'X-Auth-Token'"
            ),
            keep_alive=keep_alive,
        )

    # -- solve endpoints -------------------------------------------------------

    async def _respond_solve(self, request: HttpRequest, keep_alive: bool) -> bytes:
        request_id = f"http-{next(self._request_ids)}"
        if self._closing:
            return self._error_bytes(
                503, ServiceClosedError("server is shutting down"),
                keep_alive=False, request_id=request_id,
            )
        # Admit the connection-level identity (header, else the default
        # tenant) *before* spending any parse work, so a quota-exhausted
        # tenant cannot burn CPU on multi-megabyte bodies.  If the parsed
        # body names a different tenant (the field wins), the provisional
        # charge is refunded and the real tenant admitted instead.
        provisional = request.header("x-tenant") or DEFAULT_TENANT
        # The budget clock starts when the request is in hand, before any
        # queueing (admission, executor scheduling, a running batch) can eat
        # into it.
        received_at = time.monotonic()
        try:
            ticket = self.admission.admit(provisional)
        except ServiceError as exc:
            return self._error_bytes(
                http_status_for(exc), exc, keep_alive=keep_alive,
                request_id=request_id,
            )
        # Parse in the worker executor: a multi-megabyte body must not stall
        # the event loop (and with it /healthz and every other connection).
        loop = asyncio.get_running_loop()
        try:
            solve_request = await loop.run_in_executor(
                None, _parse_solve_body, request.body, request_id, received_at
            )
        except _PARSE_ERRORS as exc:
            # No refund: the tenant did consume a parse attempt.
            ticket.release()
            return self._error_bytes(
                http_status_for(exc), exc, keep_alive=keep_alive,
                request_id=request_id,
            )
        tenant = self._tenant_for(solve_request, request)
        if tenant != ticket.tenant:
            ticket.refund()
            try:
                ticket = self.admission.admit(tenant)
            except ServiceError as exc:
                return self._error_bytes(
                    http_status_for(exc), exc, keep_alive=keep_alive,
                    request_id=solve_request.request_id or request_id,
                )
        # A budget already blown (e.g. burned by admission wait) is rejected
        # here, before the request is ever enqueued toward the planner.
        try:
            check_not_expired(solve_request, where="submit")
        except DeadlineExceededError as exc:
            ticket.release()
            self.telemetry.increment("deadline.requests")
            self.telemetry.increment("deadline.expired")
            return self._error_bytes(
                503, exc, keep_alive=keep_alive,
                request_id=solve_request.request_id or request_id,
            )
        self._inflight_solves += 1
        try:
            with ticket:
                response = await self.service.submit(solve_request)
        finally:
            self._inflight_solves -= 1
        # Imported here, matching the engine: repro.io sits above the service
        # layer, so the transport resolves it lazily.
        from repro.io.serialization import solve_response_to_dict

        body = solve_response_to_dict(
            response, include_plan=self._include_plan(request)
        )
        return self._json_bytes(200, body, keep_alive)

    async def _respond_solve_batch(
        self, request: HttpRequest, keep_alive: bool
    ) -> bytes:
        batch_id = f"http-{next(self._request_ids)}"
        if self._closing:
            return self._error_bytes(
                503, ServiceClosedError("server is shutting down"),
                keep_alive=False, request_id=batch_id,
            )
        received_at = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            batch_tenant, entry_count, parsed, failures = await loop.run_in_executor(
                None, _parse_batch_body, request.body, batch_id, received_at
            )
        except _PARSE_ERRORS as exc:
            return self._error_bytes(
                http_status_for(exc), exc, keep_alive=keep_alive,
                request_id=batch_id,
            )
        # A batch is admitted as one unit under one tenant; allowing mixed
        # tenants would charge the whole cost to a single bucket and break
        # the tenant-isolation contract.
        fallback = batch_tenant or request.header("x-tenant") or DEFAULT_TENANT
        tenants = {item.tenant or fallback for _index, item in parsed}
        if len(tenants) > 1:
            return self._error_bytes(
                400,
                SladeError(
                    "a batch must belong to one tenant; got "
                    + ", ".join(sorted(tenants))
                ),
                keep_alive=keep_alive, request_id=batch_id,
            )
        try:
            ticket = (
                self.admission.admit(tenants.pop(), cost=len(parsed))
                if parsed
                else None
            )
        except ServiceError as exc:
            return self._error_bytes(
                http_status_for(exc), exc, keep_alive=keep_alive,
                request_id=batch_id,
            )
        responses: Dict[int, Any] = dict(failures)
        if parsed:
            self._inflight_solves += len(parsed)
            try:
                assert ticket is not None
                with ticket:
                    solved = await self.service.submit_many(
                        [item for _index, item in parsed]
                    )
            finally:
                self._inflight_solves -= len(parsed)
            for (index, _item), response in zip(parsed, solved):
                responses[index] = response
        from repro.io.serialization import solve_response_to_dict

        include_plan = self._include_plan(request)
        body = {
            "kind": "solve_batch_response",
            "version": 1,
            "request_id": batch_id,
            "responses": [
                solve_response_to_dict(responses[index], include_plan=include_plan)
                for index in range(entry_count)
            ],
        }
        return self._json_bytes(200, body, keep_alive)

    async def _respond_feedback(self, request: HttpRequest, keep_alive: bool) -> bytes:
        """Ingest calibration observations for the drift loop.

        Recording is cheap (deque appends behind a lock) but parsing a
        multi-megabyte body is not, so both run in the worker executor.
        Malformed documents get the standard 400 envelope; a valid document
        always succeeds — observation intake never touches the cache or the
        planner.
        """
        request_id = f"http-{next(self._request_ids)}"
        if self._closing:
            return self._error_bytes(
                503, ServiceClosedError("server is shutting down"),
                keep_alive=False, request_id=request_id,
            )
        drift = self.service.service.drift
        loop = asyncio.get_running_loop()
        try:
            recorded = await loop.run_in_executor(
                None, lambda: drift.ingest_feedback(json.loads(request.body))
            )
        except _PARSE_ERRORS as exc:
            return self._error_bytes(
                http_status_for(exc), exc, keep_alive=keep_alive,
                request_id=request_id,
            )
        body = {
            "kind": "feedback_response",
            "version": 1,
            "request_id": request_id,
            "recorded": recorded,
        }
        return self._json_bytes(200, body, keep_alive)

    def _tenant_for(
        self, solve_request: SolveRequest, request: HttpRequest
    ) -> str:
        return (
            solve_request.tenant
            or request.header("x-tenant")
            or DEFAULT_TENANT
        )

    def _include_plan(self, request: HttpRequest) -> bool:
        flag = request.query.get("plan")
        if flag is None:
            return self.include_plans
        return flag not in ("0", "false", "no")

    # -- observability endpoints -----------------------------------------------

    def _respond_healthz(self, keep_alive: bool) -> bytes:
        body = {
            "status": "draining" if self._closing else "ok",
            "inflight_solves": self._inflight_solves,
            "admitted_inflight": self.admission.total_inflight,
            "requests": self.telemetry.counter("http.requests"),
        }
        return self._json_bytes(200, body, keep_alive)

    def _respond_metrics(self, request: HttpRequest, keep_alive: bool) -> bytes:
        facade = self.service.service
        stats = facade.cache_stats
        extra = {
            "cache.entries": float(stats.entries),
            "http.inflight_solves": float(self._inflight_solves),
            "admission.inflight": float(self.admission.total_inflight),
        }
        # Tier and server-side gauges from remote/tiered backends (fail-open:
        # an unreachable cache server contributes nothing to the scrape).
        extra.update(facade.cache.backend_metrics())
        # Drift-loop gauges: monitored/drifted menu counts and the worst
        # current shortfall across every monitored cardinality.
        extra.update(facade.drift.gauges())
        snapshot = self.telemetry.snapshot()
        if request.query.get("format") == "json":
            merged = dict(snapshot)
            merged.update(extra)
            return self._json_bytes(200, merged, keep_alive)
        text = render_prometheus(
            snapshot, extra=extra, histograms=self.telemetry.histograms()
        )
        self.telemetry.increment("http.responses.200")
        return render_response(
            200, text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
            keep_alive=keep_alive,
        )

    # -- response rendering ----------------------------------------------------

    def _json_bytes(self, status: int, body: Dict[str, Any], keep_alive: bool) -> bytes:
        self.telemetry.increment(f"http.responses.{status}")
        return render_response(
            status, json.dumps(body).encode("utf-8"), keep_alive=keep_alive
        )

    def _error_bytes(
        self,
        status: int,
        exc: BaseException,
        keep_alive: bool,
        request_id: Optional[str] = None,
    ) -> bytes:
        """A structured error envelope with transport status headers."""
        from repro.io.serialization import solve_response_to_dict

        self.telemetry.increment(f"http.responses.{status}")
        response = failure_response(request_id or "http", exc)
        headers: Dict[str, str] = {}
        if isinstance(exc, RateLimitedError) and exc.retry_after is not None:
            headers["Retry-After"] = str(max(1, int(exc.retry_after + 0.999)))
        return render_response(
            status,
            json.dumps(solve_response_to_dict(response, include_plan=False)).encode(
                "utf-8"
            ),
            extra_headers=headers or None,
            keep_alive=keep_alive,
        )

    def _method_not_allowed(
        self, request: HttpRequest, allowed: str, keep_alive: bool
    ) -> bytes:
        return self._error_bytes(
            405,
            SladeError(f"{request.path} only accepts {allowed}"),
            keep_alive=keep_alive,
        )


def _parse_solve_body(
    body: bytes, request_id: str, received_at: float
) -> SolveRequest:
    """Decode and validate one solve body (runs in the worker executor).

    Normalisation — including anchoring ``deadline_ms`` at ``received_at`` —
    goes through the shared :func:`repro.service.normalize.parse_request_payload`
    door, so the HTTP path accepts and rejects exactly what the JSON-lines
    loop does.
    """
    return parse_request_payload(
        json.loads(body), default_request_id=request_id, received_at=received_at
    )


def _parse_batch_body(
    body: bytes, batch_id: str, received_at: float
) -> Tuple[Optional[str], int, List[Tuple[int, SolveRequest]], Dict[int, Any]]:
    """Decode a batch body into (payload tenant, entry count, parsed, failures).

    Runs in the worker executor.  Per-item failure isolation mirrors
    :meth:`SladeService.solve_batch`: a malformed item becomes its own
    ``ok=False`` envelope without sinking its batch-mates.  Every item's
    deadline is anchored at the same ``received_at``; an item already expired
    when the batch is dispatched becomes a per-item 200 envelope (the facade
    rejects it without planner work).
    """
    payload = json.loads(body)
    entries = payload.get("requests") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        raise SladeError("batch payload needs a non-empty 'requests' list")

    parsed: List[Tuple[int, SolveRequest]] = []
    failures: Dict[int, Any] = {}
    for index, entry in enumerate(entries):
        item_id = f"{batch_id}-{index}"
        try:
            parsed.append(
                (
                    index,
                    parse_request_payload(
                        entry,
                        default_request_id=item_id,
                        received_at=received_at,
                    ),
                )
            )
        except _PARSE_ERRORS as exc:
            failures[index] = failure_response(item_id, exc)
    return payload.get("tenant"), len(entries), parsed, failures


async def run_http_server(
    host: str,
    port: int,
    config: Optional[ServiceConfig] = None,
    admission: Optional[AdmissionController] = None,
    include_plans: bool = True,
    stop: Optional["asyncio.Event"] = None,
    on_ready: Optional[Callable[["HttpSladeServer"], None]] = None,
    auth_token: Optional[str] = None,
) -> HttpSladeServer:
    """Start a server, run until ``stop`` is set, close cleanly.

    The CLI's ``repro serve --http`` entry point; ``on_ready(server)`` fires
    once the socket is bound (used to print the listening address).  Returns
    the closed server so callers can read final telemetry.
    """
    # Construction opens the cache backend (possibly SQLite or a remote
    # connection pool) — blocking work that belongs off the event loop.
    server = await asyncio.get_running_loop().run_in_executor(
        None,
        lambda: HttpSladeServer(
            config=config, admission=admission, include_plans=include_plans,
            auth_token=auth_token,
        ),
    )
    try:
        await server.start(host, port)
    except BaseException:
        # The facade (and its cache backend) exists even when the bind
        # failed; release it rather than leaking the backend connection.
        await server.service.close()
        raise
    if on_ready is not None:
        on_ready(server)
    try:
        if stop is not None:
            await stop.wait()
        else:  # pragma: no cover - interactive use only
            await server.serve_forever()
    finally:
        await server.close()
    return server
