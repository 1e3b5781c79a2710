"""End-to-end HTTP transport tests: real sockets, real concurrency.

Each test boots an :class:`HttpSladeServer` on an OS-assigned port inside a
background event-loop thread and drives it with the stdlib
:class:`~repro.service.client.SladeHttpClient` — the same wire path the CI
smoke job and production deployments use.
"""

import asyncio
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.algorithms.registry import create_solver
from repro.cli import _serve_loop
from repro.core.bins import TaskBinSet
from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.service import (
    AsyncSladeService,
    ServiceConfig,
    SladeHttpClient,
    SladeService,
    SolveRequest,
)
from repro.service.client import TransportError
from repro.service.normalize import parse_request_payload
from repro.service.transport.admission import AdmissionController
from repro.service.transport.server import HttpSladeServer

#: The compact inline request form: tiny bodies, server-side construction.
BINS = [[1, 0.9, 0.10], [2, 0.85, 0.18], [3, 0.8, 0.24]]


def inline_request(n=50, threshold=0.9, **extra):
    payload = {
        "kind": "solve_request",
        "version": 1,
        "n": n,
        "threshold": threshold,
        "bins": BINS,
    }
    payload.update(extra)
    return payload


def hold_solves(handle, release):
    """Hold each solve batch of ``handle``'s server until ``release`` is set.

    The batch spins inside the worker executor, holding the GIL between
    checks of ``release`` as a CPU-bound solve would, so the liveness,
    capacity and drain tests act while such a request is in flight by
    construction, not by betting on how long some large solve takes.
    Returns an event that is set once a batch is being held.
    """
    service = handle.server.service.service
    solve_batch = service.solve_batch
    held = threading.Event()

    def hold(requests):
        held.set()
        deadline = time.monotonic() + 60
        while not release.wait(0.001) and time.monotonic() < deadline:
            sum(range(100_000))  # a few ms of pure-Python work per check
        return solve_batch(requests)

    service.solve_batch = hold
    return held


class ServerHandle:
    """Run one server inside a dedicated event-loop thread."""

    def __init__(self, **server_kwargs) -> None:
        self._server_kwargs = server_kwargs
        self._ready = threading.Event()
        #: Set on the event loop just before ``server.close()`` starts.
        self.closing = threading.Event()
        self._stop: "asyncio.Event" = None
        self._loop: "asyncio.AbstractEventLoop" = None
        self._error: BaseException = None
        self.server: HttpSladeServer = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by stop()/start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = HttpSladeServer(**self._server_kwargs)
        await self.server.start("127.0.0.1", 0)
        self._ready.set()
        await self._stop.wait()
        # close() runs to its first await before the loop can deliver a
        # held solve's result, so a solve released by this event finishes
        # while the server drains.
        self.closing.set()
        await self.server.close()

    def __enter__(self) -> "ServerHandle":
        self._thread.start()
        assert self._ready.wait(timeout=10), "server failed to start"
        if self._error is not None:
            raise self._error
        return self

    def __exit__(self, *_exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=30)
            assert not self._thread.is_alive(), "server thread leaked"
        if self._error is not None:
            raise self._error

    @property
    def base_url(self) -> str:
        return self.server.base_url

    def client(self, **kwargs) -> SladeHttpClient:
        return SladeHttpClient(self.base_url, **kwargs)


class TestSolveRoundtrips:
    def test_inline_solve_matches_direct_solver(self):
        with ServerHandle() as handle:
            reply = handle.client().solve(inline_request())
            assert reply.status == 200
            assert reply.payload["ok"] is True
            assert reply.payload["cache"] == "miss"
            assert reply.payload["plan"] is not None
            response = reply.solve_response()
            bins = TaskBinSet.from_triples([tuple(entry) for entry in BINS])
            direct = create_solver("opq").solve(
                SladeProblem.homogeneous(50, 0.9, bins)
            )
            assert response.total_cost == pytest.approx(direct.total_cost)

    def test_typed_request_roundtrip_and_plan_toggle(self):
        bins = jelly_bin_set(5)
        request = SolveRequest(
            problem=SladeProblem.homogeneous(40, 0.9, bins),
            request_id="typed-1",
        )
        with ServerHandle() as handle:
            with_plan = handle.client().solve(request)
            assert with_plan.payload["request_id"] == "typed-1"
            assert with_plan.payload["plan"] is not None
            without = handle.client().solve(request, include_plan=False)
            assert without.payload["plan"] is None
            assert without.payload["total_cost"] == pytest.approx(
                with_plan.payload["total_cost"]
            )

    def test_batch_endpoint_orders_and_isolates_failures(self):
        with ServerHandle() as handle:
            reply = handle.client().solve_batch(
                [
                    inline_request(n=30, request_id="good-0"),
                    {"kind": "solve_request", "version": 1},  # no problem given
                    inline_request(n=40, request_id="good-2"),
                ]
            )
            assert reply.status == 200
            responses = reply.payload["responses"]
            assert [entry["ok"] for entry in responses] == [True, False, True]
            assert responses[0]["request_id"] == "good-0"
            assert responses[2]["request_id"] == "good-2"
            assert responses[1]["error"]["type"] == "SerializationError"

    def test_solver_failure_is_http_200_with_envelope(self):
        with ServerHandle() as handle:
            reply = handle.client().solve(inline_request(solver="nope"))
            assert reply.status == 200
            assert reply.payload["ok"] is False
            assert reply.payload["error"]["type"] == "RequestValidationError"


class TestTransportErrors:
    def test_malformed_json_is_400_with_envelope(self):
        with ServerHandle() as handle:
            client = handle.client()
            reply = client._request("POST", "/v2/solve", None, None)
            assert reply.status == 400
            assert reply.payload["kind"] == "solve_response"
            assert reply.payload["ok"] is False
            assert reply.payload["error"]["type"] == "JSONDecodeError"

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_non_finite_bin_cost_is_400(self, cost):
        """A NaN cost would be served with a bare ``NaN`` total, which is not JSON."""
        payload = dict(inline_request(n=10), bins=[[1, 0.9, cost]] + BINS[1:])
        with pytest.raises(ValueError, match="finite"):
            parse_request_payload(payload)
        with ServerHandle() as handle:
            reply = handle.client()._request("POST", "/v2/solve", payload, None)
            assert reply.status == 400
            assert reply.payload["ok"] is False
            assert "finite" in reply.payload["error"]["message"]

    def test_http_envelope_matches_jsonlines_envelope(self):
        """Satellite fix: one failure shape across both transports."""
        with ServerHandle() as handle:
            http_reply = handle.client()._request("POST", "/v2/solve", None, None)
        stream = io.StringIO("this is not json\n")
        out = io.StringIO()
        real_stdout, sys.stdout = sys.stdout, out
        try:
            with SladeService(ServiceConfig()) as service:
                _serve_loop(service, stream, include_plans=True)
        finally:
            sys.stdout = real_stdout
        jsonl_payload = json.loads(out.getvalue())
        assert set(jsonl_payload) == set(http_reply.payload)
        assert jsonl_payload["error"]["type"] == http_reply.payload["error"]["type"]
        assert jsonl_payload["cache"] == http_reply.payload["cache"] == "none"

    def test_unknown_route_and_wrong_method(self):
        with ServerHandle() as handle:
            client = handle.client()
            for method, path in (("GET", "/v3/solve"), ("POST", "/v1/solve")):
                missing = client._request(method, path, None, None)
                assert missing.status == 404
                assert missing.payload["error"]["type"] == "SladeError"
            wrong = client._request("GET", "/v2/solve", None, None)
            assert wrong.status == 405

    def test_batch_payload_must_be_a_request_list(self):
        with ServerHandle() as handle:
            reply = handle.client()._request(
                "POST", "/v2/solve/batch", {"requests": []}, None
            )
            assert reply.status == 400
            assert "requests" in reply.payload["error"]["message"]

    def test_oversized_header_line_answers_431(self):
        """A header overrunning the stream buffer must get a structured 431,
        not an unhandled ValueError that resets the connection."""
        with ServerHandle() as handle:
            conn = socket.create_connection(
                (handle.server.host, handle.server.port), timeout=10
            )
            try:
                conn.sendall(
                    b"GET /healthz HTTP/1.1\r\nX-Big: "
                    + b"a" * (100 * 1024)
                    + b"\r\n\r\n"
                )
                head = conn.recv(65536).split(b"\r\n", 1)[0]
                assert b"431" in head
            finally:
                conn.close()

    def test_mixed_tenant_batch_is_rejected(self):
        """One batch, one tenant: mixed batches would charge the whole cost
        to a single bucket and break tenant isolation."""
        with ServerHandle() as handle:
            reply = handle.client().solve_batch(
                [
                    inline_request(n=20, tenant="team-a"),
                    inline_request(n=21, tenant="team-b"),
                ]
            )
            assert reply.status == 400
            assert "one tenant" in reply.payload["error"]["message"]

    def test_unservable_batch_cost_is_400_without_retry_after(self):
        admission = AdmissionController(rate=5.0)  # burst defaults to 5
        with ServerHandle(admission=admission) as handle:
            reply = handle.client(tenant="bulk").solve_batch(
                [inline_request(n=20 + i) for i in range(10)]
            )
            assert reply.status == 400
            assert reply.payload["error"]["type"] == "RequestValidationError"
            assert reply.header("Retry-After") is None


class TestMicroBatchCoalescing:
    def test_concurrent_clients_share_one_micro_batch(self, blocking_facade):
        """Acceptance criterion: concurrency provably coalesces, asserted
        via the /metrics batch-size counters."""
        service = AsyncSladeService(service=blocking_facade)
        with ServerHandle(service=service) as handle:
            barrier = threading.Barrier(6)
            replies = [None] * 6

            def fire(index: int) -> None:
                client = handle.client()
                barrier.wait()
                replies[index] = client.solve(
                    inline_request(n=40 + index, request_id=f"c{index}"),
                    include_plan=False,
                )

            threads = [
                threading.Thread(target=fire, args=(index,)) for index in range(6)
            ]
            for thread in threads:
                thread.start()
            # The first flush blocks in the facade; release it once all six
            # solves are in flight, so the rest are queued behind it.
            assert blocking_facade.entered.wait(timeout=30)
            probe = handle.client()
            deadline = time.monotonic() + 30
            while probe.healthz().payload["inflight_solves"] < 6:
                assert time.monotonic() < deadline, "solves never all in flight"
            blocking_facade.release.set()
            for thread in threads:
                thread.join(timeout=30)
            assert all(reply is not None for reply in replies)
            assert all(reply.payload["ok"] for reply in replies)
            # At least one flush carried several requests...
            assert max(reply.payload["batch_size"] for reply in replies) > 1
            metrics = handle.client().metrics().payload
            assert metrics["service.batch_size.max"] > 1
            assert metrics["service.flushes"] < 6
            # ...and the shared menu was built exactly once.
            assert metrics["cache.misses"] == 1
            assert metrics["cache.hits"] == 5
            assert metrics["service.queue_wait_seconds.count"] == 6


class TestConcurrentLoad:
    def test_concurrent_tenants_all_succeed_and_warm_the_plan_cache(self):
        """Eight clients, two tenants, two (menu, threshold) keys: every call
        answers, and repeats of a key are served from the plan cache."""
        with ServerHandle() as handle:
            replies = []
            lock = threading.Lock()

            def drive(worker: int) -> None:
                client = handle.client(tenant=f"tenant-{worker % 2}")
                for index in range(6):
                    reply = client.solve(
                        inline_request(n=20 + index, threshold=(0.9, 0.92)[index % 2]),
                        include_plan=False,
                    )
                    with lock:
                        replies.append(reply)

            threads = [threading.Thread(target=drive, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert len(replies) == 48
            assert all(reply.status == 200 for reply in replies)
            assert all(reply.payload["ok"] for reply in replies)
            hits = sum(reply.payload["cache"] == "hit" for reply in replies)
            assert hits > len(replies) / 2
            metrics = handle.client().metrics().payload
            assert metrics["cache.hits"] == hits
            assert metrics["cache.hits"] + metrics["cache.misses"] == len(replies)


class TestAdmissionOverHttp:
    @pytest.mark.parametrize(
        "limits",
        [
            {"rate": 0.001, "burst": 2},
            {"tenant_limits": {"team-a": (0.001, 2.0)}},
        ],
        ids=["default-limits", "tenant-override"],
    )
    def test_tenant_quota_rejections_do_not_affect_other_tenants(self, limits):
        admission = AdmissionController(**limits)
        with ServerHandle(admission=admission) as handle:
            client_a = handle.client(tenant="team-a")
            client_b = handle.client(tenant="team-b")
            assert client_a.solve(inline_request(n=20)).status == 200
            assert client_a.solve(inline_request(n=21)).status == 200
            rejected = client_a.solve(inline_request(n=22))
            assert rejected.status == 429
            assert rejected.payload["ok"] is False
            assert rejected.payload["error"]["type"] == "RateLimitedError"
            assert int(rejected.header("Retry-After")) >= 1
            # Tenant B's untouched bucket still admits.
            assert client_b.solve(inline_request(n=23)).status == 200
            metrics = handle.client().metrics().payload
            assert metrics["admission.rate_limited"] == 1
            assert metrics["admission.admitted"] == 3
            assert metrics["http.responses.429"] == 1

    def test_tenant_from_request_field_beats_header(self):
        admission = AdmissionController(rate=0.001, burst=1)
        with ServerHandle(admission=admission) as handle:
            client = handle.client(tenant="header-tenant")
            assert (
                client.solve(inline_request(tenant="field-tenant")).status == 200
            )
            # The field tenant's bucket is now empty; the header tenant's
            # provisional charge was refunded, so its bucket is untouched.
            assert client.solve(inline_request(tenant="field-tenant")).status == 429
            assert client.solve(inline_request(n=30)).status == 200

    def test_exhausted_header_tenant_rejected_before_parse(self):
        """The provisional pre-parse charge: an out-of-quota header tenant
        is rejected without the server parsing its (possibly huge) body."""
        admission = AdmissionController(rate=0.001, burst=1)
        with ServerHandle(admission=admission) as handle:
            client = handle.client(tenant="spender")
            assert client.solve(inline_request(n=20)).status == 200
            rejected = client._request("POST", "/v2/solve", None, None)
            # An empty (unparseable) body still gets the 429, proving
            # admission ran first; otherwise this would be a 400.
            assert rejected.status == 429
            metrics = handle.client().metrics().payload
            assert "http.responses.400" not in metrics

    def test_batch_charges_its_size(self):
        admission = AdmissionController(rate=0.001, burst=3)
        with ServerHandle(admission=admission) as handle:
            client = handle.client(tenant="bulk")
            good = client.solve_batch(
                [inline_request(n=20 + i) for i in range(3)], include_plan=False
            )
            assert good.status == 200
            rejected = client.solve_batch([inline_request(n=40)])
            assert rejected.status == 429

    def test_global_capacity_is_503(self):
        admission = AdmissionController(max_total_inflight=1)
        with ServerHandle(admission=admission) as handle:
            release = threading.Event()
            held = hold_solves(handle, release)
            started = threading.Event()
            slow_reply = {}

            def slow() -> None:
                client = handle.client(tenant="slow")
                started.set()
                slow_reply["reply"] = client.solve(
                    inline_request(), include_plan=False
                )

            thread = threading.Thread(target=slow)
            thread.start()
            started.wait()
            try:
                assert held.wait(timeout=10)  # the slow request is in the executor
                rejected = handle.client(tenant="other").solve(
                    inline_request(n=25), include_plan=False
                )
                assert rejected.status == 503
                assert rejected.payload["error"]["type"] == "OverloadedError"
            finally:
                release.set()
            thread.join(timeout=60)
            assert slow_reply["reply"].status == 200
            assert slow_reply["reply"].payload["ok"] is True


class TestLivenessAndShutdown:
    def test_healthz_stays_responsive_during_long_solve(self):
        with ServerHandle() as handle:
            release = threading.Event()
            held = hold_solves(handle, release)
            started = threading.Event()
            slow_reply = {}

            def slow() -> None:
                client = handle.client()
                started.set()
                slow_reply["reply"] = client.solve(inline_request(), include_plan=False)

            thread = threading.Thread(target=slow)
            thread.start()
            started.wait()
            try:
                assert held.wait(timeout=10)  # the solve occupies the executor
                t0 = time.perf_counter()
                health = handle.client().healthz()
                latency = time.perf_counter() - t0
                assert health.status == 200
                assert health.payload["status"] == "ok"
                assert latency < 1.0, f"healthz took {latency:.2f}s during a solve"
            finally:
                release.set()
            thread.join(timeout=60)
            assert slow_reply["reply"].payload["ok"] is True

    def test_close_drains_inflight_requests(self):
        with ServerHandle() as handle:
            # The held solve finishes only once the server is closing.
            held = hold_solves(handle, handle.closing)
            started = threading.Event()
            outcome = {}

            def inflight() -> None:
                client = handle.client()
                started.set()
                outcome["reply"] = client.solve(inline_request(), include_plan=False)

            thread = threading.Thread(target=inflight)
            thread.start()
            started.wait()
            assert held.wait(timeout=10)  # the request is being solved when we close
            handle.stop()
            thread.join(timeout=60)
            assert outcome["reply"].status == 200
            assert outcome["reply"].payload["ok"] is True
        # The socket is gone after shutdown.
        with pytest.raises(TransportError):
            SladeHttpClient(handle.base_url, timeout=2).healthz()

    def test_metrics_text_format_is_prometheus(self):
        with ServerHandle() as handle:
            handle.client().solve(inline_request(), include_plan=False)
            text = handle.client().metrics(fmt="text").text
            lines = dict(
                line.rsplit(" ", 1) for line in text.strip().splitlines()
            )
            assert lines["slade_cache_misses"] == "1"
            assert "slade_cache_entries" in lines
            assert "slade_service_batch_size_max" in lines

    def test_metrics_text_exposes_queue_wait_histogram(self):
        with ServerHandle() as handle:
            handle.client().solve(inline_request(), include_plan=False)
            text = handle.client().metrics(fmt="text").text
            # Native Prometheus histogram exposition for queue waits: one
            # cumulative line per bucket boundary plus +Inf and _sum.
            assert 'slade_service_queue_wait_seconds_bucket{le="0.01"}' in text
            assert 'slade_service_queue_wait_seconds_bucket{le="+Inf"} 1' in text
            assert "slade_service_queue_wait_seconds_sum" in text
            assert "slade_service_queue_wait_seconds_count 1" in text
            # The JSON form keeps the flattened cumulative-bucket keys.
            metrics = handle.client().metrics().payload
            bucket_keys = [
                key for key in metrics
                if key.startswith("service.queue_wait_seconds.bucket.le_")
            ]
            assert bucket_keys
            assert metrics["service.queue_wait_seconds.bucket.le_inf"] == 1.0


class TestServeHttpCli:
    def test_cli_serves_and_sigterm_drains_to_exit_zero(self, tmp_path):
        """`repro serve --http` boots, answers over the wire, and a SIGTERM
        produces a clean (exit 0) drain — the CI smoke job's contract."""
        src_root = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--http", "127.0.0.1:0", "--stats",
                "--cache", f"sqlite:{tmp_path / 'plans.db'}",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline().strip()
            assert line.startswith("listening on http://"), line
            base_url = line.split(" ", 2)[2]
            client = SladeHttpClient(base_url, timeout=30)
            reply = client.solve(inline_request())
            assert reply.status == 200 and reply.payload["ok"] is True
            assert client.healthz().payload["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            _stdout, stderr = proc.communicate(timeout=30)
            assert proc.returncode == 0, stderr
            assert "served" in stderr  # --stats summary after the drain
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_port_collision_surfaces_as_slade_error_exit(self):
        """A taken port fails fast with the CLI's uniform error handling."""
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        src_root = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
        try:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--http", f"127.0.0.1:{port}",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 2
            assert proc.stderr.strip().startswith("error: cannot serve on")
            assert "Traceback" not in proc.stderr
        finally:
            blocker.close()


class TestFeedbackRoute:
    def test_feedback_records_observations(self):
        with ServerHandle() as handle:
            client = handle.client()
            reply = client._request(
                "POST", "/v2/feedback",
                {"bins": BINS, "observations": [[2, True], [2, False]]},
                None,
            )
            assert reply.status == 200
            assert reply.payload["kind"] == "feedback_response"
            assert reply.payload["recorded"] == 2
            metrics = client.metrics().payload
            assert metrics["drift.observations"] == 2
            assert metrics["drift.feedback_requests"] == 1
            assert metrics["drift.monitored_menus"] == 1.0

    def test_malformed_feedback_is_400(self):
        with ServerHandle() as handle:
            client = handle.client()
            for payload in (
                None,                                           # not JSON
                {"bins": BINS},                                 # no observations
                {"bins": BINS, "observations": [[1]]},          # bad pair
                {"observations": [[1, True]]},                  # no bins
            ):
                reply = client._request("POST", "/v2/feedback", payload, None)
                assert reply.status == 400, payload
                assert reply.payload["ok"] is False

    def test_feedback_is_post_only(self):
        with ServerHandle() as handle:
            reply = handle.client()._request("GET", "/v2/feedback", None, None)
            assert reply.status == 405

    def test_feedback_honours_auth_token(self):
        with ServerHandle(auth_token="sesame") as handle:
            payload = {"bins": BINS, "observations": [[1, True]]}
            denied = handle.client()._request(
                "POST", "/v2/feedback", payload, None
            )
            assert denied.status == 401
            allowed = handle.client(auth_token="sesame").feedback(payload)
            assert allowed.status == 200

    def test_metrics_exposes_drift_gauges(self):
        with ServerHandle() as handle:
            metrics = handle.client().metrics().payload
            for gauge in (
                "drift.monitored_menus",
                "drift.drifted_menus",
                "drift.max_shortfall",
            ):
                assert gauge in metrics
