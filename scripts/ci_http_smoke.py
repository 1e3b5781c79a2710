#!/usr/bin/env python
"""CI smoke test: boot `repro serve --http`, drive it over the wire, shut it
down cleanly, and fail loudly on any broken round-trip or leaked process.

Four server runs cover the transport surface:

1. **functional** (no admission limits): solve, batch, healthz and metrics
   round-trips, including the micro-batch counters that prove concurrent
   requests coalesce;
2. **admission** (tight per-tenant bucket): tenant A collects a structured
   429 with ``Retry-After`` while tenant B keeps being admitted;
3. **deadline** (v2 surface): a budgeted solve answers with a provenance
   block, an already-expired budget answers a structured 503 without any
   planner work, and a misspelled request field is rejected;
4. **auth** (``--auth-token``): solve endpoints demand the shared secret
   (401 envelope otherwise) while health/metrics stay open.

Each run ends with SIGTERM; the server must drain and exit 0 within the
timeout, and its process must actually be gone afterwards.

Exits non-zero on the first failed check.  Run from the repository root::

    python scripts/ci_http_smoke.py

Uses the installed package when available and falls back to the in-repo
sources otherwise, so it works both in CI (after ``pip install .``) and in a
plain checkout.
"""

from __future__ import annotations

import importlib.util
import os
import queue
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# Prefer the installed package: in CI this script runs after `pip install .`
# and must exercise the wheel, not the checkout (a packaging regression has
# to fail here).  Only a plain checkout falls back to src/.
USING_SRC_TREE = importlib.util.find_spec("repro") is None
if USING_SRC_TREE:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import SladeHttpClient, TransportError  # noqa: E402

BINS = [[1, 0.9, 0.10], [2, 0.85, 0.18], [3, 0.8, 0.24]]
STARTUP_TIMEOUT = 60
SHUTDOWN_TIMEOUT = 30

_checks = 0


def check(condition: bool, label: str) -> None:
    global _checks
    _checks += 1
    if condition:
        print(f"  ok: {label}")
    else:
        print(f"  FAIL: {label}", file=sys.stderr)
        raise SystemExit(1)


def solve_payload(n: int, threshold: float = 0.9, **extra) -> dict:
    payload = {
        "kind": "solve_request",
        "version": 1,
        "n": n,
        "threshold": threshold,
        "bins": BINS,
    }
    payload.update(extra)
    return payload


class Server:
    """One `repro serve --http` subprocess with clean-shutdown checks."""

    def __init__(self, *extra_args: str) -> None:
        env = dict(os.environ)
        if USING_SRC_TREE:
            env["PYTHONPATH"] = (
                f"{REPO_ROOT / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
            )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--http", "127.0.0.1:0", "--stats", *extra_args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # Read the banner on a thread so a server that hangs *without*
        # printing anything still fails within STARTUP_TIMEOUT rather than
        # blocking this job on a stderr readline forever.
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: lines.put(self.proc.stderr.readline()), daemon=True
        )
        reader.start()
        try:
            line = lines.get(timeout=STARTUP_TIMEOUT).strip()
        except queue.Empty:
            self.proc.kill()
            self.proc.communicate()
            raise SystemExit(
                f"server printed nothing within {STARTUP_TIMEOUT}s"
            ) from None
        if not line.startswith("listening on http://"):
            out, err = self.proc.communicate(timeout=10)
            raise SystemExit(
                f"server failed to start: {line!r}\nstdout: {out}\nstderr: {err}"
            )
        self.base_url = line.split(" ", 2)[2]
        print(f"server up at {self.base_url} (pid {self.proc.pid})")

    def stop(self) -> None:
        """SIGTERM must drain to exit 0; the process must be gone after."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            _out, err = self.proc.communicate(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            check(False, "server drained within the shutdown timeout")
            return
        check(self.proc.returncode == 0,
              f"server exited 0 on SIGTERM (got {self.proc.returncode}): {err.strip()!r}")
        # The leak probe: nothing (the process or any child it left behind)
        # may still be answering on the port after the exit.
        try:
            SladeHttpClient(self.base_url, timeout=2).healthz()
            check(False, "port released after shutdown (no leaked listener)")
        except TransportError:
            check(True, "port released after shutdown (no leaked listener)")

    def kill_if_alive(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def functional_phase() -> None:
    print("\n[1/4] functional round-trips")
    server = Server()
    try:
        client = SladeHttpClient(server.base_url, tenant="smoke", timeout=60)

        health = client.healthz()
        check(health.status == 200 and health.payload["status"] == "ok",
              "GET /healthz")

        reply = client.solve(solve_payload(1_000))
        check(reply.status == 200 and reply.payload["ok"] is True,
              "POST /v2/solve returns an ok response")
        check(reply.payload["plan"] is not None, "response carries the plan")
        check(reply.payload["cache"] == "miss", "first solve is a cache miss")

        batch = client.solve_batch(
            [solve_payload(200 * (i + 1)) for i in range(4)], include_plan=False
        )
        rows = batch.payload["responses"]
        check(batch.status == 200 and len(rows) == 4, "POST /v2/solve/batch")
        check(all(row["ok"] for row in rows), "batch rows all ok")
        check(all(row["cache"] == "hit" for row in rows),
              "batch rides the warmed cache")

        # Concurrent single solves coalesce into shared micro-batches.
        with ThreadPoolExecutor(max_workers=6) as pool:
            replies = list(pool.map(
                lambda i: SladeHttpClient(server.base_url, timeout=60).solve(
                    solve_payload(100 + i), include_plan=False),
                range(6),
            ))
        check(all(r.status == 200 and r.payload["ok"] for r in replies),
              "6 concurrent solves all ok")

        metrics = client.metrics()
        check(metrics.status == 200, "GET /metrics?format=json")
        check(metrics.payload["cache.misses"] == 1.0,
              "one OPQ build across every request")
        check(metrics.payload["service.batch_size.max"] > 1,
              "micro-batch counters show coalescing")
        text = client.metrics(fmt="text")
        check(text.text.startswith("slade_"), "GET /metrics Prometheus text")

        bad = client._request("POST", "/v2/solve", None, None)
        check(bad.status == 400 and bad.payload["error"]["type"] == "JSONDecodeError",
              "malformed JSON answers a structured 400 envelope")

        server.stop()
    finally:
        server.kill_if_alive()


def admission_phase() -> None:
    print("\n[2/4] admission control")
    server = Server("--rate", "0.05", "--burst", "2")
    try:
        tenant_a = SladeHttpClient(server.base_url, tenant="tenant-a", timeout=60)
        tenant_b = SladeHttpClient(server.base_url, tenant="tenant-b", timeout=60)

        check(tenant_a.solve(solve_payload(100), include_plan=False).status == 200,
              "tenant A: first request admitted")
        check(tenant_a.solve(solve_payload(101), include_plan=False).status == 200,
              "tenant A: burst capacity admitted")
        rejected = tenant_a.solve(solve_payload(102), include_plan=False)
        check(rejected.status == 429, "tenant A: bucket exhausted -> 429")
        check(rejected.payload["error"]["type"] == "RateLimitedError",
              "429 carries the RateLimitedError envelope")
        check(int(rejected.header("Retry-After", "0")) >= 1,
              "429 carries Retry-After")
        check(tenant_b.solve(solve_payload(103), include_plan=False).status == 200,
              "tenant B: unaffected by tenant A's quota")

        metrics = tenant_b.metrics().payload
        check(metrics["admission.rate_limited"] == 1.0,
              "admission counters recorded the rejection")
        check(metrics["http.responses.429"] == 1.0,
              "HTTP status counters recorded the rejection")

        server.stop()
    finally:
        server.kill_if_alive()


def deadline_phase() -> None:
    print("\n[3/4] deadline propagation (v2 surface)")
    server = Server()
    try:
        client = SladeHttpClient(server.base_url, tenant="smoke", timeout=60)

        reply = client.solve(solve_payload(500), deadline_ms=5_000)
        check(reply.status == 200 and reply.payload["ok"] is True,
              "budgeted POST /v2/solve returns ok")
        check(reply.payload.get("schema_version") == 2,
              "response carries schema_version 2")
        provenance = reply.payload.get("provenance") or {}
        check(provenance.get("quality") in ("optimal", "refined", "greedy"),
              f"provenance carries a quality marker ({provenance.get('quality')})")
        check(provenance.get("tier") in ("cache", "build", "greedy", "solver"),
              f"provenance names the answering tier ({provenance.get('tier')})")
        check(0 < provenance.get("remaining_budget_ms", -1.0) <= 5_000,
              "provenance reports the remaining budget at completion")

        builds_before = client.metrics().payload.get("cache.misses", 0.0)
        expired = client.solve(solve_payload(501), deadline_ms=0.001)
        check(expired.status == 503, "already-expired budget -> 503")
        check(expired.payload["error"]["type"] == "DeadlineExceededError",
              "503 carries the DeadlineExceededError envelope")
        metrics = client.metrics().payload
        check(metrics.get("cache.misses", 0.0) == builds_before,
              "expired request triggered no planner work")
        check(metrics.get("deadline.expired", 0.0) == 1.0,
              "deadline.expired counter recorded the rejection")
        check(metrics.get("deadline.hits", 0.0) >= 1.0,
              "deadline.hits counter recorded the served budget")

        typo = client.solve(solve_payload(502, dead_line_ms=50))
        check(typo.status == 400
              and typo.payload["error"]["type"] == "RequestValidationError",
              "unknown request field -> structured 400")

        retired = client._request("POST", "/v1/solve", solve_payload(500), None)
        check(retired.status == 404, "/v1/solve answers 404")

        server.stop()
    finally:
        server.kill_if_alive()


def auth_phase() -> None:
    print("\n[4/4] shared-secret auth")
    server = Server("--auth-token", "smoke-secret")
    try:
        anonymous = SladeHttpClient(server.base_url, tenant="smoke", timeout=60)
        wrong = SladeHttpClient(server.base_url, auth_token="wrong", timeout=60)
        trusted = SladeHttpClient(
            server.base_url, tenant="smoke", auth_token="smoke-secret", timeout=60
        )

        denied = anonymous.solve(solve_payload(100), include_plan=False)
        check(denied.status == 401, "missing token -> 401")
        check(denied.payload["error"]["type"] == "AuthenticationError",
              "401 carries the AuthenticationError envelope")
        check(wrong.solve(solve_payload(100), include_plan=False).status == 401,
              "wrong token -> 401")
        check(trusted.solve(solve_payload(100), include_plan=False).status == 200,
              "bearer token admitted")
        check(anonymous.healthz().status == 200, "healthz stays open")
        metrics = anonymous.metrics()
        check(metrics.status == 200, "metrics stays open")
        check(metrics.payload.get("admission.unauthorized", 0.0) == 2.0,
              "admission.unauthorized counted both rejections")

        server.stop()
    finally:
        server.kill_if_alive()


def main() -> None:
    functional_phase()
    admission_phase()
    deadline_phase()
    auth_phase()
    print(f"\nhttp smoke: all {_checks} checks passed")


if __name__ == "__main__":
    main()
