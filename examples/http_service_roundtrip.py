"""Serve SLADE over HTTP and drive it with the stdlib client.

This example boots an in-process :class:`~repro.service.HttpSladeServer`
(the same transport ``repro serve --http HOST:PORT`` runs), then plays three
roles against it:

1. a well-behaved tenant posting single solves and a batch;
2. a greedy tenant that exhausts its token bucket and collects a structured
   429 envelope — without slowing the well-behaved tenant down;
3. an operator scraping ``/healthz`` and ``/metrics``.

Run it directly::

    PYTHONPATH=src python examples/http_service_roundtrip.py
"""

from __future__ import annotations

import asyncio
import threading

from repro.service import AdmissionController, SladeHttpClient
from repro.service.transport.server import HttpSladeServer

#: A tiny three-bin menu: [cardinality, confidence, cost].
BINS = [[1, 0.9, 0.10], [2, 0.85, 0.18], [3, 0.8, 0.24]]


def solve_payload(n: int, threshold: float, request_id: str) -> dict:
    """The compact inline request form the JSON-lines loop also accepts."""
    return {
        "kind": "solve_request",
        "version": 1,
        "request_id": request_id,
        "n": n,
        "threshold": threshold,
        "bins": BINS,
    }


def main() -> None:
    ready = threading.Event()
    holder: dict = {}

    def run_server() -> None:
        async def serve() -> None:
            # Each tenant gets a bucket of 5 requests refilling slowly:
            # team-a's scripted traffic spends exactly 5, the greedy tenant
            # asks for 6 and collects a 429 on the last one.
            server = HttpSladeServer(
                admission=AdmissionController(rate=0.2, burst=5),
            )
            await server.start("127.0.0.1", 0)
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = stop = asyncio.Event()
            ready.set()
            await stop.wait()
            await server.close()

        asyncio.run(serve())

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    ready.wait(timeout=10)
    base_url = holder["server"].base_url
    print(f"server listening on {base_url}\n")

    # Role 1: a well-behaved tenant.
    team_a = SladeHttpClient(base_url, tenant="team-a")
    reply = team_a.solve(solve_payload(1_000, 0.9, "quickstart-1"))
    body = reply.payload
    print(f"[team-a] solve      -> HTTP {reply.status}, ok={body['ok']}, "
          f"cost={body['total_cost']:.2f}, cache={body['cache']}")
    batch = team_a.solve_batch(
        [solve_payload(500 * (i + 1), 0.9, f"batch-{i}") for i in range(3)],
        include_plan=False,
    )
    costs = [f"{entry['total_cost']:.2f}" for entry in batch.payload["responses"]]
    sizes = {entry["batch_size"] for entry in batch.payload["responses"]}
    print(f"[team-a] batch of 3 -> HTTP {batch.status}, costs={costs}, "
          f"micro-batch sizes={sorted(sizes)}")

    # Role 2: a greedy tenant hits its bucket; team-a is unaffected.
    greedy = SladeHttpClient(base_url, tenant="team-greedy")
    statuses = [
        greedy.solve(solve_payload(100, 0.9, f"greedy-{i}"),
                     include_plan=False).status
        for i in range(5)
    ]
    print(f"[greedy] 5 rapid solves -> statuses {statuses}")
    rejected = greedy.solve(solve_payload(100, 0.9, "greedy-x"),
                            include_plan=False)
    if rejected.status == 429:
        print(f"[greedy] rejection envelope: {rejected.payload['error']} "
              f"(Retry-After: {rejected.header('Retry-After')}s)")
    follow_up = team_a.solve(solve_payload(100, 0.9, "quickstart-2"),
                             include_plan=False)
    print(f"[team-a] still admitted -> HTTP {follow_up.status}, "
          f"cache={follow_up.payload['cache']}\n")

    # Role 3: the operator's view.
    health = team_a.healthz().payload
    print(f"healthz: {health}")
    metrics = team_a.metrics().payload
    for key in (
        "cache.hits", "cache.misses", "service.batch_size.max",
        "admission.admitted", "admission.rate_limited",
        "http.responses.200", "http.responses.429",
    ):
        print(f"  {key:<28} {metrics.get(key, 0.0):g}")

    holder["loop"].call_soon_threadsafe(holder["stop"].set)
    thread.join(timeout=10)
    print("\nserver drained and stopped cleanly")


if __name__ == "__main__":
    main()
