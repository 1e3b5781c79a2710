"""HTTP transport: concurrent wire-level clients still coalesce and win.

The transport claim of the HTTP PR, quantified end to end: a fleet of
independent HTTP clients — separate sockets, separate threads, no shared
state — POSTing single solve requests against one ``HttpSladeServer``
completes much faster than solving the same stream cold, because every
request reads one planner and OPQ cache, and the requests that arrive while
the first cold build runs queue behind it and leave in shared flushes.  The
coalescing is asserted from the *outside*, via the ``/metrics`` endpoint's
batch-size counters, exactly as the CI acceptance criterion demands.

Set ``SLADE_BENCH_SMOKE=1`` for a CI-sized run (fewer clients, same
assertions).
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor

from benchmarks.conftest import record_result, report
from repro.algorithms.registry import create_solver
from repro.core.problem import SladeProblem
from repro.datasets.smic import smic_bin_set
from repro.io.serialization import solve_request_to_dict
from repro.service import ServiceConfig, SladeHttpClient, SolveRequest
from repro.service.transport.server import HttpSladeServer
from repro.utils.timing import Stopwatch

#: CI smoke mode: fewer concurrent clients, identical assertions.
SMOKE = os.environ.get("SLADE_BENCH_SMOKE", "0") == "1"

#: Number of concurrent HTTP clients.
CLIENTS = 12 if SMOKE else 32

#: One shared (menu, threshold) pair whose OPQ construction dwarfs both the
#: per-request cover time and the HTTP round-trip overhead: the SMIC menu at
#: a high threshold pays tens of milliseconds per Algorithm 2 run, so the
#: cold path rebuilds it per request while the server builds it once.
THRESHOLD = 0.99
MAX_CARDINALITY = 20


class _ServerThread:
    """One HTTP server on a background event loop (port picked by the OS)."""

    def __init__(self, config: ServiceConfig) -> None:
        self._config = config
        self._ready = threading.Event()
        self._stop = None
        self._loop = None
        self.server = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = HttpSladeServer(config=self._config)
        await self.server.start("127.0.0.1", 0)
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(timeout=10)
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


def _request_payloads():
    bins = smic_bin_set(MAX_CARDINALITY)
    return [
        solve_request_to_dict(
            SolveRequest(
                problem=SladeProblem.homogeneous(
                    100 + 10 * i, THRESHOLD, bins, name=f"http-{i}"
                ),
                request_id=f"http-{i}",
            )
        )
        for i in range(CLIENTS)
    ]


def test_concurrent_http_clients_coalesce_and_beat_cold_solves():
    payloads = _request_payloads()
    bins = smic_bin_set(MAX_CARDINALITY)
    problems = [
        SladeProblem.homogeneous(100 + 10 * i, THRESHOLD, bins)
        for i in range(CLIENTS)
    ]

    cold_watch = Stopwatch()
    with cold_watch:
        cold_costs = [
            create_solver("opq").solve(problem).total_cost for problem in problems
        ]

    config = ServiceConfig()
    with _ServerThread(config) as handle:
        base_url = handle.server.base_url
        barrier = threading.Barrier(CLIENTS)

        def fire(payload):
            client = SladeHttpClient(base_url, timeout=120)
            barrier.wait()
            return client.solve(payload, include_plan=False)

        http_watch = Stopwatch()
        with http_watch:
            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                replies = list(pool.map(fire, payloads))

        metrics = SladeHttpClient(base_url).metrics().payload

    speedup = (
        cold_watch.elapsed / http_watch.elapsed
        if http_watch.elapsed > 0
        else float("inf")
    )
    coalesced = sum(1 for reply in replies if reply.payload["batch_size"] > 1)
    report(
        f"Concurrent HTTP clients vs per-request cold solves "
        f"({CLIENTS} clients, smic |B|={MAX_CARDINALITY}, t={THRESHOLD})",
        "\n".join(
            [
                f"  cold per-request solves   : {cold_watch.elapsed * 1000:.1f} ms",
                f"  concurrent HTTP clients   : {http_watch.elapsed * 1000:.1f} ms",
                f"  speedup                   : {speedup:.1f}x",
                f"  requests in shared batch  : {coalesced}/{CLIENTS}",
                f"  flushes / largest batch   : "
                f"{metrics['service.flushes']:.0f} / "
                f"{metrics['service.batch_size.max']:.0f}",
                f"  cache hits / misses       : {metrics['cache.hits']:.0f} / "
                f"{metrics['cache.misses']:.0f}",
                f"  mean queue wait           : "
                f"{metrics['service.queue_wait_seconds.mean'] * 1000:.2f} ms",
            ]
        ),
    )
    record_result(
        "http_concurrent_clients",
        clients=CLIENTS,
        cold_seconds=cold_watch.elapsed,
        http_seconds=http_watch.elapsed,
        speedup=speedup,
        largest_batch=metrics["service.batch_size.max"],
        flushes=metrics["service.flushes"],
        mean_queue_wait_seconds=metrics["service.queue_wait_seconds.mean"],
    )

    # Wire-level responses carry the same plans, only faster.
    assert [reply.status for reply in replies] == [200] * CLIENTS
    assert all(reply.payload["ok"] for reply in replies)
    assert [
        reply.payload["total_cost"] for reply in replies
    ] == cold_costs
    # Coalescing is externally observable: shared batches, one OPQ build.
    assert metrics["service.batch_size.max"] > 1
    assert metrics["service.flushes"] < CLIENTS
    assert metrics["cache.misses"] == 1
    assert metrics["cache.hits"] == CLIENTS - 1
    # And the transport still beats naive per-request solving comfortably.
    assert speedup >= 2.0, f"expected >= 2x speedup, measured {speedup:.1f}x"
