"""Service layer: async micro-batching vs naive per-request solving, and
warm starts from the persistent SQLite plan-cache backend.

Two claims from the service-layer PR are quantified here:

(a) a stream of single requests sharing one ``(menu, threshold)`` pair,
    submitted concurrently to :class:`~repro.service.AsyncSladeService`,
    completes much faster than solving each request cold — every request
    reads the shared plan cache, so Algorithm 2 runs once;

(b) a *second process* opening the same SQLite cache backend starts with a
    non-zero cache hit rate: its very first request is answered without an
    Algorithm 2 run.

Set ``SLADE_BENCH_SMOKE=1`` for a CI-sized run (fewer requests, same
assertions).
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.conftest import record_result, report
from repro.algorithms.registry import create_solver
from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.service import AsyncSladeService, ServiceConfig, SolveRequest
from repro.utils.timing import Stopwatch

#: CI smoke mode: fewer requests, identical assertions.
SMOKE = os.environ.get("SLADE_BENCH_SMOKE", "0") == "1"

#: Number of requests in the shared-menu stream.
REQUESTS = 16 if SMOKE else 48

#: The shared menu and threshold — the same regime as bench_batch_engine:
#: Algorithm 2 dwarfs Algorithm 3 at this threshold and menu size.
THRESHOLD = 0.95
MAX_CARDINALITY = 20


def _request_stream():
    bins = jelly_bin_set(MAX_CARDINALITY)
    return [
        SolveRequest(
            problem=SladeProblem.homogeneous(
                100 + 10 * i, THRESHOLD, bins, name=f"stream-{i}"
            ),
            request_id=f"stream-{i}",
        )
        for i in range(REQUESTS)
    ]


def test_async_micro_batching_beats_per_request_cold_solves():
    """Claim (a): the micro-batched stream beats naive per-request solving."""
    requests = _request_stream()

    cold_watch = Stopwatch()
    with cold_watch:
        cold_costs = [
            create_solver("opq").solve(request.problem).total_cost
            for request in requests
        ]

    async def scenario():
        async with AsyncSladeService() as svc:
            return await svc.submit_many(requests)

    warm_watch = Stopwatch()
    with warm_watch:
        responses = asyncio.run(scenario())

    speedup = (
        cold_watch.elapsed / warm_watch.elapsed
        if warm_watch.elapsed > 0
        else float("inf")
    )
    batched = sum(1 for r in responses if r.batch_size > 1)
    report(
        f"Async micro-batching vs per-request cold solves "
        f"({REQUESTS} requests, jelly |B|={MAX_CARDINALITY}, t={THRESHOLD})",
        "\n".join(
            [
                f"  cold per-request solves  : {cold_watch.elapsed * 1000:.1f} ms",
                f"  async micro-batched      : {warm_watch.elapsed * 1000:.1f} ms",
                f"  speedup                  : {speedup:.1f}x",
                f"  requests in shared batch : {batched}/{REQUESTS}",
                f"  cache provenance         : "
                f"{sum(1 for r in responses if r.cache == 'hit')} hits / "
                f"{sum(1 for r in responses if r.cache == 'miss')} misses",
            ]
        ),
    )

    record_result(
        "service_async_micro_batching",
        requests=REQUESTS,
        cold_seconds=cold_watch.elapsed,
        batched_seconds=warm_watch.elapsed,
        speedup=speedup,
        coalesced_requests=batched,
    )

    # The plans must be identical, only faster.
    assert [r.request_id for r in responses] == [r.request_id for r in requests]
    assert all(r.ok for r in responses)
    assert [r.total_cost for r in responses] == cold_costs
    # Micro-batching actually coalesced the stream...
    assert any(r.batch_size > 1 for r in responses)
    assert sum(1 for r in responses if r.cache == "miss") == 1
    # ...and beat naive per-request solving comfortably.
    assert speedup >= 3.0, f"expected >= 3x speedup, measured {speedup:.1f}x"


#: Run by the subprocess of the warm-start benchmark: open the shared SQLite
#: backend, serve the same stream, and print this process's cache stats.
_SECOND_PROCESS_SCRIPT = """
import json, sys
from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.service import ServiceConfig, SladeService, SolveRequest
from repro.utils.timing import Stopwatch

db_path, threshold, max_cardinality, requests = (
    sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
)
bins = jelly_bin_set(max_cardinality)
service = SladeService(ServiceConfig(cache_backend=f"sqlite:{db_path}"))
watch = Stopwatch()
with watch:
    responses = [
        service.solve(
            SolveRequest(
                problem=SladeProblem.homogeneous(100 + 10 * i, threshold, bins)
            )
        )
        for i in range(requests)
    ]
stats = service.cache_stats
service.close()
print(json.dumps({
    "ok": all(r.ok for r in responses),
    "first_cache": responses[0].cache,
    "hits": stats.hits,
    "misses": stats.misses,
    "hit_rate": stats.hit_rate,
    "wall_seconds": watch.elapsed,
}))
"""


def test_sqlite_backend_warm_start_across_processes(tmp_path):
    """Claim (b): a second process on the same SQLite file starts warm."""
    db_path = tmp_path / "plans.db"
    requests = _request_stream()

    # First process (this one): populate the persistent cache.
    from repro.service import SladeService

    cold_watch = Stopwatch()
    with cold_watch:
        with SladeService(
            ServiceConfig(cache_backend=f"sqlite:{db_path}")
        ) as service:
            first_responses = [service.solve(request) for request in requests]
            first_stats = service.cache_stats
    assert all(r.ok for r in first_responses)
    assert first_stats.misses == 1  # one shared (menu, threshold) pair

    # Second process: a genuinely fresh interpreter on the same file.
    src_root = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
    proc = subprocess.run(
        [
            sys.executable, "-c", _SECOND_PROCESS_SCRIPT,
            str(db_path), str(THRESHOLD), str(MAX_CARDINALITY), str(REQUESTS),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    second = json.loads(proc.stdout.strip().splitlines()[-1])

    report(
        f"SQLite plan-cache warm start across processes ({REQUESTS} requests)",
        "\n".join(
            [
                f"  first process (cold file)  : {cold_watch.elapsed * 1000:.1f} ms, "
                f"{first_stats.hits} hits / {first_stats.misses} misses",
                f"  second process (warm file) : {second['wall_seconds'] * 1000:.1f} ms, "
                f"{second['hits']} hits / {second['misses']} misses "
                f"(hit rate {second['hit_rate']:.1%})",
                f"  first request provenance   : {second['first_cache']}",
            ]
        ),
    )

    record_result(
        "service_sqlite_warm_start",
        requests=REQUESTS,
        first_process_seconds=cold_watch.elapsed,
        second_process_seconds=second["wall_seconds"],
        second_process_hit_rate=second["hit_rate"],
    )

    assert second["ok"]
    # The acceptance criterion: the restarted worker begins with a non-zero
    # hit rate — its very first request is served from the persistent store.
    assert second["first_cache"] == "hit"
    assert second["hits"] == REQUESTS
    assert second["misses"] == 0
    assert second["hit_rate"] > 0.0
