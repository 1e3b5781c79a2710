"""Remote plan cache: warm network hits vs cold Algorithm 2 builds, the
latency split between the tiered backend's local and remote tiers, and the
sharded ring's warm hits (including reads failing over past a dead shard).

Three claims from the networked-cache PRs are quantified here:

(a) a *warm remote hit* — one round trip to a ``repro cached`` server plus a
    record decode — is far cheaper than a cold OPQ build for a realistic
    menu, so joining a warm fleet beats starting cold by a wide margin;

(b) in the tiered backend, a promoted (local) hit is cheaper again than a
    remote hit, which is the whole point of keeping a near tier: hot
    fingerprints never leave the process;

(c) on a three-shard consistent-hash ring with replication factor 2, a warm
    sharded hit keeps the same >= 3x margin over a cold build — even while
    one shard is dead and every read of its keys pays the fail-over to the
    surviving replica.

Set ``SLADE_BENCH_SMOKE=1`` for a CI-sized run (fewer iterations, same
assertions).
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import record_result, report
from repro.algorithms.opq import build_optimal_priority_queue
from repro.datasets.jelly import jelly_bin_set
from repro.engine.backends import (
    MemoryBackend,
    RemoteBackend,
    ShardedBackend,
    TieredBackend,
)
from repro.engine.backends.server import CacheServerThread
from repro.engine.fingerprint import opq_key
from repro.utils.timing import Stopwatch

#: CI smoke mode: fewer repetitions, identical assertions.
SMOKE = os.environ.get("SLADE_BENCH_SMOKE", "0") == "1"

#: Repetitions for the per-operation latency measurements.
HIT_ITERATIONS = 50 if SMOKE else 200

#: The same regime as bench_batch_engine / bench_service: Algorithm 2 at this
#: menu size and threshold dwarfs everything else.
THRESHOLD = 0.95
MAX_CARDINALITY = 20


def test_warm_remote_hit_beats_cold_build():
    """Claim (a): joining a warm fleet is >= 3x cheaper than building cold."""
    bins = jelly_bin_set(MAX_CARDINALITY)
    key = opq_key(bins, THRESHOLD)

    build_watch = Stopwatch()
    with build_watch:
        queue = build_optimal_priority_queue(bins, THRESHOLD)

    with CacheServerThread() as server:
        backend = RemoteBackend(server.host, server.port)
        backend.put(key, queue)

        started = time.perf_counter()
        for _ in range(HIT_ITERATIONS):
            assert backend.get(key) is not None
        remote_hit_seconds = (time.perf_counter() - started) / HIT_ITERATIONS
        backend.close()

    speedup = (
        build_watch.elapsed / remote_hit_seconds
        if remote_hit_seconds > 0
        else float("inf")
    )
    report(
        f"Warm remote hit vs cold OPQ build "
        f"(jelly |B|={MAX_CARDINALITY}, t={THRESHOLD})",
        "\n".join(
            [
                f"  cold Algorithm 2 build : {build_watch.elapsed * 1000:.2f} ms",
                f"  warm remote hit        : {remote_hit_seconds * 1000:.3f} ms "
                f"(mean of {HIT_ITERATIONS})",
                f"  speedup                : {speedup:.0f}x",
            ]
        ),
    )
    record_result(
        "remote_cache_warm_hit_vs_cold_build",
        cold_build_seconds=build_watch.elapsed,
        remote_hit_seconds=remote_hit_seconds,
        speedup=speedup,
        iterations=HIT_ITERATIONS,
    )
    assert speedup >= 3.0, f"expected >= 3x, measured {speedup:.1f}x"


def test_tiered_local_hits_beat_remote_hits():
    """Claim (b): the near tier turns repeat hits into in-process lookups."""
    bins = jelly_bin_set(MAX_CARDINALITY)
    key = opq_key(bins, THRESHOLD)
    queue = build_optimal_priority_queue(bins, THRESHOLD)

    with CacheServerThread() as server:
        far = RemoteBackend(server.host, server.port)
        far.put(key, queue)

        # Remote-hit latency: a fresh tiered backend per probe, so the near
        # tier is always cold and every get pays the wire.
        started = time.perf_counter()
        for _ in range(HIT_ITERATIONS):
            tiered = TieredBackend(MemoryBackend(), far)
            assert tiered.get(key) is not None
        remote_hit_seconds = (time.perf_counter() - started) / HIT_ITERATIONS

        # Local-hit latency: one warm tiered backend, repeat gets.
        tiered = TieredBackend(MemoryBackend(), far)
        assert tiered.get(key) is not None  # promote once
        started = time.perf_counter()
        for _ in range(HIT_ITERATIONS):
            assert tiered.get(key) is not None
        local_hit_seconds = (time.perf_counter() - started) / HIT_ITERATIONS
        assert tiered.local_hits == HIT_ITERATIONS
        far.close()

    split = (
        remote_hit_seconds / local_hit_seconds
        if local_hit_seconds > 0
        else float("inf")
    )
    report(
        f"Tiered backend: local vs remote hit latency "
        f"(jelly |B|={MAX_CARDINALITY}, t={THRESHOLD})",
        "\n".join(
            [
                f"  remote-tier hit (promote) : {remote_hit_seconds * 1e6:.1f} us",
                f"  local-tier hit            : {local_hit_seconds * 1e6:.1f} us",
                f"  local advantage           : {split:.0f}x",
            ]
        ),
    )
    record_result(
        "remote_cache_tiered_latency_split",
        remote_hit_seconds=remote_hit_seconds,
        local_hit_seconds=local_hit_seconds,
        local_advantage=split,
        iterations=HIT_ITERATIONS,
    )
    # An in-process dict lookup must beat a TCP round trip + record decode.
    assert local_hit_seconds < remote_hit_seconds


def test_sharded_warm_hits_beat_cold_builds_even_during_failover():
    """Claim (c): the replicated ring keeps the >= 3x warm margin with a
    shard down, reads paying the fail-over to the surviving replica."""
    bins = jelly_bin_set(MAX_CARDINALITY)
    key = opq_key(bins, THRESHOLD)

    build_watch = Stopwatch()
    with build_watch:
        queue = build_optimal_priority_queue(bins, THRESHOLD)

    servers = [CacheServerThread() for _ in range(3)]
    try:
        backend = ShardedBackend(
            [(s.host, s.port) for s in servers], replicas=2, timeout=0.5
        )
        backend.put(key, queue)

        # Healthy ring: warm hits straight off the primary.
        started = time.perf_counter()
        for _ in range(HIT_ITERATIONS):
            assert backend.get(key) is not None
        healthy_hit_seconds = (time.perf_counter() - started) / HIT_ITERATIONS

        # Kill the key's primary shard: every read now walks the ring to
        # the replica (the worst warm case a single shard death creates).
        primary = backend.owners(key)[0]
        next(s for s in servers if s.address == primary).stop()
        started = time.perf_counter()
        for _ in range(HIT_ITERATIONS):
            assert backend.get(key) is not None
        failover_hit_seconds = (time.perf_counter() - started) / HIT_ITERATIONS
        assert backend.failovers >= HIT_ITERATIONS
        backend.close()
    finally:
        for server in servers:
            server.stop()

    healthy_speedup = (
        build_watch.elapsed / healthy_hit_seconds
        if healthy_hit_seconds > 0
        else float("inf")
    )
    failover_speedup = (
        build_watch.elapsed / failover_hit_seconds
        if failover_hit_seconds > 0
        else float("inf")
    )
    report(
        f"Sharded ring (3 shards, R=2): warm hits vs cold OPQ build "
        f"(jelly |B|={MAX_CARDINALITY}, t={THRESHOLD})",
        "\n".join(
            [
                f"  cold Algorithm 2 build  : {build_watch.elapsed * 1000:.2f} ms",
                f"  healthy warm hit        : {healthy_hit_seconds * 1000:.3f} ms "
                f"(mean of {HIT_ITERATIONS})",
                f"  one-shard-dead failover : {failover_hit_seconds * 1000:.3f} ms",
                f"  healthy speedup         : {healthy_speedup:.0f}x",
                f"  failover speedup        : {failover_speedup:.0f}x",
            ]
        ),
    )
    record_result(
        "sharded_cache_warm_hit_vs_cold_build",
        cold_build_seconds=build_watch.elapsed,
        healthy_hit_seconds=healthy_hit_seconds,
        failover_hit_seconds=failover_hit_seconds,
        healthy_speedup=healthy_speedup,
        failover_speedup=failover_speedup,
        iterations=HIT_ITERATIONS,
    )
    assert healthy_speedup >= 3.0, f"expected >= 3x, measured {healthy_speedup:.1f}x"
    assert failover_speedup >= 3.0, (
        f"expected >= 3x during fail-over, measured {failover_speedup:.1f}x"
    )
