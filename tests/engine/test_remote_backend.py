"""Tests for the networked plan-cache backend and the tiered store.

Covers the storage contract of :class:`RemoteBackend` against a real
in-process :class:`CacheServer`, the promote/write-through semantics of
:class:`TieredBackend`, spec parsing for ``remote://`` and ``tiered:`` in
:func:`open_backend`, and — extending PR 2's SQLite warm-start regression to
the networked path — a second *process* reaching a 100% hit rate through one
shared ``repro cached`` server.
"""

import json
import logging
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.algorithms.opq import build_optimal_priority_queue
from repro.core.bins import TaskBinSet
from repro.engine.backends import (
    BackendSpecError,
    CacheBackend,
    MemoryBackend,
    RemoteBackend,
    SQLiteBackend,
    TieredBackend,
    open_backend,
)
from repro.engine.backends.server import CacheServerThread
from repro.engine.cache import PlanCache
from repro.engine.fingerprint import opq_key
from repro.engine.telemetry import Telemetry

TRIPLES = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]


@pytest.fixture
def bins():
    return TaskBinSet.from_triples(TRIPLES, name="table1")


@pytest.fixture
def server():
    with CacheServerThread() as handle:
        yield handle


def build(bins, threshold):
    return build_optimal_priority_queue(bins, threshold)


def remote_for(server, **kwargs) -> RemoteBackend:
    return RemoteBackend(server.host, server.port, **kwargs)


class TestRemoteBackend:
    def test_round_trip_through_the_server(self, bins, server):
        backend = remote_for(server)
        key = opq_key(bins, 0.95)
        queue = build(bins, 0.95)
        assert backend.get(key) is None
        backend.put(key, queue)
        restored = backend.get(key)
        assert restored.threshold == 0.95
        assert [(c.counts, c.lcm) for c in restored] == [
            (c.counts, c.lcm) for c in queue
        ]
        assert key in backend
        assert len(backend) == 1
        backend.close()

    def test_every_get_is_shared_storage_not_memoisation(self, bins, server):
        # The remote tier deliberately does not memoise: in-process warmth is
        # the tiered backend's job.  Two hits return equal but distinct
        # objects, each decoded from the wire.
        backend = remote_for(server)
        key = opq_key(bins, 0.9)
        backend.put(key, build(bins, 0.9))
        first, second = backend.get(key), backend.get(key)
        assert first is not second
        assert [(c.counts, c.lcm) for c in first] == [
            (c.counts, c.lcm) for c in second
        ]
        backend.close()

    def test_put_and_clear(self, bins, server):
        backend = remote_for(server)
        for threshold in (0.9, 0.95):
            backend.put(opq_key(bins, threshold), build(bins, threshold))
        assert len(backend) == 2
        backend.clear()
        assert len(backend) == 0
        backend.close()

    def test_satisfies_protocol_and_is_persistent(self, server):
        backend = remote_for(server)
        assert isinstance(backend, CacheBackend)
        assert backend.persistent
        backend.close()

    def test_server_side_lru_bound(self, bins):
        with CacheServerThread(max_entries=2) as bounded:
            backend = RemoteBackend(bounded.host, bounded.port)
            keys = [opq_key(bins, t) for t in (0.90, 0.95, 0.97)]
            backend.put(keys[0], build(bins, 0.90))
            backend.put(keys[1], build(bins, 0.95))
            assert backend.get(keys[0]) is not None   # refresh 0.90
            backend.put(keys[2], build(bins, 0.97))   # evicts 0.95
            assert keys[0] in backend
            assert keys[2] in backend
            assert keys[1] not in backend
            stats = backend.server_stats()
            assert stats["evictions"] == 1
            backend.close()

    def test_ping_stats_and_extra_metrics(self, bins, server):
        backend = remote_for(server)
        assert backend.ping()
        backend.put(opq_key(bins, 0.9), build(bins, 0.9))
        stats = backend.server_stats()
        assert stats["keys"] == 1
        assert stats["bytes"] > 0
        metrics = backend.extra_metrics()
        assert metrics["remote_cache.server_keys"] == 1.0
        assert metrics["remote_cache.server_bytes"] > 0
        backend.close()

    def test_telemetry_counts_hits_misses_and_latency(self, bins, server):
        telemetry = Telemetry()
        backend = remote_for(server, telemetry=telemetry)
        key = opq_key(bins, 0.9)
        backend.get(key)
        backend.put(key, build(bins, 0.9))
        backend.get(key)
        assert telemetry.counter("remote_cache.misses") == 1
        assert telemetry.counter("remote_cache.hits") == 1
        rtt = telemetry.series("remote_cache.round_trip_seconds")
        assert rtt.count >= 3  # miss + put + hit at minimum
        assert rtt.bucket_bounds is not None
        backend.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RemoteBackend("h", 1, timeout=0)
        with pytest.raises(ValueError):
            RemoteBackend("h", 1, pool_size=0)

    def test_stop_with_a_client_connected_logs_nothing(self, caplog):
        handle = CacheServerThread()
        backend = remote_for(handle)
        assert backend.ping()  # leaves a pooled connection open
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            handle.stop()
        assert not backend.ping()  # the server is gone, not just idle
        backend.close()
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_stop_with_several_clients_connected_logs_nothing(self, caplog):
        handle = CacheServerThread()
        backends = [remote_for(handle) for _ in range(3)]
        for backend in backends:
            assert backend.ping()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            handle.stop()
        assert handle.server.connections == 3
        for backend in backends:
            backend.close()
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_idle_connection_sees_eof_when_the_server_stops(self):
        handle = CacheServerThread()
        with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
            deadline = time.monotonic() + 10
            while handle.server.connections < 1:  # the handler is reading
                assert time.monotonic() < deadline
                time.sleep(0.01)
            handle.stop()
            assert sock.recv(1) == b""

    def test_pool_reuses_connections(self, bins, server):
        backend = remote_for(server)
        for threshold in (0.9, 0.95, 0.9, 0.95):
            backend.put(opq_key(bins, threshold), build(bins, threshold))
            backend.get(opq_key(bins, threshold))
        # Nine round trips over one pooled connection, not nine connections.
        assert backend.server_stats()["connections"] <= 2
        backend.close()


class TestTieredBackend:
    def test_promote_on_remote_hit_then_serve_locally(self, bins, server):
        far = remote_for(server)
        key = opq_key(bins, 0.95)
        far.put(key, build(bins, 0.95))

        tiered = TieredBackend(MemoryBackend(), remote_for(server))
        first = tiered.get(key)
        assert first is not None
        assert (tiered.local_hits, tiered.remote_hits, tiered.misses) == (0, 1, 0)
        # Promotion makes the next hit in-process and by-reference.
        second = tiered.get(key)
        assert second is first
        assert tiered.local_hits == 1
        far.close()
        tiered.close()

    def test_write_through_reaches_both_tiers(self, bins, server):
        tiered = TieredBackend(MemoryBackend(), remote_for(server))
        key = opq_key(bins, 0.9)
        tiered.put(key, build(bins, 0.9))
        assert key in tiered.local
        probe = remote_for(server)
        assert key in probe
        probe.close()
        tiered.close()

    def test_miss_counts_and_contains(self, bins, server):
        tiered = TieredBackend(MemoryBackend(), remote_for(server))
        key = opq_key(bins, 0.97)
        assert tiered.get(key) is None
        assert tiered.misses == 1
        assert key not in tiered
        tiered.put(key, build(bins, 0.97))
        assert key in tiered
        tiered.close()

    def test_telemetry_propagates_to_far_tier(self, bins, server):
        telemetry = Telemetry()
        tiered = TieredBackend(MemoryBackend(), remote_for(server))
        cache = PlanCache(backend=tiered, telemetry=telemetry)
        cache.queue_for(bins, 0.9)   # miss -> build -> write-through
        cache.queue_for(bins, 0.9)   # local hit
        assert telemetry.counter("tiered.misses") == 1
        assert telemetry.counter("tiered.local_hits") == 1
        # The far tier adopted the same registry through the setter chain.
        assert tiered.remote.telemetry is telemetry
        assert telemetry.counter("cache.hits") == 1
        cache.close()

    def test_sqlite_far_tier(self, bins, tmp_path):
        tiered = TieredBackend(
            MemoryBackend(max_entries=4), SQLiteBackend(tmp_path / "plans.db")
        )
        key = opq_key(bins, 0.9)
        tiered.put(key, build(bins, 0.9))
        assert tiered.persistent
        assert len(tiered) == 1
        tiered.local.clear()
        assert tiered.get(key) is not None   # far tier repopulates the near
        assert tiered.remote_hits == 1
        tiered.close()


class TestOpenBackendSpecs:
    def test_remote_spec(self, server):
        backend = open_backend(f"remote://{server.host}:{server.port}")
        assert isinstance(backend, RemoteBackend)
        assert backend.ping()
        backend.close()

    def test_remote_spec_options(self, server):
        backend = open_backend(
            f"remote://{server.host}:{server.port}?timeout=0.25&pool=4"
        )
        assert backend.timeout == 0.25
        assert backend._pool._size == 4
        backend.close()

    def test_tiered_spec(self, server):
        backend = open_backend(
            f"tiered:memory:16+remote://{server.host}:{server.port}"
        )
        assert isinstance(backend, TieredBackend)
        assert isinstance(backend.local, MemoryBackend)
        assert backend.local.max_entries == 16
        assert isinstance(backend.remote, RemoteBackend)
        backend.close()

    def test_tiered_sqlite_spec(self, tmp_path):
        backend = open_backend(f"tiered:memory+sqlite:{tmp_path / 'p.db'}")
        assert isinstance(backend.remote, SQLiteBackend)
        backend.close()

    def test_max_entries_bounds_the_near_tier(self, server):
        backend = open_backend(
            f"tiered:memory+remote://{server.host}:{server.port}",
            max_entries=8,
        )
        assert backend.local.max_entries == 8
        backend.close()

    @pytest.mark.parametrize("spec", [
        "remote://",                      # no host/port
        "remote://hostonly",              # no port
        "remote://h:99999",               # invalid port
        "remote://h:1?timeout=soon",      # bad option value
        "remote://h:1?bogus=1",           # unknown option
        "tiered:memory",                  # missing far tier
        "tiered:+remote://h:1",           # empty near tier
        "tiered:sqlite:x.db+remote://h:1",  # near tier must be memory
        "tiered:memory+memory",           # far tier must be shared storage
        "tiered:memory+tiered:memory+memory",  # no nesting
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(BackendSpecError):
            open_backend(spec)

    def test_rejected_near_tier_spec_creates_no_side_effects(self, tmp_path):
        # The near-tier validation must run before construction: a sqlite
        # near spec used to create the database file just to be rejected.
        near_db = tmp_path / "near.db"
        with pytest.raises(BackendSpecError, match="near tier"):
            open_backend(f"tiered:sqlite:{near_db}+remote://h:1")
        assert not near_db.exists()

    def test_telemetry_forwarded_to_remote(self, server):
        telemetry = Telemetry()
        backend = open_backend(
            f"remote://{server.host}:{server.port}", telemetry=telemetry
        )
        assert backend.telemetry is telemetry
        backend.close()


class TestPlanCacheOverRemote:
    def test_hits_and_misses_counted_once_per_key(self, bins, server):
        cache = PlanCache(backend=remote_for(server))
        cache.queue_for(bins, 0.95)
        cache.queue_for(bins, 0.95)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert cache.persistent
        cache.close()

    def test_second_cache_against_same_server_starts_warm(self, bins, server):
        first = PlanCache(backend=remote_for(server))
        first.queue_for(bins, 0.95)
        first.close()

        second = PlanCache(backend=remote_for(server))
        second.queue_for(bins, 0.95)
        stats = second.stats
        assert (stats.hits, stats.misses) == (1, 0)
        assert stats.hit_rate == 1.0
        second.close()

    def test_backend_metrics_exposed_through_the_cache(self, bins, server):
        cache = PlanCache(backend=remote_for(server))
        cache.queue_for(bins, 0.9)
        metrics = cache.backend_metrics()
        assert metrics["remote_cache.server_keys"] == 1.0
        cache.close()

    def test_memory_cache_has_no_backend_metrics(self):
        assert PlanCache().backend_metrics() == {}


#: Second fleet member: a genuinely fresh interpreter sharing the server.
_SECOND_PROCESS_SCRIPT = """
import json, sys
from repro.core.problem import SladeProblem
from repro.core.bins import TaskBinSet
from repro.io.serialization import plan_to_dict
from repro.service import ServiceConfig, SladeService, SolveRequest

address, requests = sys.argv[1], int(sys.argv[2])
bins = TaskBinSet.from_triples(
    [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)], name="table1"
)
service = SladeService(ServiceConfig(cache_backend=f"remote://{address}"))
responses = [
    service.solve(
        SolveRequest(problem=SladeProblem.homogeneous(50 + 10 * i, 0.95, bins))
    )
    for i in range(requests)
]
stats = service.cache_stats
service.close()
print(json.dumps({
    "ok": all(r.ok for r in responses),
    "caches": [r.cache for r in responses],
    "hits": stats.hits,
    "misses": stats.misses,
    "plans": [json.dumps(plan_to_dict(r.plan), sort_keys=True) for r in responses],
}))
"""


class TestFleetWarmStart:
    """The networked extension of PR 2's SQLite warm-start regression."""

    def test_second_process_reaches_full_hit_rate(self, bins, tmp_path):
        requests = 4
        env = dict(os.environ)
        src_root = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"

        cached = subprocess.Popen(
            [sys.executable, "-m", "repro", "cached", "127.0.0.1:0"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = cached.stderr.readline().strip()
            assert banner.startswith("cache listening on "), banner
            address = banner.rsplit(" ", 1)[1]

            from repro.core.problem import SladeProblem
            from repro.io.serialization import plan_to_dict
            from repro.service import ServiceConfig, SladeService, SolveRequest

            # First fleet member (this process): one cold build, write-through.
            with SladeService(
                ServiceConfig(cache_backend=f"remote://{address}")
            ) as service:
                first = [
                    service.solve(SolveRequest(
                        problem=SladeProblem.homogeneous(50 + 10 * i, 0.95, bins)
                    ))
                    for i in range(requests)
                ]
                assert all(r.ok for r in first)
                assert service.cache_stats.misses == 1

            # Second fleet member: a fresh interpreter, same server.
            proc = subprocess.run(
                [sys.executable, "-c", _SECOND_PROCESS_SCRIPT,
                 address, str(requests)],
                env=env, capture_output=True, text=True, check=True,
            )
            second = json.loads(proc.stdout.strip().splitlines()[-1])
            assert second["ok"]
            # 100% hit rate: every request served from the shared cache.
            assert second["hits"] == requests
            assert second["misses"] == 0
            assert all(cache == "hit" for cache in second["caches"])
            # Byte-identical plans across the fleet.
            expected = [
                json.dumps(plan_to_dict(r.plan), sort_keys=True) for r in first
            ]
            assert second["plans"] == expected

            cached.send_signal(signal.SIGTERM)
            _, err = cached.communicate(timeout=20)
            assert cached.returncode == 0, err
        finally:
            if cached.poll() is None:
                cached.kill()
                cached.communicate()


class TestCachedShutdown:
    def test_sigterm_with_a_client_connected_exits_cleanly(self):
        env = dict(os.environ)
        src_root = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
        cached = subprocess.Popen(
            [sys.executable, "-m", "repro", "cached", "127.0.0.1:0"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        backend = None
        try:
            banner = cached.stderr.readline().strip()
            assert banner.startswith("cache listening on "), banner
            host, _, port = banner.rsplit(" ", 1)[1].rpartition(":")
            backend = RemoteBackend(host, int(port))
            assert backend.ping()  # leaves a pooled connection open
            cached.send_signal(signal.SIGTERM)
            _, err = cached.communicate(timeout=20)
            assert cached.returncode == 0, err
            assert err == ""
        finally:
            if backend is not None:
                backend.close()
            if cached.poll() is None:
                cached.kill()
                cached.communicate()


class TestDeleteOverTheWire:
    def test_remote_delete_true_only_when_present(self, bins, server):
        backend = remote_for(server)
        try:
            key = opq_key(bins, 0.95)
            assert backend.delete(key) is False
            backend.put(key, build(bins, 0.95))
            assert backend.delete(key) is True
            assert backend.get(key) is None
            assert backend.delete(key) is False
        finally:
            backend.close()

    def test_remote_delete_fails_open_when_unreachable(self, bins, server):
        backend = remote_for(server)
        try:
            key = opq_key(bins, 0.95)
            backend.put(key, build(bins, 0.95))
            server.stop()
            assert backend.delete(key) is False
        finally:
            backend.close()

    def test_tiered_delete_purges_both_tiers(self, bins, server):
        backend = TieredBackend(MemoryBackend(), remote_for(server))
        try:
            key = opq_key(bins, 0.95)
            backend.put(key, build(bins, 0.95))   # write-through: both tiers hold it
            assert key in backend.local
            assert backend.delete(key) is True
            assert key not in backend.local
            assert backend.remote.get(key) is None
            assert backend.get(key) is None
        finally:
            backend.close()

    def test_tiered_delete_reports_near_only_removal(self, bins, server):
        backend = TieredBackend(MemoryBackend(), remote_for(server))
        try:
            key = opq_key(bins, 0.95)
            backend.local.put(key, build(bins, 0.95))
            assert backend.delete(key) is True
            assert backend.get(key) is None
        finally:
            backend.close()
