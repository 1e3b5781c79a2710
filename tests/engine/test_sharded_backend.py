"""Tests for the sharded plan-cache backend.

Covers placement and replication against real in-process cache servers, the
storage contract behind :class:`~repro.engine.cache.PlanCache`, read repair
of lagging replicas, spec parsing for ``sharded://`` in
:func:`~repro.engine.backends.open_backend`, and the per-shard telemetry
surfaced through ``extra_metrics``.  The kill-a-shard chaos scenarios live
in ``tests/engine/test_backend_faults.py`` next to the other fault
injection.
"""

import pytest

from repro.algorithms.opq import build_optimal_priority_queue
from repro.core.bins import TaskBinSet
from repro.engine.backends import (
    BackendSpecError,
    CacheBackend,
    MemoryBackend,
    ShardedBackend,
    TieredBackend,
    open_backend,
)
from repro.engine.backends.server import CacheServerThread
from repro.engine.cache import PlanCache
from repro.engine.fingerprint import opq_key
from repro.engine.telemetry import Telemetry

TRIPLES = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]
THRESHOLDS = (0.90, 0.93, 0.95, 0.97)


@pytest.fixture
def bins():
    return TaskBinSet.from_triples(TRIPLES, name="table1")


@pytest.fixture
def fleet():
    servers = [CacheServerThread() for _ in range(3)]
    try:
        yield servers
    finally:
        for server in servers:
            server.stop()


def endpoints(servers):
    return [(server.host, server.port) for server in servers]


def build(bins, threshold):
    return build_optimal_priority_queue(bins, threshold)


class TestPlacement:
    def test_every_entry_lands_on_replica_count_shards(self, bins, fleet):
        backend = ShardedBackend(endpoints(fleet), replicas=2)
        for threshold in THRESHOLDS:
            backend.put(opq_key(bins, threshold), build(bins, threshold))
        for threshold in THRESHOLDS:
            key = opq_key(bins, threshold)
            owners = backend.owners(key)
            assert len(owners) == 2
            holders = [
                label for label, shard in backend.shards.items() if key in shard
            ]
            assert sorted(holders) == sorted(owners)
        # Replicated copies across the fleet: 4 keys x 2 replicas.
        total = sum(
            shard.server_stats()["keys"] for shard in backend.shards.values()
        )
        assert total == len(THRESHOLDS) * 2
        # The distinct-key estimate divides the replication factor back out.
        assert len(backend) == len(THRESHOLDS)
        backend.close()

    def test_two_clients_compute_identical_placement(self, bins, fleet):
        first = ShardedBackend(endpoints(fleet), replicas=2)
        second = ShardedBackend(list(reversed(endpoints(fleet))), replicas=2)
        for threshold in THRESHOLDS:
            key = opq_key(bins, threshold)
            assert first.owners(key) == second.owners(key)
        first.close()
        second.close()

    def test_replicas_clamped_to_shard_count(self, fleet):
        backend = ShardedBackend(endpoints(fleet)[:2], replicas=5)
        assert backend.replicas == 2
        backend.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedBackend([])
        with pytest.raises(ValueError):
            ShardedBackend([("h", 1)], replicas=0)
        with pytest.raises(ValueError):
            ShardedBackend([("h", 1), ("h", 1)])


class TestStorageContract:
    def test_round_trip_and_protocol(self, bins, fleet):
        backend = ShardedBackend(endpoints(fleet), replicas=2)
        assert isinstance(backend, CacheBackend)
        assert backend.persistent
        assert backend.concurrent_safe
        key = opq_key(bins, 0.95)
        assert backend.get(key) is None
        assert backend.misses == 1
        queue = build(bins, 0.95)
        backend.put(key, queue)
        restored = backend.get(key)
        assert restored is not None
        assert [(c.counts, c.lcm) for c in restored] == [
            (c.counts, c.lcm) for c in queue
        ]
        assert key in backend
        backend.close()

    def test_put_and_clear(self, bins, fleet):
        backend = ShardedBackend(endpoints(fleet), replicas=2)
        for threshold in (0.9, 0.95):
            backend.put(opq_key(bins, threshold), build(bins, threshold))
        assert len(backend) == 2
        backend.clear()
        assert len(backend) == 0
        backend.close()

    def test_read_repair_restores_a_cold_replica(self, bins, fleet):
        backend = ShardedBackend(endpoints(fleet), replicas=2)
        key = opq_key(bins, 0.95)
        backend.put(key, build(bins, 0.95))
        # Empty one replica behind the client's back (a restart without
        # --persist): the next read must repair it.
        primary, replica = backend.owners(key)
        probe = backend.shards[primary]
        wiped = next(s for s in fleet if f"{s.host}:{s.port}" == primary)
        wiped.server._entries.clear()
        wiped.server._bytes_stored = 0
        assert backend.get(key) is not None
        assert backend.failovers == 1     # the replica carried the read
        assert backend.rebalances == 1    # ...and the primary was refilled
        assert key in probe
        backend.close()


class TestShardedSpecs:
    def test_sharded_spec_round_trips(self, fleet):
        spec = "sharded://" + ",".join(
            f"{host}:{port}" for host, port in endpoints(fleet)
        )
        backend = open_backend(spec)
        assert isinstance(backend, ShardedBackend)
        assert backend.replicas == 2
        assert len(backend.shards) == 3
        backend.close()

    def test_sharded_spec_options(self, fleet):
        host, port = endpoints(fleet)[0]
        backend = open_backend(
            f"sharded://{host}:{port}?replicas=1&vnodes=32&timeout=0.25&pool=3"
        )
        assert backend.replicas == 1
        assert backend.ring.vnodes == 32
        shard = next(iter(backend.shards.values()))
        assert shard.timeout == 0.25
        assert shard._pool._size == 3
        backend.close()

    def test_tiered_over_sharded_spec(self, fleet):
        far = ",".join(f"{host}:{port}" for host, port in endpoints(fleet))
        backend = open_backend(f"tiered:memory:16+sharded://{far}")
        assert isinstance(backend, TieredBackend)
        assert isinstance(backend.local, MemoryBackend)
        assert isinstance(backend.remote, ShardedBackend)
        assert backend.concurrent_safe
        backend.close()

    @pytest.mark.parametrize("spec", [
        "sharded://",                          # no endpoints
        "sharded://hostonly",                  # no port
        "sharded://h:1,peer",                  # one endpoint malformed
        "sharded://h:99999",                   # invalid port
        "sharded://h:1?replicas=two",          # bad option value
        "sharded://h:1?bogus=1",               # unknown option
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(BackendSpecError):
            open_backend(spec)

    def test_telemetry_forwarded_to_every_shard(self, fleet):
        telemetry = Telemetry()
        spec = "sharded://" + ",".join(
            f"{host}:{port}" for host, port in endpoints(fleet)
        )
        backend = open_backend(spec, telemetry=telemetry)
        assert backend.telemetry is telemetry
        assert all(
            shard.telemetry is telemetry for shard in backend.shards.values()
        )
        backend.close()


class TestTelemetryAndMetrics:
    def test_per_shard_hit_counters(self, bins, fleet):
        telemetry = Telemetry()
        backend = ShardedBackend(
            endpoints(fleet), replicas=2, telemetry=telemetry
        )
        for threshold in THRESHOLDS:
            backend.put(opq_key(bins, threshold), build(bins, threshold))
            assert backend.get(opq_key(bins, threshold)) is not None
        snapshot = telemetry.snapshot()
        assert snapshot["sharded_cache.hits"] == len(THRESHOLDS)
        per_shard = [
            value for name, value in snapshot.items()
            if name.startswith("sharded_cache.shard.") and name.endswith(".hits")
        ]
        assert sum(per_shard) == len(THRESHOLDS)
        assert sum(backend.shard_hits.values()) == len(THRESHOLDS)
        backend.close()

    def test_extra_metrics_report_per_shard_gauges(self, bins, fleet):
        backend = ShardedBackend(endpoints(fleet), replicas=2)
        backend.put(opq_key(bins, 0.95), build(bins, 0.95))
        metrics = backend.extra_metrics()
        assert metrics["sharded_cache.shards"] == 3.0
        assert metrics["sharded_cache.shards_up"] == 3.0
        assert metrics["sharded_cache.replicas"] == 2.0
        key_gauges = [
            value for name, value in metrics.items()
            if name.endswith(".server_keys")
        ]
        assert len(key_gauges) == 3
        assert sum(key_gauges) == 2.0  # one entry, two replicas
        backend.close()

    def test_plan_cache_over_sharded_fleet(self, bins, fleet):
        telemetry = Telemetry()
        cache = PlanCache(
            backend=ShardedBackend(endpoints(fleet), replicas=2),
            telemetry=telemetry,
        )
        cache.queue_for(bins, 0.95)
        cache.queue_for(bins, 0.95)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert cache.persistent
        assert cache.backend_metrics()["sharded_cache.shards_up"] == 3.0

        # A second cache against the same fleet starts warm.
        warm = PlanCache(backend=ShardedBackend(endpoints(fleet), replicas=2))
        warm.queue_for(bins, 0.95)
        assert (warm.stats.hits, warm.stats.misses) == (1, 0)
        warm.close()
        cache.close()


class TestShardedDelete:
    def test_delete_reaches_every_replica(self, bins, fleet):
        backend = ShardedBackend(endpoints(fleet), replicas=2)
        key = opq_key(bins, 0.95)
        backend.put(key, build(bins, 0.95))
        holders = [
            label for label, shard in backend.shards.items() if key in shard
        ]
        assert len(holders) == 2
        assert backend.delete(key) is True
        assert all(key not in shard for shard in backend.shards.values())
        assert backend.get(key) is None
        backend.close()

    def test_delete_missing_is_false(self, bins, fleet):
        backend = ShardedBackend(endpoints(fleet), replicas=2)
        assert backend.delete(opq_key(bins, 0.9)) is False
        backend.close()

    def test_delete_survives_a_dead_replica(self, bins, fleet):
        backend = ShardedBackend(endpoints(fleet), replicas=2)
        key = opq_key(bins, 0.95)
        backend.put(key, build(bins, 0.95))
        owners = backend.owners(key)
        # Kill one owner: the delete still succeeds on the surviving replica
        # (fail-open), and the client keeps serving.
        dead = next(s for s in fleet if f"{s.host}:{s.port}" == owners[0])
        dead.stop()
        assert backend.delete(key) is True
        alive = [
            shard for label, shard in backend.shards.items()
            if label != owners[0]
        ]
        assert all(key not in shard for shard in alive)
        backend.close()
