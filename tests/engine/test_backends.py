"""Tests for the pluggable plan-cache storage backends."""

import sqlite3

import pytest

from repro.algorithms.opq import build_optimal_priority_queue
from repro.core.bins import TaskBinSet
from repro.engine.backends import (
    BackendSpecError,
    CacheBackend,
    MemoryBackend,
    RemoteBackend,
    ShardedBackend,
    SQLiteBackend,
    TieredBackend,
    open_backend,
)
from repro.engine.backends.server import CacheServerThread
from repro.engine.backends.wire import encode_queue
from repro.engine.cache import PlanCache
from repro.engine.fingerprint import opq_key

TRIPLES = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]


@pytest.fixture
def bins():
    return TaskBinSet.from_triples(TRIPLES, name="table1")


def build(bins, threshold):
    return build_optimal_priority_queue(bins, threshold)


@pytest.fixture(params=["memory", "sqlite", "remote", "sharded", "tiered"])
def any_backend(request, tmp_path):
    """One instance of each storage implementation, servers included."""
    servers = []

    def endpoint():
        servers.append(CacheServerThread())
        return servers[-1].host, servers[-1].port

    kind = request.param
    if kind == "memory":
        backend = MemoryBackend()
    elif kind == "sqlite":
        backend = SQLiteBackend(tmp_path / "plans.db")
    elif kind == "remote":
        backend = RemoteBackend(*endpoint())
    elif kind == "sharded":
        backend = ShardedBackend([endpoint() for _ in range(3)], replicas=2)
    else:
        backend = TieredBackend(MemoryBackend(), RemoteBackend(*endpoint()))
    try:
        yield backend
    finally:
        backend.close()
        for server in servers:
            server.stop()


class TestProtocolAcrossBackends:
    """Every implementation answers the whole storage protocol alike."""

    def test_every_protocol_call(self, bins, any_backend):
        backend = any_backend
        assert isinstance(backend, CacheBackend)
        assert backend.concurrent_safe
        keys = [opq_key(bins, t) for t in (0.9, 0.95)]
        assert backend.get(keys[0]) is None
        assert keys[0] not in backend
        assert backend.delete(keys[0]) is False
        queue = build(bins, 0.9)
        backend.put(keys[0], queue)
        restored = backend.get(keys[0])
        assert [(c.counts, c.lcm) for c in restored] == [
            (c.counts, c.lcm) for c in queue
        ]
        assert keys[0] in backend
        backend.put(keys[1], build(bins, 0.95))
        assert len(backend) == 2
        assert backend.delete(keys[0]) is True
        assert keys[0] not in backend
        assert backend.get(keys[0]) is None
        assert len(backend) == 1
        backend.clear()
        assert len(backend) == 0
        assert keys[1] not in backend


class TestMemoryBackend:
    def test_round_trip_preserves_identity(self, bins):
        backend = MemoryBackend()
        key = opq_key(bins, 0.95)
        queue = build(bins, 0.95)
        backend.put(key, queue)
        assert backend.get(key) is queue
        assert key in backend
        assert len(backend) == 1

    def test_miss_returns_none(self, bins):
        assert MemoryBackend().get(opq_key(bins, 0.9)) is None

    def test_lru_eviction_order(self, bins):
        backend = MemoryBackend(max_entries=2)
        keys = [opq_key(bins, t) for t in (0.90, 0.95, 0.97)]
        backend.put(keys[0], build(bins, 0.90))
        backend.put(keys[1], build(bins, 0.95))
        backend.get(keys[0])                      # refresh 0.90
        backend.put(keys[2], build(bins, 0.97))   # evicts 0.95
        assert keys[0] in backend
        assert keys[2] in backend
        assert keys[1] not in backend

    def test_satisfies_protocol(self):
        assert isinstance(MemoryBackend(), CacheBackend)


class TestSQLiteBackend:
    def test_round_trip(self, bins, tmp_path):
        backend = SQLiteBackend(tmp_path / "plans.db")
        key = opq_key(bins, 0.95)
        queue = build(bins, 0.95)
        backend.put(key, queue)
        restored = backend.get(key)
        assert [(c.counts, c.lcm) for c in restored] == [
            (c.counts, c.lcm) for c in queue
        ]
        assert key in backend
        assert len(backend) == 1
        backend.close()

    def test_entries_survive_reopen(self, bins, tmp_path):
        path = tmp_path / "plans.db"
        key = opq_key(bins, 0.95)
        first = SQLiteBackend(path)
        first.put(key, build(bins, 0.95))
        first.close()

        second = SQLiteBackend(path)
        restored = second.get(key)
        assert restored is not None
        assert restored.threshold == 0.95
        second.close()

    def test_memo_returns_same_object_within_process(self, bins, tmp_path):
        backend = SQLiteBackend(tmp_path / "plans.db")
        key = opq_key(bins, 0.9)
        backend.put(key, build(bins, 0.9))
        assert backend.get(key) is backend.get(key)
        backend.close()

    def test_lru_eviction_across_touches(self, bins, tmp_path):
        backend = SQLiteBackend(tmp_path / "plans.db", max_entries=2)
        keys = [opq_key(bins, t) for t in (0.90, 0.95, 0.97)]
        backend.put(keys[0], build(bins, 0.90))
        backend.put(keys[1], build(bins, 0.95))
        backend.get(keys[0])                      # refresh 0.90
        backend.put(keys[2], build(bins, 0.97))   # evicts 0.95
        assert keys[0] in backend
        assert keys[2] in backend
        assert keys[1] not in backend
        backend.close()

    def test_clear_empties_table_and_memo(self, bins, tmp_path):
        backend = SQLiteBackend(tmp_path / "plans.db")
        backend.put(opq_key(bins, 0.9), build(bins, 0.9))
        backend.clear()
        assert len(backend) == 0
        assert backend.get(opq_key(bins, 0.9)) is None
        backend.close()

    def test_satisfies_protocol(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "plans.db")
        assert isinstance(backend, CacheBackend)
        assert backend.persistent
        backend.close()

    def test_corrupt_row_is_a_miss_and_is_purged(self, bins, tmp_path):
        path = tmp_path / "plans.db"
        key = opq_key(bins, 0.95)
        writer = SQLiteBackend(path)
        writer.put(key, build(bins, 0.95))
        writer.close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE opq_entries SET payload = ?", (b"garbage",))
        conn.commit()
        conn.close()

        reader = SQLiteBackend(path)
        try:
            assert reader.get(key) is None
            assert key not in reader
            # The next lookup rebuilds and stores a good copy.
            PlanCache(backend=reader).queue_for(bins, 0.95)
        finally:
            reader.close()
        rereader = SQLiteBackend(path)
        assert rereader.get(key) is not None
        rereader.close()

    def test_truncated_frontier_from_older_builds_is_a_miss(self, bins, tmp_path):
        backend = SQLiteBackend(tmp_path / "plans.db")
        key = opq_key(bins, 0.95)
        queue = build(bins, 0.95)
        queue.complete = False  # how older builds marked a deadline-cut frontier
        backend.put_payload(key, encode_queue(queue))
        assert backend.get(key) is None
        assert key not in backend
        backend.close()


class TestPlanCacheWithBackends:
    def test_cache_over_sqlite_counts_hits_and_misses(self, bins, tmp_path):
        cache = PlanCache(backend=SQLiteBackend(tmp_path / "plans.db"))
        cache.queue_for(bins, 0.95)
        cache.queue_for(bins, 0.95)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert cache.persistent
        cache.close()

    def test_second_cache_on_same_file_starts_warm(self, bins, tmp_path):
        path = tmp_path / "plans.db"
        first = PlanCache(backend=SQLiteBackend(path))
        first.queue_for(bins, 0.95)
        first.close()

        second = PlanCache(backend=SQLiteBackend(path))
        second.queue_for(bins, 0.95)
        stats = second.stats
        assert (stats.hits, stats.misses) == (1, 0)
        assert stats.hit_rate == 1.0
        second.close()

    def test_max_entries_with_custom_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PlanCache(max_entries=4, backend=MemoryBackend())

    def test_default_backend_is_memory(self):
        cache = PlanCache()
        assert isinstance(cache.backend, MemoryBackend)
        assert not cache.persistent


class TestOpenBackend:
    def test_default_is_unbounded_memory(self):
        backend = open_backend(None)
        assert isinstance(backend, MemoryBackend)
        assert backend.max_entries is None

    def test_memory_with_bound(self):
        backend = open_backend("memory:32")
        assert isinstance(backend, MemoryBackend)
        assert backend.max_entries == 32

    def test_sqlite_prefix_and_suffix_forms(self, tmp_path):
        by_prefix = open_backend(f"sqlite:{tmp_path / 'a.bin'}")
        by_suffix = open_backend(str(tmp_path / "b.sqlite3"))
        assert isinstance(by_prefix, SQLiteBackend)
        assert isinstance(by_suffix, SQLiteBackend)
        by_prefix.close()
        by_suffix.close()

    @pytest.mark.parametrize("spec", ["bogus", "memory:none", "memory:0", "sqlite:"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(BackendSpecError):
            open_backend(spec)

    def test_bad_bound_via_max_entries_rejected(self):
        with pytest.raises(BackendSpecError):
            open_backend("memory", max_entries=0)

    def test_spec_error_is_both_value_and_slade_error(self):
        from repro.core.errors import SladeError

        assert issubclass(BackendSpecError, ValueError)
        assert issubclass(BackendSpecError, SladeError)


class TestDelete:
    def test_memory_delete_removes_one_key(self, bins):
        backend = MemoryBackend()
        keep, drop = opq_key(bins, 0.90), opq_key(bins, 0.95)
        backend.put(keep, build(bins, 0.90))
        backend.put(drop, build(bins, 0.95))
        assert backend.delete(drop) is True
        assert drop not in backend
        assert keep in backend

    def test_memory_delete_missing_is_false(self, bins):
        assert MemoryBackend().delete(opq_key(bins, 0.9)) is False

    def test_sqlite_delete_removes_row_and_memo(self, bins, tmp_path):
        backend = SQLiteBackend(tmp_path / "plans.db")
        key = opq_key(bins, 0.95)
        backend.put(key, build(bins, 0.95))
        assert backend.get(key) is not None  # populate the memo
        assert backend.delete(key) is True
        assert backend.get(key) is None
        # A second connection sees the row gone too (not just the memo).
        assert SQLiteBackend(tmp_path / "plans.db").get(key) is None

    def test_sqlite_delete_missing_is_false(self, bins, tmp_path):
        backend = SQLiteBackend(tmp_path / "plans.db")
        assert backend.delete(opq_key(bins, 0.9)) is False
