"""Concurrency tests for the plan cache's per-key locking and coalescing.

Two contracts from the sharded-fleet PR:

* **Coalescing** — many threads missing on the *same* fingerprint issue
  exactly one backend GET and one Algorithm 2 build; the followers wait on
  the in-flight entry and share the leader's queue object (counted as hits
  plus ``cache.coalesced_waits``).
* **Per-key parallelism** — threads on *distinct* fingerprints never
  serialise behind one another's storage round trips.  With a backend whose
  ``get``/``put`` simulate network latency, total wall time stays near one
  round trip, not the sum — the regression that motivated replacing the old
  global hot-path lock.
"""

import threading
import time

import pytest

from repro.core.bins import TaskBinSet
from repro.engine.backends import MemoryBackend
from repro.engine.cache import PlanCache
from repro.engine.telemetry import Telemetry

TRIPLES = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]


@pytest.fixture
def bins():
    return TaskBinSet.from_triples(TRIPLES, name="table1")


class CountingBackend:
    """A MemoryBackend wrapper that counts and optionally delays traffic.

    ``latency`` sleeps inside get/put to model a remote round trip;
    ``concurrent_safe`` mirrors the networked backends so the cache lets
    per-key leaders overlap.
    """

    persistent = False
    concurrent_safe = True

    def __init__(self, latency: float = 0.0) -> None:
        self._inner = MemoryBackend()
        self._latency = latency
        self._lock = threading.Lock()
        self.gets = 0
        self.puts = 0
        self.concurrent_calls = 0
        self._active = 0

    def _enter(self):
        with self._lock:
            self._active += 1
            self.concurrent_calls = max(self.concurrent_calls, self._active)
        if self._latency:
            time.sleep(self._latency)

    def _exit(self):
        with self._lock:
            self._active -= 1

    def get(self, key):
        self._enter()
        try:
            with self._lock:
                self.gets += 1
            return self._inner.get(key)
        finally:
            self._exit()

    def put(self, key, queue):
        self._enter()
        try:
            with self._lock:
                self.puts += 1
            self._inner.put(key, queue)
        finally:
            self._exit()

    def merge(self, entries):
        self._inner.merge(entries)

    def snapshot(self):
        return self._inner.snapshot()

    def clear(self):
        self._inner.clear()

    def close(self):
        self._inner.close()

    def __len__(self):
        return len(self._inner)

    def __contains__(self, key):
        return key in self._inner


def run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestCoalescing:
    def test_thundering_herd_issues_one_get_and_one_build(self, bins):
        backend = CountingBackend(latency=0.05)
        telemetry = Telemetry()
        cache = PlanCache(backend=backend, telemetry=telemetry)
        herd = 12
        barrier = threading.Barrier(herd)
        queues = []

        def request():
            barrier.wait()
            queues.append(cache.queue_for(bins, 0.97))

        run_threads([request] * herd)

        # Exactly one storage lookup and one write-through for the herd...
        assert backend.gets == 1
        assert backend.puts == 1
        # ...and exactly one build, with every follower counted as a
        # coalesced hit sharing the same object.
        assert telemetry.counter("cache.misses") == 1
        assert telemetry.counter("cache.hits") == herd - 1
        assert telemetry.counter("cache.coalesced_waits") == herd - 1
        stats = cache.stats
        assert (stats.hits, stats.misses) == (herd - 1, 1)
        assert all(queue is queues[0] for queue in queues)

    def test_each_thread_labels_only_its_own_lookup(self, bins):
        """The leader's ledger reads miss; every follower's reads hit."""
        cache = PlanCache(backend=CountingBackend(latency=0.05))
        herd = 6
        barrier = threading.Barrier(herd, timeout=10)
        labels = []

        def request():
            barrier.wait()
            with cache.ledger() as ledger:
                cache.queue_for(bins, 0.97)
            labels.append(ledger.label)

        run_threads([request] * herd)
        assert sorted(labels) == ["hit"] * (herd - 1) + ["miss"]

    def test_coalesced_requests_resolve_after_leader_failure(self, bins):
        class ExplodingBackend(CountingBackend):
            def __init__(self):
                super().__init__()
                self.failures_left = 1

            def put(self, key, queue):
                with self._lock:
                    if self.failures_left:
                        self.failures_left -= 1
                        raise OSError("disk full")
                super().put(key, queue)

        backend = ExplodingBackend()
        cache = PlanCache(backend=backend)
        herd = 4
        barrier = threading.Barrier(herd)
        outcomes = []

        def request():
            barrier.wait()
            try:
                outcomes.append(cache.queue_for(bins, 0.95))
            except OSError:
                outcomes.append(None)

        run_threads([request] * herd)
        # The leader's failure surfaces only on the leader; every follower
        # retried as a fresh leader and got a real queue.
        assert outcomes.count(None) == 1
        survivors = [queue for queue in outcomes if queue is not None]
        assert len(survivors) == herd - 1


class TestPerKeyParallelism:
    def test_distinct_fingerprints_overlap_storage_round_trips(self, bins):
        latency = 0.15
        backend = CountingBackend(latency=latency)
        cache = PlanCache(backend=backend)
        thresholds = (0.90, 0.93, 0.95, 0.97)
        barrier = threading.Barrier(len(thresholds))

        def request(threshold):
            barrier.wait()
            cache.queue_for(bins, threshold)

        started = time.perf_counter()
        run_threads([
            (lambda t=t: request(t)) for t in thresholds
        ])
        elapsed = time.perf_counter() - started

        # Serial execution would pay 4 keys x (get + put) x latency = 1.2 s.
        # Overlapped leaders pay ~one get + one put plus build time.
        assert elapsed < 2.5 * 2 * latency, (
            f"distinct keys serialised: {elapsed:.2f}s for 4 keys at "
            f"{latency}s per storage call"
        )
        # The backend really saw overlapping calls (the old global lock
        # admitted exactly one at a time).
        assert backend.concurrent_calls >= 2
        assert cache.stats.misses == len(thresholds)

    def test_unsafe_backends_keep_the_storage_lock(self, bins):
        # A backend that does not declare concurrent_safe must never see
        # overlapping storage calls, whatever the thread count.
        backend = CountingBackend(latency=0.02)
        backend.concurrent_safe = False
        cache = PlanCache(backend=backend)
        thresholds = (0.90, 0.93, 0.95, 0.97)
        barrier = threading.Barrier(len(thresholds))

        def request(threshold):
            barrier.wait()
            cache.queue_for(bins, threshold)

        run_threads([(lambda t=t: request(t)) for t in thresholds])
        assert backend.concurrent_calls == 1
        assert cache.stats.misses == len(thresholds)


class TestInvalidateUnderConcurrency:
    def test_invalidate_races_concurrent_builds_without_resurrection(self, bins):
        """Builders racing an invalidation never re-seed from deleted donors.

        The cache drops the menu's plan-curve index before issuing backend
        deletes, so a concurrent ``seed_for`` either reads the donor while
        it still exists (fine: the donor epoch was still live) or finds no
        curve at all — it must never observe a curve point whose entry is
        already gone and silently fall back mid-iteration to a stale donor.
        """
        backend = CountingBackend(latency=0.005)
        backend._inner = MemoryBackend()  # ensure delete support below

        def delete(key):
            return backend._inner.delete(key)

        backend.delete = delete
        cache = PlanCache(backend=backend)
        for threshold in (0.90, 0.95):
            cache.queue_for(bins, threshold)

        stop = threading.Event()
        errors = []

        def builder():
            thresholds = (0.91, 0.93, 0.96, 0.97)
            index = 0
            while not stop.is_set():
                try:
                    cache.queue_for(bins, thresholds[index % len(thresholds)])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return
                index += 1

        threads = [threading.Thread(target=builder) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(10):
            cache.invalidate(bins, thresholds=(0.90, 0.91, 0.93, 0.95, 0.96, 0.97))
            time.sleep(0.002)
        stop.set()
        for thread in threads:
            thread.join()

        assert not errors
        # After the last invalidation wave, a rebuild works from scratch.
        queue = cache.queue_for(bins, 0.97)
        assert queue is not None
