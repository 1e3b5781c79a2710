"""Tests for the OPQ plan cache."""

import threading

import pytest

from repro.algorithms.opq import OPQSolver, build_optimal_priority_queue
from repro.algorithms.opq_extended import OPQExtendedSolver
from repro.core.bins import TaskBinSet
from repro.core.problem import SladeProblem
from repro.engine.cache import PlanCache
from repro.engine.fingerprint import opq_key

TRIPLES = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]


@pytest.fixture
def bins():
    return TaskBinSet.from_triples(TRIPLES, name="table1")


class TestCacheBasics:
    def test_miss_then_hit(self, bins):
        cache = PlanCache()
        first = cache.queue_for(bins, 0.95)
        second = cache.queue_for(bins, 0.95)
        assert first is second
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        assert stats.build_seconds > 0.0

    def test_cached_queue_matches_cold_build(self, bins):
        cache = PlanCache()
        cached = cache.queue_for(bins, 0.95)
        cold = build_optimal_priority_queue(bins, 0.95)
        assert [(c.counts, c.lcm) for c in cached] == [
            (c.counts, c.lcm) for c in cold
        ]

    def test_distinct_thresholds_are_distinct_entries(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.9)
        cache.queue_for(bins, 0.95)
        assert len(cache) == 2
        assert cache.stats.misses == 2

    def test_equal_content_bin_sets_share_entries(self, bins):
        cache = PlanCache()
        clone = TaskBinSet.from_triples(TRIPLES, name="other-name")
        a = cache.queue_for(bins, 0.95)
        b = cache.queue_for(clone, 0.95)
        assert a is b
        assert cache.stats.hits == 1

    def test_clear_keeps_counters(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.9)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_contains_uses_opq_key(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.9)
        assert opq_key(bins, 0.9) in cache
        assert opq_key(bins, 0.95) not in cache


class TestLRUBound:
    def test_max_entries_evicts_least_recently_used(self, bins):
        cache = PlanCache(max_entries=2)
        cache.queue_for(bins, 0.90)
        cache.queue_for(bins, 0.95)
        cache.queue_for(bins, 0.90)   # refresh 0.90
        cache.queue_for(bins, 0.97)   # evicts 0.95
        assert opq_key(bins, 0.90) in cache
        assert opq_key(bins, 0.97) in cache
        assert opq_key(bins, 0.95) not in cache

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


class TestWarmAndExport:
    def test_warm_builds_each_once(self, bins):
        cache = PlanCache()
        cache.warm(bins, (0.9, 0.95, 0.9))
        stats = cache.stats
        assert stats.misses == 2
        assert stats.hits == 1

    def test_export_absorb_roundtrip(self, bins):
        parent = PlanCache()
        parent.warm(bins, (0.9, 0.95))
        child = PlanCache()
        child.absorb(parent.export_entries())
        assert len(child) == 2
        # Absorbed entries count as neither hit nor miss...
        assert child.stats.requests == 0
        # ...but serve requests as hits afterwards.
        child.queue_for(bins, 0.9)
        assert child.stats.hits == 1


class TestStatsDelta:
    def test_since_produces_batch_scoped_numbers(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.9)
        before = cache.stats
        cache.queue_for(bins, 0.9)
        cache.queue_for(bins, 0.95)
        delta = cache.stats.since(before)
        assert (delta.hits, delta.misses) == (1, 1)

    def test_idle_hit_rate_is_zero(self):
        assert PlanCache().stats.hit_rate == 0.0


class TestThreadSafety:
    def test_concurrent_requests_build_once(self, bins):
        cache = PlanCache()
        barrier = threading.Barrier(8)
        queues = []

        def request():
            barrier.wait()
            queues.append(cache.queue_for(bins, 0.97))

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert cache.stats.misses == 1
        assert cache.stats.hits == 7
        assert all(queue is queues[0] for queue in queues)


class TestInvalidate:
    def test_invalidate_drops_only_the_menu(self, bins):
        other = TaskBinSet.from_triples([(1, 0.8, 0.2), (2, 0.7, 0.3)])
        cache = PlanCache()
        cache.queue_for(bins, 0.95)
        cache.queue_for(bins, 0.90)
        cache.queue_for(other, 0.95)
        assert cache.invalidate(bins) == 2
        assert opq_key(bins, 0.95) not in cache
        assert opq_key(bins, 0.90) not in cache
        assert opq_key(other, 0.95) in cache

    def test_invalidate_covers_explicit_thresholds(self, bins):
        # Entries this process never built (no curve point — e.g. written by
        # another replica into a shared backend) still die when named.
        cache = PlanCache()
        foreign = PlanCache(backend=cache.backend)
        foreign.queue_for(bins, 0.97)
        assert cache.invalidate(bins, thresholds=[0.97]) == 1
        assert opq_key(bins, 0.97) not in cache

    def test_invalidate_counts_telemetry(self, bins):
        from repro.engine.telemetry import Telemetry

        telemetry = Telemetry()
        cache = PlanCache(telemetry=telemetry)
        cache.queue_for(bins, 0.95)
        cache.invalidate(bins)
        assert telemetry.counter("cache.invalidations") == 1

    def test_invalidate_is_idempotent(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.95)
        assert cache.invalidate(bins, thresholds=[0.95]) == 1
        assert cache.invalidate(bins, thresholds=[0.95]) == 0

    def test_deleteless_backend_is_tolerated(self, bins):
        class LegacyBackend:
            def __init__(self):
                self.entries = {}
            def get(self, key):
                return self.entries.get(key)
            def put(self, key, queue):
                self.entries[key] = queue
            def clear(self):
                self.entries.clear()
            def __len__(self):
                return len(self.entries)
            def __contains__(self, key):
                return key in self.entries

        cache = PlanCache(backend=LegacyBackend())
        cache.queue_for(bins, 0.95)
        assert cache.invalidate(bins) == 0
        assert opq_key(bins, 0.95) in cache

    def test_invalidate_removes_curve_donors(self, bins):
        # After invalidation the menu has no plan curve left: a build at a
        # nearby threshold is a cold build, not a seeded one.
        cache = PlanCache()
        cache.queue_for(bins, 0.95)
        assert cache.seed_for(bins, 0.94) is not None
        cache.invalidate(bins)
        assert cache.seed_for(bins, 0.94) is None

    def test_new_epoch_entries_survive_old_epoch_invalidation(self, bins):
        cache = PlanCache()
        recalibrated = bins.next_epoch()
        cache.queue_for(bins, 0.95)
        cache.queue_for(recalibrated, 0.95)
        cache.invalidate(bins, thresholds=[0.95])
        assert opq_key(bins, 0.95) not in cache
        assert opq_key(recalibrated, 0.95) in cache
        assert cache.seed_for(recalibrated, 0.95) is not None


class TestSolverInjection:
    """An empty cache has ``len() == 0``, yet solvers must still use it."""

    def test_opq_solver_stores_its_queue(self, bins):
        cache = PlanCache()
        OPQSolver(queue_factory=cache).solve(
            SladeProblem.homogeneous(12, 0.95, bins)
        )
        assert (cache.stats.misses, len(cache)) == (1, 1)

    def test_opq_extended_solver_stores_one_queue_per_group(self, bins):
        cache = PlanCache()
        problem = SladeProblem.heterogeneous([0.6, 0.7, 0.9, 0.95, 0.99], bins)
        groups = OPQExtendedSolver(queue_factory=cache).solve(problem).metadata[
            "groups"
        ]
        assert groups > 1
        assert (cache.stats.misses, len(cache)) == (groups, groups)


class TestLedger:
    """Per-thread lookup outcomes and the miss/hit/bypass label rule."""

    def test_build_is_a_miss(self, bins):
        cache = PlanCache()
        with cache.ledger() as ledger:
            cache(bins, 0.95)
        assert ledger.label == "miss"

    def test_stored_queue_is_a_hit(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.95)
        with cache.ledger() as ledger:
            cache(bins, 0.95)
        assert ledger.label == "hit"

    def test_partial_peek_is_a_hit(self, bins):
        cache = PlanCache()
        truncated = build_optimal_priority_queue(bins, 0.95)
        truncated.complete = False
        cache.publish(bins, 0.95, truncated)
        with cache.ledger() as ledger:
            assert cache.peek(bins, 0.95) is truncated
        assert ledger.label == "hit"
        assert cache.stats.partial_hits == 1

    def test_publish_is_a_miss_even_when_not_stored(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.95)
        truncated = build_optimal_priority_queue(bins, 0.95)
        truncated.complete = False
        with cache.ledger() as ledger:
            assert not cache.publish(bins, 0.95, truncated)
        assert ledger.label == "miss"

    def test_absent_peek_is_a_bypass(self, bins):
        cache = PlanCache()
        with cache.ledger() as ledger:
            assert cache.peek(bins, 0.95) is None
        assert ledger.label == "bypass"

    def test_other_threads_lookups_stay_out(self, bins):
        cache = PlanCache()
        with cache.ledger() as ledger:
            worker = threading.Thread(target=cache.queue_for, args=(bins, 0.95))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert ledger.label == "bypass"
        assert cache.stats.misses == 1

    def test_closed_ledger_stops_recording(self, bins):
        cache = PlanCache()
        with cache.ledger() as ledger:
            pass
        cache.queue_for(bins, 0.95)
        assert ledger.label == "bypass"
