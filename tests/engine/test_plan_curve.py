"""Cross-threshold plan-curve reuse and peek accounting.

The plan cache keeps an in-process *plan curve* per bin-menu fingerprint:
the thresholds whose frontiers it has seen.  A cold build for a new
threshold on a known menu is warm-started from the nearest curve point
(``seed_for``), counted under ``cache.curve_seeds``, and must produce a
queue byte-identical to an unseeded build.  Every stored queue is a full
frontier, so a ``peek`` that finds one is a plain hit and
``partial_hits`` stays 0.
"""

import pytest

from repro.core.bins import TaskBinSet
from repro.engine.backends import MemoryBackend
from repro.engine.cache import PlanCache
from repro.engine.telemetry import Telemetry

TRIPLES = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]


@pytest.fixture
def bins():
    return TaskBinSet.from_triples(TRIPLES, name="table1")


def frontier_bytes(queue):
    return [
        (c.counts, c.lcm, c.unit_cost.hex(), c.residual.hex()) for c in queue
    ]


class TestPartialHitAccounting:
    def test_complete_peek_still_counts_a_hit(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.95)
        assert cache.peek(bins, 0.95) is not None
        stats = cache.stats
        assert (stats.hits, stats.partial_hits) == (1, 0)


class TestCurveSeeding:
    def test_second_threshold_build_is_seeded(self, bins):
        telemetry = Telemetry()
        cache = PlanCache(telemetry=telemetry)
        cache.queue_for(bins, 0.97)
        cache.queue_for(bins, 0.9)
        stats = cache.stats
        assert stats.misses == 2
        assert stats.curve_seeds == 1
        assert telemetry.counter("cache.curve_seeds") == 1

    def test_seeded_build_matches_an_unseeded_cache(self, bins):
        warm_cache = PlanCache()
        warm_cache.queue_for(bins, 0.97)
        seeded = warm_cache.queue_for(bins, 0.9)
        cold = PlanCache().queue_for(bins, 0.9)
        assert frontier_bytes(seeded) == frontier_bytes(cold)

    def test_first_build_on_a_menu_is_not_seeded(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.9)
        assert cache.stats.curve_seeds == 0

    def test_seed_for_prefers_the_nearest_donor_at_or_above(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.9)
        high = cache.queue_for(bins, 0.97)
        seed = cache.seed_for(bins, 0.93)
        assert seed is not None
        assert frontier_bytes_list(seed) == frontier_bytes(high)

    def test_seed_for_falls_back_to_a_lower_donor(self, bins):
        cache = PlanCache()
        low = cache.queue_for(bins, 0.9)
        seed = cache.seed_for(bins, 0.95)
        assert seed is not None
        assert frontier_bytes_list(seed) == frontier_bytes(low)

    def test_seed_for_unknown_menu_returns_none(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.9)
        other = TaskBinSet.from_triples([(1, 0.8, 0.2)], name="other")
        assert cache.seed_for(other, 0.9) is None

    def test_stale_curve_points_are_dropped(self, bins):
        cache = PlanCache()
        cache.queue_for(bins, 0.97)
        cache.clear()  # the backend entry is gone; the curve point is stale
        assert cache.seed_for(bins, 0.9) is None
        # The dead point was pruned: a rebuilt entry at another threshold
        # is found without tripping over the stale one again.
        cache.queue_for(bins, 0.9)
        assert cache.seed_for(bins, 0.95) is not None

    def test_seeding_probe_does_not_refresh_lru_recency(self, bins):
        backend = MemoryBackend(max_entries=2)
        cache = PlanCache(backend=backend)
        oldest = cache.queue_for(bins, 0.9)
        cache.queue_for(bins, 0.95)
        # This miss probes 0.9/0.95 as donors; the probe must not promote
        # them, so the LRU still evicts the oldest entry, not the newest.
        cache.queue_for(bins, 0.97)
        assert cache.peek(bins, 0.9) is None
        assert backend.evictions == 1
        assert oldest is not None


def frontier_bytes_list(elements):
    return [
        (c.counts, c.lcm, c.unit_cost.hex(), c.residual.hex())
        for c in elements
    ]
