"""Telemetry: the shared registry and its cache/planner hook points."""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.engine import BatchPlanner, PlanCache
from repro.engine.telemetry import (
    QUEUE_WAIT_BUCKETS,
    SeriesStats,
    Telemetry,
    format_bound,
    prometheus_name,
    render_prometheus,
)


class TestTelemetryRegistry:
    def test_counters_accumulate(self):
        telemetry = Telemetry()
        telemetry.increment("a.b")
        telemetry.increment("a.b", 2.5)
        assert telemetry.counter("a.b") == pytest.approx(3.5)
        assert telemetry.counter("never.touched") == 0.0

    def test_series_summary(self):
        telemetry = Telemetry()
        for value in (4.0, 1.0, 7.0):
            telemetry.observe("s", value)
        series = telemetry.series("s")
        assert series.count == 3
        assert series.total == pytest.approx(12.0)
        assert series.minimum == 1.0
        assert series.maximum == 7.0
        assert series.last == 7.0
        assert series.mean == pytest.approx(4.0)
        assert telemetry.series("empty").count == 0
        assert telemetry.series("empty").mean == 0.0

    def test_name_kind_conflicts_raise(self):
        telemetry = Telemetry()
        telemetry.increment("x")
        with pytest.raises(ValueError):
            telemetry.observe("x", 1.0)
        telemetry.observe("y", 1.0)
        with pytest.raises(ValueError):
            telemetry.increment("y")

    def test_snapshot_flattens_everything(self):
        telemetry = Telemetry()
        telemetry.increment("hits", 2)
        telemetry.observe("batch", 3.0)
        snapshot = telemetry.snapshot()
        assert snapshot["hits"] == 2
        assert snapshot["batch.count"] == 1.0
        assert snapshot["batch.total"] == 3.0
        assert snapshot["batch.mean"] == 3.0
        # Sorted, JSON-friendly, detached from the registry.
        assert list(snapshot) == sorted(snapshot)
        telemetry.increment("hits")
        assert snapshot["hits"] == 2

    def test_reset(self):
        telemetry = Telemetry()
        telemetry.increment("a")
        telemetry.observe("b", 1.0)
        telemetry.reset()
        assert telemetry.snapshot() == {}

    def test_thread_safety_under_contention(self):
        telemetry = Telemetry()

        def hammer():
            for _ in range(1000):
                telemetry.increment("n")
                telemetry.observe("v", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.counter("n") == 4000
        assert telemetry.series("v").count == 4000

    def test_series_stats_standalone(self):
        series = SeriesStats()
        series.observe(2.0)
        series.observe(-1.0)
        assert (series.minimum, series.maximum) == (-1.0, 2.0)


class TestHistogramBuckets:
    """Queue-wait (and round-trip) series record real distribution buckets."""

    def test_boundary_values_land_in_their_le_bucket(self):
        # Prometheus `le` semantics: a value exactly on a boundary counts in
        # that boundary's bucket, not the next one up.
        series = SeriesStats(bucket_bounds=(0.01, 0.1, 1.0))
        for value in (0.01, 0.1, 1.0):
            series.observe(value)
        assert series.bucket_counts == [1, 1, 1, 0]

    def test_overflow_bucket_catches_values_past_the_last_bound(self):
        series = SeriesStats(bucket_bounds=(0.01, 0.1))
        series.observe(0.5)
        series.observe(99.0)
        assert series.bucket_counts == [0, 0, 2]

    def test_cumulative_buckets_are_monotone_and_end_at_count(self):
        series = SeriesStats(bucket_bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            series.observe(value)
        cumulative = series.cumulative_buckets()
        assert cumulative == [(1.0, 1), (2.0, 2), (4.0, 3)]
        # The implicit +Inf bucket is the total count.
        assert series.count == 4

    def test_observe_with_buckets_creates_histogram_series(self):
        telemetry = Telemetry()
        telemetry.observe("wait", 0.003, buckets=(0.001, 0.01, 0.1))
        telemetry.observe("wait", 0.05, buckets=(0.001, 0.01, 0.1))
        series = telemetry.series("wait")
        assert series.bucket_bounds == (0.001, 0.01, 0.1)
        assert series.bucket_counts == [0, 1, 1, 0]

    def test_first_bucket_declaration_wins(self):
        telemetry = Telemetry()
        telemetry.observe("wait", 0.5, buckets=(1.0,))
        telemetry.observe("wait", 0.5, buckets=(2.0, 3.0))  # ignored
        assert telemetry.series("wait").bucket_bounds == (1.0,)
        assert telemetry.series("wait").count == 2

    def test_unbucketed_series_remain_unbucketed(self):
        telemetry = Telemetry()
        telemetry.observe("plain", 1.0)
        assert telemetry.series("plain").bucket_bounds is None
        assert telemetry.histograms() == {}

    def test_snapshot_flattens_cumulative_buckets(self):
        telemetry = Telemetry()
        for value in (0.002, 0.02, 5.0):
            telemetry.observe("wait", value, buckets=(0.01, 0.1, 1.0))
        snapshot = telemetry.snapshot()
        assert snapshot["wait.bucket.le_0.01"] == 1.0
        assert snapshot["wait.bucket.le_0.1"] == 2.0
        assert snapshot["wait.bucket.le_1"] == 2.0
        assert snapshot["wait.bucket.le_inf"] == 3.0
        assert snapshot["wait.count"] == 3.0

    def test_histograms_returns_detached_copies(self):
        telemetry = Telemetry()
        telemetry.observe("wait", 0.5, buckets=(1.0, 2.0))
        histograms = telemetry.histograms()
        hist = histograms["wait"]
        assert hist.bounds == (1.0, 2.0)
        assert hist.cumulative == (1, 1)
        assert hist.count == 1
        assert hist.total == 0.5
        telemetry.observe("wait", 0.5)
        assert histograms["wait"].count == 1  # a copy, not a view

    def test_series_copy_detaches_bucket_counts(self):
        telemetry = Telemetry()
        telemetry.observe("wait", 0.5, buckets=(1.0,))
        copy = telemetry.series("wait")
        telemetry.observe("wait", 0.5)
        assert copy.bucket_counts == [1, 0]

    def test_default_queue_wait_bounds_are_sorted_and_cover_the_flush_window(self):
        assert list(QUEUE_WAIT_BUCKETS) == sorted(QUEUE_WAIT_BUCKETS)
        # A request that finds the executor idle waits well under 1 ms, so
        # the low bounds must resolve that; the HTTP transport tests read
        # the 10 ms line, so it stays a boundary too.
        assert [b for b in QUEUE_WAIT_BUCKETS if b < 0.001] == [0.0001, 0.00025, 0.0005]
        assert 0.01 in QUEUE_WAIT_BUCKETS


#: Waits below the first queue-wait bound, across its range, and past its top.
waits = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)


class TestHistogramProperties:
    """For any samples, the buckets and the summary agree with the samples."""

    @given(samples=st.lists(waits, min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_cumulative_counts_are_exact_le_counts(self, samples):
        series = SeriesStats(bucket_bounds=QUEUE_WAIT_BUCKETS)
        for value in samples:
            series.observe(value)
        for bound, running in series.cumulative_buckets():
            assert running == sum(1 for value in samples if value <= bound)
        assert sum(series.bucket_counts) == series.count == len(samples)

    @given(samples=st.lists(waits, min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_summary_matches_the_samples(self, samples):
        series = SeriesStats()
        for value in samples:
            series.observe(value)
        assert series.minimum == min(samples)
        assert series.maximum == max(samples)
        assert series.last == samples[-1]
        assert series.total == pytest.approx(math.fsum(samples))
        assert series.mean == pytest.approx(math.fsum(samples) / len(samples))


class TestPrometheusRendering:
    def test_name_sanitisation(self):
        assert prometheus_name("cache.hits") == "slade_cache_hits"
        assert prometheus_name("http.responses.429") == "slade_http_responses_429"

    def test_render_includes_extras_and_sorts(self):
        text = render_prometheus({"b": 2.0}, extra={"a": 1.0})
        assert text == "slade_a 1\nslade_b 2\n"

    def test_format_bound_is_compact(self):
        assert format_bound(0.005) == "0.005"
        assert format_bound(1.0) == "1"

    def test_histograms_render_as_native_bucket_lines(self):
        telemetry = Telemetry()
        for value in (0.002, 0.02, 5.0):
            telemetry.observe("q.wait", value, buckets=(0.01, 0.1, 1.0))
        text = render_prometheus(
            telemetry.snapshot(), histograms=telemetry.histograms()
        )
        assert 'slade_q_wait_bucket{le="0.01"} 1' in text
        assert 'slade_q_wait_bucket{le="0.1"} 2' in text
        assert 'slade_q_wait_bucket{le="1"} 2' in text
        assert 'slade_q_wait_bucket{le="+Inf"} 3' in text
        assert "slade_q_wait_sum 5.022" in text
        assert "slade_q_wait_count 3" in text
        # The flattened .bucket.* gauge keys are replaced by the native form.
        assert "bucket_le_" not in text

    def test_flat_bucket_keys_survive_without_histograms_argument(self):
        # JSON consumers read the flattened snapshot directly; the text form
        # only upgrades to native histograms when asked.
        telemetry = Telemetry()
        telemetry.observe("q.wait", 0.5, buckets=(1.0,))
        text = render_prometheus(telemetry.snapshot())
        assert "slade_q_wait_bucket_le_1 1" in text


class TestCacheTelemetryHooks:
    def test_hits_misses_and_build_time(self):
        telemetry = Telemetry()
        cache = PlanCache(telemetry=telemetry)
        bins = jelly_bin_set(6)
        cache.queue_for(bins, 0.9)
        cache.queue_for(bins, 0.9)
        cache.queue_for(bins, 0.92)
        assert telemetry.counter("cache.misses") == 2
        assert telemetry.counter("cache.hits") == 1
        assert telemetry.counter("cache.build_seconds") > 0.0
        # The registry mirrors the cache's own counters.
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 2)

    def test_eviction_counter_on_bounded_backend(self):
        telemetry = Telemetry()
        cache = PlanCache(max_entries=2, telemetry=telemetry)
        bins = jelly_bin_set(5)
        for threshold in (0.88, 0.9, 0.92, 0.94):
            cache.queue_for(bins, threshold)
        assert telemetry.counter("cache.evictions") == 2
        assert cache.stats.evictions == 2
        assert cache.stats.entries == 2

    def test_untelemetered_cache_still_counts_evictions_in_stats(self):
        cache = PlanCache(max_entries=1)
        bins = jelly_bin_set(4)
        cache.queue_for(bins, 0.9)
        cache.queue_for(bins, 0.92)
        assert cache.stats.evictions == 1

    def test_cache_stats_since_subtracts_evictions(self):
        cache = PlanCache(max_entries=1)
        bins = jelly_bin_set(4)
        cache.queue_for(bins, 0.9)
        cache.queue_for(bins, 0.92)
        before = cache.stats
        cache.queue_for(bins, 0.94)
        delta = cache.stats.since(before)
        assert delta.evictions == 1
        assert delta.misses == 1


class TestPlannerTelemetryHooks:
    def test_batch_size_series_and_shared_registry(self):
        telemetry = Telemetry()
        planner = BatchPlanner(telemetry=telemetry)
        bins = jelly_bin_set(6)
        problems = [
            SladeProblem.homogeneous(20 + i, 0.9, bins, name=f"p{i}")
            for i in range(3)
        ]
        planner.solve_many(problems, solver="opq")
        planner.solve_many(problems[:2], solver="opq")
        assert telemetry.counter("planner.batches") == 2
        assert telemetry.counter("planner.instances") == 5
        series = telemetry.series("planner.batch_size")
        assert series.count == 2
        assert series.maximum == 3
        # The planner-built cache shares the registry: one distinct
        # (menu, threshold) pair -> one miss, the rest hits.
        assert telemetry.counter("cache.misses") == 1
        assert telemetry.counter("cache.hits") == 4
