"""Property tests for the log-bucketed latency-percentile math.

The histogram's contract: for any sample set and any quantile, the reported
percentile is an *upper bound* of the exact percentile that is tight to one
bucket — the exact value lies in ``(previous bound, reported value]``.
Hypothesis drives arbitrary samples across the full bucket range (and past
it, into the overflow bucket) to pin that bound.
"""

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.telemetry import SeriesStats, log_bucket_bounds
from repro.loadgen.histogram import LATENCY_BUCKETS, LatencyHistogram


def exact_percentile(samples, q):
    """The rank-``ceil(q*n)`` order statistic (the textbook percentile)."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


#: Latencies spanning below the first bound, the whole bucket range, and the
#: overflow region above the last bound.
latencies = st.floats(
    min_value=1e-5, max_value=500.0, allow_nan=False, allow_infinity=False
)
quantiles = st.one_of(
    st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.0]),
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
)


class TestPercentileProperty:
    @given(samples=st.lists(latencies, min_size=1, max_size=200), q=quantiles)
    @settings(max_examples=200, deadline=None)
    def test_percentile_within_one_bucket_of_exact(self, samples, q):
        histogram = LatencyHistogram()
        for value in samples:
            histogram.record(value)
        reported = histogram.percentile(q)
        exact = exact_percentile(samples, q)

        # Upper-bound property: at least ceil(q*n) samples are <= reported.
        assert reported >= exact

        bounds = LATENCY_BUCKETS
        if exact > bounds[-1]:
            # Overflow rank: the histogram answers with the observed max.
            assert reported == max(samples)
        else:
            # Tightness: exact and reported fall in the same bucket, i.e.
            # the previous bound is a strict lower bound of the exact value.
            index = bisect_left(bounds, reported)
            assert bisect_left(bounds, exact) == index
            if index > 0:
                assert exact > bounds[index - 1]

    @given(samples=st.lists(latencies, min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_percentiles_are_monotone_in_q(self, samples):
        histogram = LatencyHistogram()
        for value in samples:
            histogram.record(value)
        values = [histogram.percentile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert values == sorted(values)

    @given(
        left=st.lists(latencies, min_size=1, max_size=50),
        right=st.lists(latencies, min_size=1, max_size=50),
        q=quantiles,
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_recording_everything_in_one(self, left, right, q):
        merged = LatencyHistogram()
        one, other = LatencyHistogram(), LatencyHistogram()
        for value in left:
            one.record(value)
            merged.record(value)
        for value in right:
            other.record(value)
            merged.record(value)
        one.merge(other)
        assert one.count == merged.count
        assert one.percentile(q) == merged.percentile(q)
        assert one.maximum == merged.maximum


class TestPercentileEdges:
    def test_empty_histogram_has_no_percentile(self):
        assert LatencyHistogram().percentile(0.99) is None
        summary = LatencyHistogram().summary()
        assert summary["count"] == 0 and summary["p99"] == 0.0

    def test_invalid_quantile_raises(self):
        histogram = LatencyHistogram()
        histogram.record(0.01)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                histogram.percentile(bad)

    def test_unbucketed_series_has_no_percentile(self):
        series = SeriesStats()
        series.observe(1.0)
        assert series.percentile(0.5) is None

    def test_single_value_lands_in_its_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(0.003)
        p50 = histogram.percentile(0.5)
        # The bucket's upper bound is clamped to the sample itself.
        assert p50 == 0.003

    def test_no_percentile_exceeds_the_observed_max(self):
        histogram = LatencyHistogram()
        for _ in range(5):
            histogram.record(0.0101)
        assert histogram.percentile(0.999) == 0.0101
        assert histogram.summary()["p999"] <= histogram.maximum

    def test_merge_rejects_different_bounds(self):
        one = LatencyHistogram()
        other = LatencyHistogram(bounds=log_bucket_bounds(0.001, 1.0))
        other.record(0.5)
        with pytest.raises(ValueError):
            one.merge(other)

    def test_summary_reports_headline_quantiles(self):
        histogram = LatencyHistogram()
        for value in [0.001] * 98 + [1.0, 2.0]:
            histogram.record(value)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p50"] <= summary["p99"] <= summary["p999"]
        assert summary["p99"] >= 1.0
        assert summary["max"] == 2.0


class TestLogBucketBounds:
    def test_bounds_are_geometric_and_cover_range(self):
        bounds = log_bucket_bounds(0.001, 10.0, factor=2.0)
        assert bounds[0] == 0.001
        assert bounds[-1] >= 10.0
        for previous, current in zip(bounds, bounds[1:]):
            assert current == pytest.approx(previous * 2.0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            log_bucket_bounds(0.0, 1.0)
        with pytest.raises(ValueError):
            log_bucket_bounds(1.0, 0.5)
        with pytest.raises(ValueError):
            log_bucket_bounds(0.1, 1.0, factor=1.0)
