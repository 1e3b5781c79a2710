"""Serving-stack telemetry: thread-safe counters and value series.

The engine and service layers each know one slice of what a deployment wants
to watch — the plan cache sees hits, misses, evictions and build time; the
batch planner sees batch sizes; the async frontend sees queue waits and flush
sizes; the HTTP transport sees statuses and admission rejections.  A single
:class:`Telemetry` registry collects all of it so ``GET /metrics`` can
publish one coherent snapshot without any layer importing another.

Two primitives cover every hook point:

* :meth:`Telemetry.increment` — monotone counters (``cache.hits``,
  ``admission.rate_limited``, ``http.responses.429`` ...).
* :meth:`Telemetry.observe` — value series summarised as
  count/total/min/max/last (``service.batch_size``,
  ``service.queue_wait_seconds`` ...), optionally bucketed into a histogram
  when the first observation declares boundaries (``buckets=...``) — a mean
  hides tail latency; a p99 scraped from buckets does not.

:meth:`Telemetry.snapshot` flattens both into one ``{name: number}`` dict
(series expand to ``name.count``, ``name.total``, ``name.min``, ``name.max``,
``name.last`` and, for convenience, ``name.mean``; bucketed series add
cumulative ``name.bucket.le_<bound>`` counts);
:func:`render_prometheus` turns a snapshot into Prometheus text exposition
lines for scrapers, emitting proper ``_bucket{le="..."}`` / ``_sum`` lines
for the histograms passed alongside.  Everything is stdlib-only and safe to
call from solver worker threads, the asyncio event loop, and HTTP handler
tasks concurrently.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Queue-wait histogram boundaries (seconds).  The async frontend never holds
#: a flush open, so a request that finds the executor idle waits well under a
#: millisecond (the low end matches :data:`REMOTE_RTT_BUCKETS`); waits in the
#: millisecond buckets are time spent queued behind a running batch, and the
#: top buckets show a saturated executor.
QUEUE_WAIT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5,
)

#: Remote-cache round-trip boundaries (seconds).  Loopback round trips sit in
#: the sub-millisecond buckets; anything beyond 100 ms is a WAN hop or a
#: struggling server, and past the client timeout the call fails open.
REMOTE_RTT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0,
)


@dataclass
class SeriesStats:
    """Running summary of one observed value series.

    When ``bucket_bounds`` is set the series is also a histogram:
    ``bucket_counts[i]`` counts observations with
    ``bounds[i-1] < value <= bounds[i]`` (Prometheus ``le`` semantics), with
    one extra overflow slot for values above the last bound.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    last: float = 0.0
    bucket_bounds: Optional[Tuple[float, ...]] = None
    bucket_counts: Optional[List[int]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.bucket_bounds is not None and self.bucket_counts is None:
            self.bucket_counts = [0] * (len(self.bucket_bounds) + 1)

    def observe(self, value: float) -> None:
        if self.count == 0:
            self.minimum = value
            self.maximum = value
        else:
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)
        self.count += 1
        self.total += value
        self.last = value
        if self.bucket_bounds is not None:
            assert self.bucket_counts is not None
            # bisect_left gives the first bound >= value: `le` semantics, so
            # a value exactly on a boundary lands in that boundary's bucket.
            self.bucket_counts[bisect_left(self.bucket_bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Average observed value (0.0 before the first observation)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(bound, observations <= bound)`` pairs (empty when unbucketed)."""
        if self.bucket_bounds is None:
            return []
        assert self.bucket_counts is not None
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bucket_bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        return out


@dataclass(frozen=True)
class HistogramSnapshot:
    """A consistent copy of one bucketed series for rendering."""

    bounds: Tuple[float, ...]
    cumulative: Tuple[int, ...]  #: observations <= bounds[i]
    count: int                   #: total observations (the +Inf bucket)
    total: float                 #: sum of observed values


class Telemetry:
    """A thread-safe registry of named counters and value series.

    Metric names are dotted paths (``"cache.hits"``,
    ``"service.batch_size"``); a name is either a counter or a series, never
    both — :meth:`increment` and :meth:`observe` on the same name raise.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._series: Dict[str, SeriesStats] = {}

    # -- recording -------------------------------------------------------------

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at zero)."""
        with self._lock:
            if name in self._series:
                raise ValueError(f"{name!r} is a series, not a counter")
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        """Record one value into the series ``name`` (creating it empty).

        ``buckets`` declares histogram boundaries when the series is first
        created; later observations inherit them (the first declaration
        wins), so hook points can pass their boundary constant on every call.
        """
        with self._lock:
            if name in self._counters:
                raise ValueError(f"{name!r} is a counter, not a series")
            series = self._series.get(name)
            if series is None:
                bounds = (
                    tuple(sorted(set(buckets))) if buckets is not None else None
                )
                series = self._series[name] = SeriesStats(bucket_bounds=bounds)
            series.observe(value)

    # -- reading ---------------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of the counter ``name`` (0.0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def series(self, name: str) -> SeriesStats:
        """A copy of the series ``name`` (empty if never observed)."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return SeriesStats()
            return SeriesStats(
                count=series.count,
                total=series.total,
                minimum=series.minimum,
                maximum=series.maximum,
                last=series.last,
                bucket_bounds=series.bucket_bounds,
                bucket_counts=(
                    list(series.bucket_counts)
                    if series.bucket_counts is not None
                    else None
                ),
            )

    def histograms(self) -> Dict[str, HistogramSnapshot]:
        """A consistent copy of every bucketed series, keyed by name."""
        with self._lock:
            out: Dict[str, HistogramSnapshot] = {}
            for name, series in self._series.items():
                if series.bucket_bounds is None:
                    continue
                cumulative = series.cumulative_buckets()
                out[name] = HistogramSnapshot(
                    bounds=tuple(bound for bound, _cum in cumulative),
                    cumulative=tuple(cum for _bound, cum in cumulative),
                    count=series.count,
                    total=series.total,
                )
        return out

    def snapshot(self) -> Dict[str, float]:
        """One flat, consistent ``{metric: number}`` view of everything."""
        with self._lock:
            out: Dict[str, float] = dict(self._counters)
            for name, series in self._series.items():
                out[f"{name}.count"] = float(series.count)
                out[f"{name}.total"] = series.total
                out[f"{name}.min"] = series.minimum
                out[f"{name}.max"] = series.maximum
                out[f"{name}.last"] = series.last
                out[f"{name}.mean"] = series.mean
                for bound, cum in series.cumulative_buckets():
                    out[f"{name}.bucket.le_{format_bound(bound)}"] = float(cum)
                if series.bucket_bounds is not None:
                    out[f"{name}.bucket.le_inf"] = float(series.count)
        return dict(sorted(out.items()))

    def reset(self) -> None:
        """Drop every counter and series (tests and bench harnesses)."""
        with self._lock:
            self._counters.clear()
            self._series.clear()


def prometheus_name(name: str, prefix: str = "slade") -> str:
    """Convert a dotted metric name into a Prometheus-safe identifier."""
    safe = "".join(ch if ch.isalnum() else "_" for ch in name)
    return f"{prefix}_{safe}"


def format_bound(bound: float) -> str:
    """A compact, stable rendering of one histogram boundary (``0.005``)."""
    return f"{bound:g}"


def render_prometheus(
    snapshot: Dict[str, float],
    prefix: str = "slade",
    extra: Optional[Dict[str, float]] = None,
    histograms: Optional[Dict[str, HistogramSnapshot]] = None,
) -> str:
    """Render a snapshot as Prometheus text exposition (one gauge per metric).

    ``extra`` merges additional point-in-time gauges (e.g. current cache
    entries, in-flight requests) into the scrape without mutating the
    registry.  ``histograms`` (from :meth:`Telemetry.histograms`) render as
    native histogram exposition — ``<name>_bucket{le="..."}`` lines plus
    ``<name>_sum`` — instead of the flattened ``.bucket.le_*`` gauge keys,
    which are dropped from the text form (the JSON form keeps them).
    """
    merged = dict(snapshot)
    if extra:
        merged.update(extra)
    if histograms:
        flattened_prefixes = tuple(f"{name}.bucket." for name in histograms)
        merged = {
            name: value
            for name, value in merged.items()
            if not name.startswith(flattened_prefixes)
        }
    lines: List[str] = [
        f"{prometheus_name(name, prefix)} {_render_value(value)}"
        for name, value in sorted(merged.items())
    ]
    for name, hist in sorted((histograms or {}).items()):
        base = prometheus_name(name, prefix)
        for bound, cum in zip(hist.bounds, hist.cumulative):
            lines.append(f'{base}_bucket{{le="{format_bound(bound)}"}} {cum}')
        lines.append(f'{base}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{base}_sum {_render_value(hist.total)}")
    return "\n".join(lines) + "\n"


def _render_value(value: float) -> str:
    """Exact rendering: integral counters must not lose digits.

    ``:g`` truncates to 6 significant digits, so a counter past ~1e6 would
    stall in visible steps and break rate() math on the scraper side.
    """
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
