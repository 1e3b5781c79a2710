"""Exact order statistics over raw samples.

Percentiles are nearest-rank order statistics of the sorted samples, so a
reported percentile is always one of the observed values and can never
exceed the observed maximum.  No histogram or bucket is involved.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Candidate tail percentiles, highest first.  The ladder stops at p90: the
#: reported phases collect about a thousand calls, right where p99 would
#: become eligible, and a tail that flipped between p90 and p99 from one run
#: (or one commit) to the next could not be compared.
TAIL_LADDER = (90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples above it.
MIN_BEYOND = 10


def rank_value(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already-sorted samples."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank position of ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with :data:`MIN_BEYOND` samples beyond
    it; 50 when there are too few."""
    for pct in TAIL_LADDER:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the tail chosen by sample count."""
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    return rank_value(ordered, pct), pct, len(ordered)


#: Samples per window of :func:`windowed_tail`: the fewest at which p90 has
#: :data:`MIN_BEYOND` samples beyond it.
TAIL_WINDOW = 100


def windowed_tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, windows)``: the middle window's tail.

    ``values`` are split, in the order given, into consecutive windows of
    :data:`TAIL_WINDOW` samples (a short remainder is dropped); each window's tail
    percentile is taken as in :func:`tail`, and the median of those (the
    lower middle for an even count) is returned, so the value is still an
    observed sample.  A burst of host contention that covers fewer than half
    of the windows leaves it where it was, while it would move a whole-run
    p90.  With fewer than two whole windows this is the whole-run tail.
    """
    window = TAIL_WINDOW
    count = len(values) // window
    if count < 2:
        value, pct, _samples = tail(values)
        return value, pct, 1
    pct = tail_percentile(window)
    tails = [rank_value(sorted(values[index * window:(index + 1) * window]), pct)
             for index in range(count)]
    return statistics.median_low(tails), pct, count
