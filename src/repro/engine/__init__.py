"""The batch planning engine: plan/OPQ caching and batched dispatch.

Solving a SLADE instance splits into two phases: constructing the optimal
priority queue (Algorithm 2, a function of the bin menu and the reliability
threshold alone) and covering the task set with it (Algorithm 3, cheap and
linear in ``n``).  Experiment sweeps, figure scripts and production batches
solve many instances sharing the same ``(bins, threshold)`` pair, so this
package memoises phase one and runs phase two for each instance in turn,
collecting per-batch statistics.

Typical use::

    from repro.engine import BatchPlanner, BatchSpec

    spec = BatchSpec(bins=jelly_bin_set(20), n_values=(1000, 2000, 5000),
                     thresholds=(0.9,))
    batch = BatchPlanner().solve_many(spec, solver="opq")
    print(batch.total_cost, batch.stats.cache_hit_rate)
"""

from repro.engine.backends import (
    CacheBackend,
    HashRing,
    MemoryBackend,
    RemoteBackend,
    ShardedBackend,
    SQLiteBackend,
    TieredBackend,
    open_backend,
)
from repro.engine.backends.server import CacheServer, run_cache_server
from repro.engine.cache import CacheStats, PlanCache
from repro.engine.fingerprint import opq_key, problem_key
from repro.engine.planner import (
    BatchItem,
    BatchPlanner,
    BatchResult,
    BatchStats,
)
from repro.engine.specs import BatchSpec
from repro.engine.telemetry import (
    HistogramSnapshot,
    SeriesStats,
    Telemetry,
    render_prometheus,
)

__all__ = [
    "BatchItem",
    "BatchPlanner",
    "BatchResult",
    "BatchSpec",
    "BatchStats",
    "CacheBackend",
    "CacheServer",
    "CacheStats",
    "HashRing",
    "HistogramSnapshot",
    "MemoryBackend",
    "PlanCache",
    "RemoteBackend",
    "ShardedBackend",
    "SQLiteBackend",
    "SeriesStats",
    "Telemetry",
    "TieredBackend",
    "open_backend",
    "opq_key",
    "problem_key",
    "render_prometheus",
    "run_cache_server",
]
