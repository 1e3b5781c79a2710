"""Single source of truth for telemetry metric names.

Every counter / series / gauge name the project records lives here, and
nowhere else: the SLD004 lint rule checks call sites against this module,
and the ``/metrics`` tests check rendered output against it.  Adding a
metric means adding it here first — a name that appears only at a call
site is treated as drift (most likely a typo) and fails ``repro lint``.

Naming convention: lowercase dotted ``component.metric`` segments of
``[a-z][a-z0-9_]*``, e.g. ``cache.hits`` or ``remote_cache.fail_open``.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

#: Monotonic counters (``Telemetry.increment``).
COUNTERS: FrozenSet[str] = frozenset({
    # plan cache
    "cache.hits",
    "cache.misses",
    "cache.curve_seeds",
    "cache.coalesced_waits",
    "cache.evictions",
    "cache.build_seconds",
    "cache.invalidations",
    # planner
    "planner.batches",
    "planner.instances",
    # service facade
    "service.requests",
    "service.failures",
    "service.flushes",
    # remote backend
    "remote_cache.hits",
    "remote_cache.misses",
    "remote_cache.fail_open",
    "remote_cache.corrupt_payloads",
    # tiered backend
    "tiered.local_hits",
    "tiered.remote_hits",
    "tiered.misses",
    # sharded backend
    "sharded_cache.hits",
    "sharded_cache.misses",
    "sharded_cache.failovers",
    "sharded_cache.rebalances",
    "sharded_cache.fail_open",
    # admission control
    "admission.admitted",
    "admission.rate_limited",
    "admission.overloaded",
    "admission.unauthorized",
    # deadline-aware serving
    "deadline.requests",
    "deadline.hits",
    "deadline.misses",
    "deadline.expired",
    "deadline.best_so_far",
    # http transport
    "http.requests",
    "http.protocol_errors",
    # drift-driven calibration loop
    "drift.observations",
    "drift.feedback_requests",
    "drift.recalibrations",
    "drift.revalidated_entries",
    "drift.invalidated_keys",
    "drift.failed_revalidations",
})

#: Distribution series (``Telemetry.observe``).
SERIES: FrozenSet[str] = frozenset({
    "planner.batch_size",
    "service.batch_size",
    "service.queue_wait_seconds",
    "remote_cache.round_trip_seconds",
    "drift.revalidation_seconds",
})

#: Point-in-time gauges (snapshot / ``/metrics`` extras).
GAUGES: FrozenSet[str] = frozenset({
    "cache.entries",
    "http.inflight_solves",
    "admission.inflight",
    "remote_cache.server_keys",
    "remote_cache.server_bytes",
    "remote_cache.server_evictions",
    "tiered.local_entries",
    "sharded_cache.shards",
    "sharded_cache.replicas",
    "sharded_cache.shards_up",
    "drift.monitored_menus",
    "drift.drifted_menus",
    "drift.max_shortfall",
})

#: Prefixes for names built at runtime (status codes, shard indices).
DYNAMIC_PREFIXES: Tuple[str, ...] = (
    "http.responses.",
    "sharded_cache.shard.",
)

ALL_STATIC: FrozenSet[str] = COUNTERS | SERIES | GAUGES


def matches_dynamic(name: str) -> bool:
    """True when ``name`` (or an f-string literal prefix) is dynamic."""
    return any(
        name.startswith(prefix) or prefix.startswith(name)
        for prefix in DYNAMIC_PREFIXES
        if name
    )


def is_known(name: str, kind: str = "any") -> bool:
    """True when ``name`` is registered for the given sink kind.

    ``kind`` is ``"counter"``, ``"series"``, ``"gauge"``, or ``"any"``.
    Dynamic-prefix names count as counters and gauges (per-shard stats
    are rendered both ways) but never as series.
    """
    if kind == "counter":
        return name in COUNTERS or matches_dynamic(name)
    if kind == "series":
        return name in SERIES
    if kind == "gauge":
        return name in GAUGES or matches_dynamic(name)
    return name in ALL_STATIC or matches_dynamic(name)
