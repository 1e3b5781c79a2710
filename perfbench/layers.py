"""Per-layer metrics from the spans ``traced_serve.py`` recorded.

A span's self time is its duration minus its direct children's.  Time
metrics are per call: the summed self time of the layer's spans that started
inside the measured window, divided by the calls completed in it, so they
add up to the mean end-to-end time of a call and ``trace.unattributed_ms``
is what no layer claimed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Tuple

#: Per-layer metrics: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "admission.admit_us": "us",
    "admission.rejected": "count",
    "transport.render_ms": "ms",
    "normalize.parse_ms": "ms",
    "async.queue_wait_ms": "ms",
    "async.batch_size": "count",
    "facade.self_ms": "ms",
    "drift.register_ms": "ms",
    "encode.ms": "ms",
    "planner.solve_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.publish_ms": "ms",
    "cache.seed_for_ms": "ms",
    "cache.curve_seeds": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.partial_hits": "count",
    "cache.coalesced_waits": "count",
    "cache.hit_ratio": "ratio",
    "backend.near_get_ms": "ms",
    "backend.far_get_ms": "ms",
    "backend.far_put_ms": "ms",
    "backend.far_contains": "count",
    "backend.far_bytes": "B",
    "backend.fail_open": "count",
    "alg2.build_ms": "ms",
    "alg2.builds": "count",
    "alg2.python_core_builds": "count",
    "alg2.nodes": "count",
    "alg2.frontier_size": "count",
    "alg3.self_ms": "ms",
    "alg3.assignments": "count",
    "alg4.groups": "count",
    "verify.ms": "ms",
    "fingerprint.ms": "ms",
    "anytime.optimal": "count",
    "anytime.refined": "count",
    "anytime.greedy": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Span name -> the per-call time metric its self time is charged to.
SELF_TIME = {
    "admission.admit": "admission.admit_ms",
    "transport.render": "transport.render_ms",
    "normalize.parse": "normalize.parse_ms",
    "encode": "encode.ms",
    "facade.batch": "facade.self_ms",
    "facade": "facade.self_ms",
    "drift.register": "drift.register_ms",
    "planner.solve": "planner.self_ms",
    "cache.lookup": "cache.lookup_ms",
    "cache.publish": "cache.publish_ms",
    "cache.seed_for": "cache.seed_for_ms",
    "backend.tiered_get": "backend.near_get_ms",
    "backend.far_get": "backend.far_get_ms",
    "backend.far_contains": "backend.far_get_ms",
    "backend.decode": "backend.far_get_ms",
    "backend.far_put": "backend.far_put_ms",
    "backend.encode": "backend.far_put_ms",
    "alg2.build": "alg2.build_ms",
    "alg2.python_core": "alg2.build_ms",
    "alg3": "alg3.self_ms",
    "verify": "verify.ms",
    "fingerprint": "fingerprint.ms",
}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def analyse(
    trace_path: str,
    window: Tuple[float, float],
    calls: int,
    mean_e2e_ms: float,
) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """``(metrics, shares, missing_hooks)`` for spans inside ``window``.

    ``calls`` is the number of calls completed in the window and
    ``mean_e2e_ms`` their mean client-side time from send to reply.
    ``shares`` is each per-call self-time metric over ``mean_e2e_ms``
    (``planner.solve_ms`` is inclusive, the parent of the layers below it,
    and has none).
    """
    with open(trace_path) as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    start, end = window
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]

    totals: Dict[str, float] = defaultdict(float)
    admit_calls = rejected = builds = python_builds = contains = far_bytes = 0
    nodes: List[float] = []
    frontier: List[float] = []
    assignments: List[float] = []
    groups: List[float] = []
    batch_sizes: List[float] = []
    qualities: Dict[str, int] = defaultdict(int)
    waits: List[float] = []
    batch_waits: Dict[str, float] = {}
    for index, span in enumerate(spans):
        name, begin, finish, parent, _request, attrs = span
        if not start <= begin <= end or finish <= 0.0:
            continue
        attrs = attrs or {}
        self_ms = (finish - begin - child_time[index]) * 1000.0
        metric = SELF_TIME.get(name)
        if metric is not None:
            totals[metric] += self_ms
        if name == "planner.solve":
            totals["planner.solve_ms"] += (finish - begin) * 1000.0
        elif name == "admission.admit":
            admit_calls += 1
            rejected += "error" in attrs
        elif name == "alg2.build":
            builds += 1
            nodes.append(attrs.get("nodes") or 0)
            frontier.append(attrs.get("frontier") or 0)
        elif name == "alg2.python_core":
            python_builds += 1
        elif name == "alg3" and "assignments" in attrs:
            assignments.append(attrs["assignments"])
            if "groups" in attrs:
                groups.append(attrs["groups"])
            if attrs.get("quality"):
                qualities[attrs["quality"]] += 1
        elif name == "facade.batch":
            batch_sizes.append(attrs.get("size", 0))
            for rid, wait in attrs.get("waits", []):
                # Items of one batch call share the call's id up to the dot
                # and wait side by side: the call waits for the longest.
                call_id, dot, _part = str(rid).partition(".")
                if dot:
                    batch_waits[call_id] = max(batch_waits.get(call_id, 0.0),
                                               wait * 1000.0)
                else:
                    waits.append(wait * 1000.0)
        elif name == "backend.far_contains" and (parent < 0 or spans[parent][0] != name):
            contains += 1
        elif name in ("backend.encode", "backend.decode"):
            far_bytes += attrs.get("bytes", 0)

    per_call = max(calls, 1)
    metrics: Dict[str, float] = {}
    for metric, total in totals.items():
        metrics[metric] = total / per_call
    metrics["async.queue_wait_ms"] = (sum(waits) + sum(batch_waits.values())) / per_call
    metrics["admission.admit_us"] = (
        totals["admission.admit_ms"] * 1000.0 / admit_calls if admit_calls else 0.0
    )
    metrics["admission.rejected"] = rejected
    metrics["async.batch_size"] = _mean(batch_sizes)
    metrics["alg2.builds"] = builds
    metrics["alg2.python_core_builds"] = python_builds
    metrics["alg2.nodes"] = _mean(nodes)
    metrics["alg2.frontier_size"] = _mean(frontier)
    metrics["alg3.assignments"] = _mean(assignments)
    metrics["alg4.groups"] = _mean(groups)
    metrics["backend.far_contains"] = contains
    metrics["backend.far_bytes"] = far_bytes
    for rung in ("optimal", "refined", "greedy"):
        metrics[f"anytime.{rung}"] = qualities.get(rung, 0)

    marks = [m for m in trace["marks"] if m["caches"]]
    if len(marks) >= 2:
        before, after = marks[0]["caches"], marks[-1]["caches"]

        def delta(field: str) -> float:
            return sum(c[field] for c in after) - sum(c[field] for c in before)

        for field in ("hits", "misses", "partial_hits", "curve_seeds"):
            metrics[f"cache.{field}"] = delta(field)
        metrics["cache.coalesced_waits"] = delta("cache.coalesced_waits")
        metrics["backend.fail_open"] = (
            delta("remote_cache.fail_open") + delta("sharded_cache.fail_open")
        )
        lookups = metrics["cache.hits"] + metrics["cache.misses"]
        metrics["cache.hit_ratio"] = metrics["cache.hits"] / lookups if lookups else 0.0

    charged = sum(
        total for metric, total in totals.items() if metric != "planner.solve_ms"
    ) / per_call + metrics["async.queue_wait_ms"]
    metrics["trace.unattributed_ms"] = mean_e2e_ms - charged
    shares = {
        metric: value / mean_e2e_ms
        for metric, value in metrics.items()
        if mean_e2e_ms > 0 and metric in PER_LAYER and metric.endswith("ms")
        and metric not in ("planner.solve_ms", "trace.unattributed_ms")
    }
    return metrics, shares, list(trace.get("missing", []))
