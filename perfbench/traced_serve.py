"""Run ``repro serve`` with span recorders around each layer's public calls.

Usage (from the repository root)::

    python3 perfbench/traced_serve.py TRACE.json serve --http 127.0.0.1:0 ...

Everything after the trace path is handed to ``repro.cli.main`` unchanged.
The program's own code is not modified: this entry point replaces layer
functions and methods with wrappers that record a span around each call,
then starts the server.  A span is ``(name, start, end, parent, request)``;
``parent`` indexes the enclosing span on the same thread and ``request`` is
the solve request's id where the call knows it.  Spans stay in memory and are
written to ``TRACE.json`` when the server exits.

``SIGUSR1`` appends a snapshot of every plan cache's counters (and the
telemetry counters the caches share) so the benchmark can difference them
around its measured window.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

#: Telemetry counters snapshotted next to each plan cache's stats.
SNAPSHOT_COUNTERS = (
    "cache.coalesced_waits",
    "remote_cache.fail_open",
    "sharded_cache.fail_open",
)


class Recorder:
    """In-memory span store with a per-thread stack for parent links."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.marks: List[dict] = []
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: id(SolveRequest) -> enqueue instant, for micro-batch queue wait.
        self.enqueued: Dict[int, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        if request is None and stack:
            request = stack[-1][1]
        # [name, start, end, parent, request, attrs]
        span = [name, time.monotonic(), 0.0, parent, request, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append((index, request))
        return span

    def close(self, span: list) -> None:
        span[2] = time.monotonic()
        self._stack().pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        request_of: Optional[Callable[..., Optional[str]]] = None,
        attrs_of: Optional[Callable[..., Optional[dict]]] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``request_of(*args, **kwargs)`` names the request; ``attrs_of(result,
        *args, **kwargs)`` returns extra attributes stored with the span.  A
        call that raises is marked with ``{"error": <type name>}``.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = request_of(*args, **kwargs) if request_of else None
            span = recorder.open(name, request)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                recorder.close(span)
            if attrs_of is not None:
                span[5] = attrs_of(result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"spans": self.spans, "marks": self.marks, "missing": self.missing},
                handle,
            )


RECORDER = Recorder()


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that is ``original``, so names
    imported with ``from module import function`` are wrapped too."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def hook_function(module_name: str, attr: str, span: str, **kwargs) -> None:
    module = sys.modules.get(module_name)
    original = getattr(module, attr, None) if module is not None else None
    if original is None:
        RECORDER.missing.append(f"{module_name}.{attr}")
        return
    _patch_everywhere(original, RECORDER.wrap(span, original, **kwargs))


def hook_method(cls: Any, attr: str, span: str, **kwargs) -> None:
    original = cls.__dict__.get(attr)
    if original is None:
        RECORDER.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        return
    if isinstance(original, property):
        setattr(cls, attr, property(RECORDER.wrap(span, original.fget, **kwargs)))
    else:
        setattr(cls, attr, RECORDER.wrap(span, original, **kwargs))


def install() -> None:
    """Wrap the public boundary of every layer the benchmark reports on."""
    import repro.cli  # noqa: F401 - loads the serving stack
    from repro.algorithms.anytime import AnytimeSolver
    from repro.algorithms.base import Solver
    from repro.core.bins import TaskBinSet
    from repro.core.plan import DecompositionPlan
    from repro.core.problem import SladeProblem
    from repro.core.task import CrowdsourcingTask
    from repro.engine.backends.remote import RemoteBackend
    from repro.engine.backends.sharded import ShardedBackend
    from repro.engine.backends.tiered import TieredBackend
    from repro.engine.cache import PlanCache
    from repro.engine.planner import BatchPlanner
    from repro.service.async_service import AsyncSladeService
    from repro.service.drift import DriftController
    from repro.service.facade import SladeService
    from repro.service.transport.admission import AdmissionController
    import repro.io.serialization  # noqa: F401 - lazily imported by the transport

    # Transport and normalisation.
    hook_method(AdmissionController, "admit", "admission.admit")
    hook_function("repro.service.transport.http11", "render_response",
                  "transport.render")
    hook_function(
        "repro.service.normalize", "parse_request_payload", "normalize.parse",
        attrs_of=lambda result, *a, **k: {"rid": result.request_id},
    )
    hook_function("repro.io.serialization", "solve_response_to_dict", "encode")

    # Micro-batch queue wait: submit stamps the request, the facade batch
    # that carries it reads the stamp.
    original_submit = AsyncSladeService.submit

    @functools.wraps(original_submit)
    async def submit(self, request):
        RECORDER.enqueued[id(request)] = time.monotonic()
        return await original_submit(self, request)

    AsyncSladeService.submit = submit

    original_batch = SladeService.__dict__["solve_batch"]

    @functools.wraps(original_batch)
    def solve_batch(self, requests):
        requests = list(requests)
        started = time.monotonic()
        waits = []
        for request in requests:
            enqueued = RECORDER.enqueued.pop(id(request), None)
            if enqueued is not None:
                waits.append([request.request_id, started - enqueued])
        span = RECORDER.open("facade.batch")
        span[5] = {"size": len(requests), "waits": waits}
        try:
            return original_batch(self, requests)
        finally:
            RECORDER.close(span)

    SladeService.solve_batch = solve_batch
    hook_method(SladeService, "_solve_one", "facade",
                request_of=lambda self, request, *a, **k: request.request_id)
    hook_method(DriftController, "register", "drift.register")

    # Engine.
    hook_method(BatchPlanner, "solve", "planner.solve")
    hook_method(PlanCache, "queue_for", "cache.lookup")
    hook_method(PlanCache, "peek", "cache.lookup")
    hook_method(PlanCache, "publish", "cache.publish")
    hook_method(PlanCache, "seed_for", "cache.seed_for",
                attrs_of=lambda result, *a, **k: {"seeded": result is not None})
    caches: "weakref.WeakSet[PlanCache]" = weakref.WeakSet()
    original_init = PlanCache.__init__

    @functools.wraps(original_init)
    def cache_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        caches.add(self)

    PlanCache.__init__ = cache_init

    # Storage tiers.
    hook_method(TieredBackend, "get", "backend.tiered_get")
    for cls in (ShardedBackend, RemoteBackend):
        hook_method(cls, "get", "backend.far_get")
        hook_method(cls, "put", "backend.far_put")
        hook_method(cls, "__contains__", "backend.far_contains")
    hook_function("repro.engine.backends.wire", "encode_queue", "backend.encode",
                  attrs_of=lambda result, *a, **k: {"bytes": len(result)})
    hook_function("repro.engine.backends.wire", "decode_queue", "backend.decode",
                  attrs_of=lambda result, payload, *a, **k: {"bytes": len(payload)})

    # Algorithms 2-5.
    hook_function(
        "repro.algorithms.opq_vec", "build_queue", "alg2.build",
        attrs_of=lambda queue, *a, **k: {
            "nodes": (getattr(queue, "stats", None) or {}).get("nodes", 0),
            "frontier": len(queue),
        },
    )
    hook_function("repro.algorithms.opq", "build_optimal_priority_queue",
                  "alg2.python_core")

    def solve_attrs(result, solver, *args, **kwargs):
        attrs = {"assignments": len(result.plan)}
        groups = result.metadata.get("groups")
        if groups is not None:
            attrs["groups"] = groups
        if isinstance(solver, AnytimeSolver):
            attrs["quality"] = result.metadata.get("quality")
        return attrs

    hook_method(Solver, "solve", "alg3", attrs_of=solve_attrs)
    hook_method(DecompositionPlan, "require_feasible", "verify")
    hook_method(DecompositionPlan, "is_feasible", "verify")
    for cls in (SladeProblem, CrowdsourcingTask, TaskBinSet):
        hook_method(cls, "fingerprint", "fingerprint")

    def snapshot(_signum, _frame) -> None:
        mark = {"at": time.monotonic(), "caches": []}
        for cache in list(caches):
            stats = cache.stats
            entry = {
                "hits": stats.hits,
                "misses": stats.misses,
                "partial_hits": stats.partial_hits,
                "curve_seeds": stats.curve_seeds,
            }
            telemetry = cache.telemetry
            for counter in SNAPSHOT_COUNTERS:
                entry[counter] = (
                    telemetry.counter(counter) if telemetry is not None else 0.0
                )
            mark["caches"].append(entry)
        RECORDER.marks.append(mark)

    signal.signal(signal.SIGUSR1, snapshot)


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py TRACE.json serve [serve options]",
              file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    install()
    if RECORDER.missing:
        print("perfbench: layer hooks not found: " + ", ".join(RECORDER.missing),
              file=sys.stderr, flush=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        RECORDER.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
