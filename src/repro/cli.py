"""Command-line interface: ``python -m repro`` or the ``slade`` console script.

Three sub-commands cover the common workflows:

``solve``
    Decompose a synthetic large-scale task with a chosen solver and print the
    plan summary.

``figure``
    Reproduce one of the paper's figures (``fig3a`` ... ``fig8b``) and print
    the data series as a text table.

``calibrate``
    Run probe-based calibration against the simulated Jelly or SMIC platform
    and print the resulting task-bin menu.

``batch``
    Decompose a whole grid of instances through the batch planning engine,
    sharing OPQ construction across instances, and print per-instance results
    plus the batch statistics (cache hit rate, solve-time breakdown).

``serve``
    Run the service facade as a JSON-lines request loop: read one solve
    request per line from stdin (or a file), write one structured response
    per line to stdout.  ``--cache sqlite:<path>`` keeps the plan cache warm
    across restarts; ``--cache remote://host:port`` (or
    ``tiered:memory:<N>+remote://host:port``) shares it with a whole fleet
    through a ``repro cached`` server, and ``--cache
    sharded://h1:p1,h2:p2,h3:p3?replicas=2`` spreads it over several cache
    servers with consistent hashing and replication.  With ``--http HOST:PORT`` the same
    facade is served over the stdlib HTTP transport instead
    (``POST /v2/solve``, ``POST /v2/solve/batch``, ``GET /healthz``,
    ``GET /metrics``), with optional per-tenant admission control
    (``--rate``, ``--burst``, ``--tenant-rate``, ``--max-inflight``,
    ``--max-total-inflight``);
    SIGINT/SIGTERM shut it down cleanly, draining in-flight requests.

``cached``
    Run the shared plan-cache server: an asyncio TCP key-value store other
    hosts' ``repro serve --cache remote://...`` (or ``sharded://...``)
    processes warm and reuse.  Clients fail open (a dead server means local
    rebuilds, never request errors), so the server needs no
    high-availability story to be useful; ``--persist <path>`` additionally
    backs the store with a SQLite file so a restarted server keeps its keys.

``profile``
    Build a grid of Algorithm 2 frontiers cold under cProfile and print a
    per-threshold timing table plus the top-N cumulative-time functions —
    the quickest way to see whether construction time goes to enumeration,
    frontier maintenance, or Combination quantity (re)computation, and to
    compare the ``python`` and ``numpy`` cores (``--core``).

Every sub-command reports library-level failures (:class:`SladeError`
subclasses) as a one-line ``error:`` message on stderr with exit code 2
instead of a traceback.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import os
import signal
import sys
from typing import List, Optional, Sequence, TextIO

from repro.algorithms.registry import available_solvers, create_solver
from repro.core.errors import SladeError
from repro.core.problem import SladeProblem
from repro.engine import BatchPlanner, BatchSpec
from repro.crowd.calibration import ProbeCalibrator
from repro.crowd.presets import jelly_platform, smic_platform
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set
from repro.datasets.thresholds import normal_thresholds
from repro.experiments.config import ExperimentConfig, SweepResult
from repro.experiments.figures import figure_ids, run_figure
from repro.experiments.motivation import MotivationSeries
from repro.experiments.report import format_series, format_sweep_table
from repro.io.serialization import solve_response_to_dict
from repro.service import (
    AdmissionController,
    ServiceConfig,
    SladeService,
    failure_response,
    run_http_server,
)
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.service.normalize import parse_request_payload
from repro.service.transport.http11 import split_host_port

#: glibc's ``mallopt`` parameter that caps the number of malloc arenas.
_M_ARENA_MAX = -8


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slade",
        description="SLADE: smart large-scale task decomposition for crowdsourcing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decompose a synthetic large-scale task")
    solve.add_argument("--solver", default="opq", choices=available_solvers())
    solve.add_argument("--dataset", default="jelly", choices=["jelly", "smic"])
    solve.add_argument("--n", type=int, default=10_000, help="number of atomic tasks")
    solve.add_argument("--threshold", type=float, default=0.9,
                       help="homogeneous reliability threshold")
    solve.add_argument("--max-cardinality", type=int, default=20,
                       help="largest task bin cardinality |B|")
    solve.add_argument("--heterogeneous", action="store_true",
                       help="draw per-task thresholds from a Normal distribution")
    solve.add_argument("--mu", type=float, default=0.9)
    solve.add_argument("--sigma", type=float, default=0.03)
    solve.add_argument("--seed", type=int, default=42)

    figure = sub.add_parser("figure", help="reproduce one of the paper's figures")
    figure.add_argument("figure_id", choices=figure_ids())
    figure.add_argument("--n", type=int, default=2_000,
                        help="number of atomic tasks for sweep-based figures")
    figure.add_argument("--seed", type=int, default=42)

    batch = sub.add_parser(
        "batch",
        help="decompose a grid of instances through the batch planning engine",
    )
    batch.add_argument("--solver", default="opq", choices=available_solvers())
    batch.add_argument("--dataset", default="jelly", choices=["jelly", "smic"])
    batch.add_argument("--n-values", default="1000",
                       help="comma-separated task counts, one instance per value")
    batch.add_argument("--thresholds", default="0.9",
                       help="comma-separated homogeneous reliability thresholds")
    batch.add_argument("--max-cardinality", type=int, default=20,
                       help="largest task bin cardinality |B|")
    batch.add_argument("--repeat", type=int, default=1,
                       help="solve the grid this many times (repeats hit the cache)")
    batch.add_argument("--no-verify", action="store_true",
                       help="skip plan feasibility verification (pure solve timing)")

    serve = sub.add_parser(
        "serve",
        help="serve solve requests as a JSON-lines loop (stdin -> stdout)",
    )
    serve.add_argument("--solver", default="opq", choices=available_solvers(),
                       help="default solver for requests that do not name one")
    serve.add_argument("--cache", default=None,
                       help="plan-cache backend spec: 'memory', 'memory:<N>', "
                            "'sqlite:<path>', 'remote://host:port', "
                            "'sharded://h1:p1,h2:p2[?replicas=R&vnodes=V]', or "
                            "'tiered:memory:<N>+<far-spec>' "
                            "(default: in-memory)")
    serve.add_argument("--input", default="-",
                       help="file of JSON-line requests ('-' reads stdin)")
    serve.add_argument("--no-plans", action="store_true",
                       help="omit plan bodies from responses (headline numbers only)")
    serve.add_argument("--no-verify", action="store_true",
                       help="skip plan feasibility verification")
    serve.add_argument("--stats", action="store_true",
                       help="print cache statistics to stderr on exit")
    serve.add_argument("--http", metavar="HOST:PORT", default=None,
                       help="serve over HTTP instead of the JSON-lines loop "
                            "(e.g. 127.0.0.1:8080; port 0 picks a free port)")
    serve.add_argument("--rate", type=float, default=None,
                       help="per-tenant sustained request rate (requests/second)")
    serve.add_argument("--burst", type=float, default=None,
                       help="per-tenant token-bucket capacity (defaults to rate)")
    serve.add_argument("--tenant-rate", action="append", default=None,
                       metavar="NAME=RATE[:BURST]",
                       help="per-tenant token-bucket override (repeatable), "
                            "e.g. --tenant-rate free=2:4 --tenant-rate "
                            "paid=200; unlisted tenants use --rate/--burst")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="per-tenant cap on concurrently admitted requests")
    serve.add_argument("--max-total-inflight", type=int, default=None,
                       help="global cap on concurrently admitted requests")
    serve.add_argument("--auth-token", default=None, metavar="TOKEN",
                       help="shared secret required on solve endpoints "
                            "('Authorization: Bearer <token>' or "
                            "'X-Auth-Token'); without it the X-Tenant "
                            "header is trusted as-is (HTTP mode only)")
    serve.add_argument("--drift-window", type=int, default=200,
                       help="sliding window of execution outcomes kept per "
                            "cardinality for drift detection (default: 200)")
    serve.add_argument("--drift-min-observations", type=int, default=30,
                       help="observations per cardinality before the drift "
                            "monitor reports (default: 30)")
    serve.add_argument("--drift-tolerance", type=float, default=0.05,
                       help="accuracy shortfall below the calibrated "
                            "confidence that counts as drift (default: 0.05)")
    serve.add_argument("--drift-tolerance-above", type=float, default=None,
                       help="tolerance for observed accuracy exceeding the "
                            "calibrated confidence (default: --drift-tolerance)")
    serve.add_argument("--drift-check-seconds", type=float, default=1.0,
                       help="interval of the background drift sweep in HTTP "
                            "mode; 0 disables it (default: 1.0)")

    cached = sub.add_parser(
        "cached",
        help="run the shared plan-cache server (TCP key-value store)",
    )
    cached.add_argument("address", metavar="HOST:PORT",
                        help="bind address (e.g. 0.0.0.0:9009; port 0 picks "
                             "a free port)")
    cached.add_argument("--max-entries", type=int, default=None,
                        help="LRU bound on stored queues (default: unbounded)")
    cached.add_argument("--persist", metavar="PATH", default=None,
                        help="back the store with a SQLite file so a "
                             "restarted server keeps its keys")
    cached.add_argument("--stats", action="store_true",
                        help="print server statistics to stderr on exit")

    profile = sub.add_parser(
        "profile",
        help="profile Algorithm 2 cold builds (cProfile, top-N cumulative)",
    )
    profile.add_argument("--dataset", default="jelly", choices=["jelly", "smic"])
    profile.add_argument("--thresholds", default="0.87,0.9,0.95,0.97,0.99",
                         help="comma-separated reliability thresholds to build")
    profile.add_argument("--max-cardinality", type=int, default=20,
                         help="largest task bin cardinality |B|")
    profile.add_argument("--core", default="numpy", choices=["python", "numpy"],
                         help="OPQ construction core (default: numpy)")
    profile.add_argument("--repeat", type=int, default=3,
                         help="build each threshold this many times")
    profile.add_argument("--top", type=int, default=15,
                         help="rows of the cumulative-time table to print")

    calibrate = sub.add_parser("calibrate", help="probe the simulated platform")
    calibrate.add_argument("--dataset", default="jelly", choices=["jelly", "smic"])
    calibrate.add_argument("--max-cardinality", type=int, default=10)
    calibrate.add_argument("--difficulty", type=int, default=2, choices=[1, 2, 3])
    calibrate.add_argument("--seed", type=int, default=7)

    lint = sub.add_parser(
        "lint",
        help="run the project's static-analysis rules (SLD001-SLD005)",
    )
    add_lint_arguments(lint)

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    bins = jelly_bin_set(args.max_cardinality) if args.dataset == "jelly" \
        else smic_bin_set(args.max_cardinality)
    if args.heterogeneous:
        thresholds = normal_thresholds(args.n, mu=args.mu, sigma=args.sigma, seed=args.seed)
        problem = SladeProblem.heterogeneous(thresholds, bins, name=f"{args.dataset}-cli")
    else:
        problem = SladeProblem.homogeneous(args.n, args.threshold, bins,
                                           name=f"{args.dataset}-cli")
    solver = create_solver(args.solver)
    result = solver.solve(problem)
    print(problem.describe())
    print(f"solver            : {result.solver}")
    print(f"total cost (USD)  : {result.total_cost:.2f}")
    print(f"bins posted       : {len(result.plan)}")
    print(f"cost per task     : {result.plan.cost_per_task(problem.task):.4f}")
    print(f"feasible          : {result.feasible}")
    print(f"solve time (s)    : {result.elapsed_seconds:.3f}")
    usage = result.plan.bin_usage()
    top = sorted(usage.items(), key=lambda kv: -kv[1])[:5]
    print("top bin usage     : " + ", ".join(f"{l}-bin x{count}" for l, count in top))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        n=args.n,
        seed=args.seed,
        solver_options={"baseline": {"chunk_size": 128}},
    )
    result = run_figure(args.figure_id, config=config)
    if isinstance(result, SweepResult):
        metric = "elapsed_seconds" if args.figure_id in {
            "fig6c", "fig6d", "fig6g", "fig6h", "fig6k", "fig6l",
            "fig7b", "fig7d", "fig8a", "fig8b",
        } else "total_cost"
        print(format_sweep_table(result, metric=metric))
    elif isinstance(result, MotivationSeries):
        print(f"{result.dataset}: worker confidence by cardinality and price")
        print(format_series(result.confidence))
    else:
        print("jelly difficulty series: confidence by cardinality and difficulty")
        print(format_series(result, series_label="difficulty"))
    return 0


def _parse_grid(raw: str, caster, flag: str) -> List:
    try:
        values = [caster(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"invalid {flag} value: {raw!r}") from None
    if not values:
        raise SystemExit(f"{flag} must name at least one value")
    return values


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        raise SystemExit(f"--repeat must be >= 1; got {args.repeat}")
    bins = jelly_bin_set(args.max_cardinality) if args.dataset == "jelly" \
        else smic_bin_set(args.max_cardinality)
    spec = BatchSpec(
        bins=bins,
        n_values=tuple(_parse_grid(args.n_values, int, "--n-values")),
        thresholds=tuple(_parse_grid(args.thresholds, float, "--thresholds")),
        name=f"{args.dataset}-batch",
        repeat=args.repeat,
    )
    planner = BatchPlanner(verify=not args.no_verify)
    batch = planner.solve_many(spec, solver=args.solver)
    stats = batch.stats

    print(f"batch              : {args.dataset}, {stats.instances} instance(s), "
          f"solver={stats.solver}")
    print(f"total cost (USD)   : {batch.total_cost:.2f}")
    print(f"all feasible       : {batch.all_feasible}")
    print(f"wall time (s)      : {stats.wall_seconds:.3f}")
    print(f"solve time (s)     : {stats.solve_seconds:.3f}")
    print(f"opq build time (s) : {stats.build_seconds:.3f}")
    print(f"cache hits/misses  : {stats.cache_hits}/{stats.cache_misses} "
          f"(hit rate {stats.cache_hit_rate:.1%})")
    print()
    print(f"{'instance':<28} {'n':>7} {'t':>6} {'cost':>10} {'time (s)':>9}")
    for item in batch:
        print(
            f"{item.problem.name:<28} {item.problem.n:>7} "
            f"{item.problem.homogeneous_threshold:>6.3f} "
            f"{item.total_cost:>10.2f} {item.elapsed_seconds:>9.4f}"
        )
    return 0


def _serve_loop(service: SladeService, stream: TextIO, include_plans: bool) -> int:
    """Answer each JSON-line request on ``stream`` with a JSON-line response.

    Lines that never become valid requests answer with the same
    :func:`repro.service.failure_response` envelope the HTTP transport
    produces, so clients see one failure shape regardless of transport.
    """
    handled = 0
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        request_id = f"line-{line_no}"
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            response = failure_response(request_id, exc)
        else:
            try:
                request = parse_request_payload(
                    payload, default_request_id=request_id
                )
            except (SladeError, KeyError, TypeError, ValueError) as exc:
                response = failure_response(request_id, exc)
            else:
                response = service.solve(request)
        print(
            json.dumps(solve_response_to_dict(response, include_plan=include_plans)),
            flush=True,
        )
        handled += 1
    return handled


def _parse_tenant_limits(raw: Optional[List[str]]) -> Optional[dict]:
    """Parse repeated ``--tenant-rate NAME=RATE[:BURST]`` flags."""
    if not raw:
        return None
    limits = {}
    for item in raw:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise SladeError(
                f"invalid --tenant-rate value {item!r}; expected NAME=RATE[:BURST]"
            )
        rate_text, _sep, burst_text = value.partition(":")
        try:
            rate = float(rate_text)
            burst = float(burst_text) if burst_text else max(1.0, rate)
        except ValueError:
            raise SladeError(
                f"invalid --tenant-rate value {item!r}; expected NAME=RATE[:BURST]"
            ) from None
        limits[name] = (rate, burst)
    return limits


def _share_one_malloc_arena() -> None:
    """Make every thread of this process allocate from glibc's main arena.

    The HTTP server runs Python on one thread at a time, so per-thread malloc
    arenas give its worker threads no parallelism.  They did make a request's
    cost depend on which worker the executor picked: a worker's own arena
    could hand the megabytes a large request frees back to the kernel and
    fault them in again on the next request, several hundred page faults per
    warm n = 3·10^4 call.  Must run before the server starts its threads; a
    no-op off glibc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _serve_http(args: argparse.Namespace) -> int:
    """Run the HTTP transport until SIGINT/SIGTERM, then drain and exit 0."""
    try:
        host, port = split_host_port(args.http)
    except ValueError as exc:
        raise SladeError(f"invalid --http value: {exc}") from exc
    _share_one_malloc_arena()
    config = ServiceConfig(
        solver=args.solver,
        verify=not args.no_verify,
        cache_backend=args.cache,
        drift_window=args.drift_window,
        drift_min_observations=args.drift_min_observations,
        drift_tolerance=args.drift_tolerance,
        drift_tolerance_above=args.drift_tolerance_above,
        drift_check_seconds=args.drift_check_seconds,
    )
    admission = AdmissionController(
        rate=args.rate,
        burst=args.burst,
        max_inflight=args.max_inflight,
        max_total_inflight=args.max_total_inflight,
        tenant_limits=_parse_tenant_limits(args.tenant_rate),
    )

    async def main() -> SladeService:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass

        def on_ready(server) -> None:
            print(f"listening on http://{server.host}:{server.port}",
                  file=sys.stderr, flush=True)

        server = await run_http_server(
            host, port,
            config=config,
            admission=admission,
            include_plans=not args.no_plans,
            auth_token=args.auth_token,
            stop=stop,
            on_ready=on_ready,
        )
        return server.service.service

    try:
        facade = asyncio.run(main())
    except OSError as exc:
        # Bind failures (port in use, privileged port) are configuration
        # errors, not crashes.
        raise SladeError(f"cannot serve on {args.http!r}: {exc}") from exc
    if args.stats:
        # Telemetry outlives the drained service (the cache backend is
        # already closed by the time the event loop returns).
        telemetry = facade.telemetry
        hits = int(telemetry.counter("cache.hits"))
        misses = int(telemetry.counter("cache.misses"))
        requests = hits + misses
        hit_rate = hits / requests if requests else 0.0
        print(
            f"served {int(telemetry.counter('service.requests'))} "
            f"request(s); cache hits/misses {hits}/{misses} "
            f"(hit rate {hit_rate:.1%}), "
            f"opq build time {telemetry.counter('cache.build_seconds'):.3f}s",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.http is not None:
        return _serve_http(args)
    if args.input == "-":
        stream = sys.stdin
    else:
        try:
            stream = open(args.input, "r")
        except OSError as exc:
            raise SladeError(f"cannot open --input file: {exc}") from exc
    config = ServiceConfig(
        solver=args.solver,
        verify=not args.no_verify,
        cache_backend=args.cache,
        drift_window=args.drift_window,
        drift_min_observations=args.drift_min_observations,
        drift_tolerance=args.drift_tolerance,
        drift_tolerance_above=args.drift_tolerance_above,
        drift_check_seconds=args.drift_check_seconds,
    )
    try:
        service = SladeService(config=config)
    except SladeError:
        if stream is not sys.stdin:
            stream.close()
        raise
    try:
        handled = _serve_loop(service, stream, include_plans=not args.no_plans)
    finally:
        if stream is not sys.stdin:
            stream.close()
        stats = service.cache_stats
        service.close()
    if args.stats:
        print(
            f"served {handled} request(s); cache hits/misses "
            f"{stats.hits}/{stats.misses} (hit rate {stats.hit_rate:.1%}), "
            f"opq build time {stats.build_seconds:.3f}s",
            file=sys.stderr,
        )
    return 0


def _cmd_cached(args: argparse.Namespace) -> int:
    """Run the shared plan-cache server until SIGINT/SIGTERM, then exit 0."""
    from repro.engine.backends.server import run_cache_server

    try:
        host, port = split_host_port(args.address)
    except ValueError as exc:
        raise SladeError(f"invalid HOST:PORT value: {exc}") from exc
    if args.max_entries is not None and args.max_entries < 1:
        raise SladeError(f"--max-entries must be positive; got {args.max_entries}")

    async def main():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass

        def on_ready(server) -> None:
            print(f"cache listening on {server.host}:{server.port}",
                  file=sys.stderr, flush=True)

        return await run_cache_server(
            host, port,
            max_entries=args.max_entries,
            persist_path=args.persist,
            stop=stop,
            on_ready=on_ready,
        )

    import sqlite3

    try:
        server = asyncio.run(main())
    except OSError as exc:
        raise SladeError(f"cannot serve on {args.address!r}: {exc}") from exc
    except sqlite3.Error as exc:
        raise SladeError(
            f"cannot open --persist file {args.persist!r}: {exc}"
        ) from exc
    if args.stats:
        stats = server.stats()
        persisted = (
            f", restored {int(stats['restored_keys'])} persisted key(s)"
            if stats["persisted"] else ""
        )
        print(
            f"served {int(stats['connections'])} connection(s); "
            f"{int(stats['keys'])} key(s), {int(stats['bytes'])} byte(s) stored; "
            f"gets {int(stats['hits'])}/{int(stats['hits'] + stats['misses'])} hit, "
            f"puts {int(stats['puts'])}, evictions {int(stats['evictions'])}, "
            f"frame errors {int(stats['frame_errors'])}{persisted}",
            file=sys.stderr,
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile Algorithm 2 cold builds and print where the time goes.

    Every build runs cold (no plan cache, no curve seeding) so the numbers
    isolate raw construction cost — the quantity the vectorized core and the
    :class:`~repro.algorithms.opq.Combination` quantity caching are meant to
    shrink.  The cProfile table is sorted by cumulative time, which surfaces
    the enumeration helpers (``residual``/``unit_cost``/``lcm``) directly
    when they are hot.
    """
    import cProfile
    import io
    import pstats
    import time

    from repro.algorithms.opq import build_optimal_priority_queue
    from repro.algorithms.opq_vec import build_optimal_priority_queue_vec

    if args.repeat < 1:
        raise SladeError(f"--repeat must be >= 1; got {args.repeat}")
    if args.top < 1:
        raise SladeError(f"--top must be >= 1; got {args.top}")
    thresholds = _parse_grid(args.thresholds, float, "--thresholds")
    bins = jelly_bin_set(args.max_cardinality) if args.dataset == "jelly" \
        else smic_bin_set(args.max_cardinality)
    build = (
        build_optimal_priority_queue_vec if args.core == "numpy"
        else build_optimal_priority_queue
    )

    profiler = cProfile.Profile()
    per_threshold = []
    for threshold in thresholds:
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            profiler.enable()
            queue = build(bins, threshold)
            profiler.disable()
            best = min(best, time.perf_counter() - start)
        per_threshold.append((threshold, best, len(queue)))

    print(f"dataset            : {args.dataset} (|B| <= {args.max_cardinality})")
    print(f"core               : {args.core}")
    print(f"repeat             : {args.repeat} (best-of shown per threshold)")
    print()
    print(f"{'threshold':>9}  {'build (ms)':>10}  {'frontier':>8}")
    total = 0.0
    for threshold, best, size in per_threshold:
        total += best
        print(f"{threshold:>9.4f}  {best * 1e3:>10.3f}  {size:>8}")
    print(f"{'total':>9}  {total * 1e3:>10.3f}")
    print()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(args.top)
    print(buffer.getvalue().rstrip())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.dataset == "jelly":
        platform = jelly_platform(difficulty=args.difficulty, seed=args.seed)
        costs = (0.05, 0.08, 0.10)
    else:
        platform = smic_platform(seed=args.seed)
        costs = (0.05, 0.10, 0.20)
    calibrator = ProbeCalibrator(platform, candidate_costs=costs, seed=args.seed)
    calibration = calibrator.calibrate(list(range(1, args.max_cardinality + 1)))
    bins = calibration.bin_set(name=f"{args.dataset}-calibrated")
    print(f"probe spend: {calibration.probe_spend:.2f} USD")
    print(f"{'cardinality':>11}  {'confidence':>10}  {'cost':>6}")
    for task_bin in bins:
        print(f"{task_bin.cardinality:>11}  {task_bin.confidence:>10.3f}  {task_bin.cost:>6.2f}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "figure": _cmd_figure,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "cached": _cmd_cached,
    "profile": _cmd_profile,
    "calibrate": _cmd_calibrate,
    "lint": run_lint_command,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library-level failures (:class:`~repro.core.errors.SladeError`
    subclasses, including serialization errors) exit with code 2 and a
    one-line stderr message instead of a traceback.
    """
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    command = _COMMANDS.get(args.command)
    if command is None:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return command(args)
    except SladeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
