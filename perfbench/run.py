"""The SLADE serving benchmark: one workload, one run, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot-mix --seed 1 --seconds 18 --trace 0

The run starts ``repro serve --http`` (and, for ``fleet-churn``, a ``repro
cached`` far tier) from ``src/``, sets up several times to time set-up,
drives the named workload, checks every answer against an in-process
reference, and prints a per-workload table followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run measures half its
time untraced and half through ``traced_serve.py`` and reports the per-layer
metrics.  A wrong answer prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import itertools
import json
import os
import random
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import check
import layers
import stats
from drive import Outcome, closed_loop, open_loop, sequential
from procs import Process, start_cached, start_serve
from workloads import (
    COLD_PASS_S,
    FLEET_NEAR_ENTRIES,
    LARGE_N_CYCLE_S,
    OpenLoopMix,
    cold_menus_pass,
    fleet_churn,
    hot_mix,
    large_n_cells,
    large_n_prefill,
)

#: End-to-end metrics: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "capacity_rps": "1/s",
    "tasks_per_s": "1/s",
    "plans_per_s": "1/s",
    "server_rss_mb": "MB",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Connections (and so at most this many calls in flight) for open loops.
CONNECTIONS = 2

#: The open-loop generator counts as fallen behind when its send lateness
#: p99 exceeds this; the run is then marked invalid.
LATENESS_LIMIT_MS = 10.0

#: Share of an untraced run spent on the reported two-caller phase of
#: hot-mix and fleet-churn; the rest is split between the open-loop fixed
#: rate and the ladder.
CALLERS_SHARE = 0.7
#: Rate scale of the schedule the two callers draw their calls from: high
#: enough that they never run out.
CALLER_SCALE = 4.0
#: Open loop: length of one ladder rung, and the rate step between rungs
#: until the first failure (bisection after it).
RUNG_SECONDS = 0.8
RUNG_GROWTH = 1.5

WORK_DIR = os.path.join(".bench_build", "perfbench")


@dataclass
class Servers:
    serve: Process
    far: Optional[Process] = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self.serve.address is not None
        return self.serve.address

    def stop(self) -> None:
        self.serve.stop()
        if self.far is not None:
            self.far.stop()


@dataclass
class RunResult:
    verdict: check.Verdict = field(default_factory=check.Verdict)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    table: List[Tuple[str, str, str]] = field(default_factory=list)


# -- shared pieces ---------------------------------------------------------------


def lateness(outcomes: Sequence[Outcome]) -> Tuple[float, float]:
    """Generator send lateness: (p99, max) in ms."""
    late = sorted((o.dispatched - o.due) * 1000.0 for o in outcomes)
    if not late:
        return 0.0, 0.0
    return stats.rank_value(late, 99.0), late[-1]


def latency_summary(
    outcomes: Sequence[Outcome], table: List[Tuple[str, str, str]], label: str,
) -> Tuple[float, float]:
    """Tabulate latencies overall and per class; returns ``(p50, tail)``."""
    latencies = [o.latency_ms for o in outcomes]
    by_class: Dict[str, List[float]] = {}
    for outcome in outcomes:
        by_class.setdefault(outcome.call.cls, []).append(outcome.latency_ms)
    for cls, values in sorted(by_class.items()):
        table.append((label, f"  {cls}", f"p50 {stats.median(values):.3f} ms, "
                      f"max {max(values):.3f} ms, {len(values)} calls"))
    p50 = stats.median(latencies)
    tail_value, pct, count = stats.tail(latencies)
    table.append((label, "latency p50", f"{p50:.3f} ms"))
    table.append((label, f"latency p{pct:g} (tail)",
                  f"{tail_value:.3f} ms over {count} samples, "
                  f"max {max(latencies):.3f} ms"))
    return p50, tail_value


def record_latency(
    outcomes: Sequence[Outcome], result: RunResult, label: str, windowed: bool = False,
) -> None:
    """Report p50 and tail; ``windowed`` reports the tail of
    :func:`stats.windowed_tail` over the calls in completion order."""
    p50, tail_value = latency_summary(outcomes, result.table, label)
    if windowed:
        tail_value, pct, windows = stats.windowed_tail([o.latency_ms for o in outcomes])
        result.table.append((label, f"latency p{pct:g} (tail, windowed)",
                             f"{tail_value:.3f} ms, middle of {windows} windows "
                             f"of {stats.TAIL_WINDOW} calls"))
    result.metrics["latency_p50_ms"] = p50
    result.metrics["latency_tail_ms"] = tail_value


def throughput_metrics(outcomes: Sequence[Outcome], wall: float, result: RunResult) -> None:
    """Calls, solve items and atomic tasks answered per second."""
    answered = [o for o in outcomes if o.status == 200]
    result.metrics["capacity_rps"] = len(answered) / wall
    result.metrics["plans_per_s"] = sum(len(o.call.items) for o in answered) / wall
    result.metrics["tasks_per_s"] = sum(i.n for o in answered for i in o.call.items) / wall
    result.table.append(("callers", "calls answered", f"{len(answered)} in {wall:.3f} s"))


def setup_repeatedly(
    launch: Callable[[Optional[str]], Servers],
    prefill: Sequence,
    result: RunResult,
    count: int = SETUPS,
    trace_path: Optional[str] = None,
) -> Servers:
    """Set up ``count`` times (process start to ready, plus prefill), keep the last."""
    times = []
    servers = None
    for attempt in range(count):
        started = time.monotonic()
        servers = launch(trace_path)
        try:
            servers.serve.wait_ready()
            if prefill:
                outcomes = asyncio.run(sequential(servers.address, prefill))
                bad = [o for o in outcomes if o.status != 200]
                if bad:
                    raise RuntimeError(f"prefill failed with HTTP {bad[0].status}")
        except BaseException:
            servers.stop()
            raise
        times.append(time.monotonic() - started)
        if attempt < count - 1:
            servers.stop()
    result.metrics["setup_s"] = stats.median(times)
    result.table.append(("setup", "set-up times",
                         ", ".join(f"{t:.3f} s" for t in times)))
    assert servers is not None
    return servers


def serve_launcher(serve_args: Callable[[Optional[Process]], List[str]], far: bool):
    def launch(trace_path: Optional[str]) -> Servers:
        far_proc = None
        if far:
            far_proc = start_cached()
            far_proc.wait_ready()
        return Servers(start_serve(serve_args(far_proc), trace_path), far_proc)
    return launch


def finish(servers: Servers, result: RunResult) -> None:
    result.metrics["server_rss_mb"] = servers.serve.peak_rss_mb()
    servers.stop()


def traced_window(
    launch, prefill, drive: Callable[[Servers], Tuple[List[Outcome], float, float]],
    result: RunResult, untraced_p50: float,
) -> None:
    """Drive a traced server and turn its spans into per-layer metrics."""
    os.makedirs(WORK_DIR, exist_ok=True)
    trace_path = os.path.abspath(os.path.join(WORK_DIR, f"trace-{os.getpid()}.json"))
    servers = setup_repeatedly(launch, prefill, RunResult(), count=1,
                               trace_path=trace_path)
    try:
        servers.serve.signal(signal.SIGUSR1)
        time.sleep(0.2)
        outcomes, start, end = drive(servers)
        time.sleep(0.2)
        servers.serve.signal(signal.SIGUSR1)
        time.sleep(0.2)
    finally:
        servers.stop()
    check.judge(outcomes, result.verdict)
    sends = [(o.done - o.sent) * 1000.0 for o in outcomes]
    metrics, shares, missing = layers.analyse(
        trace_path, (start, end), len(outcomes), sum(sends) / len(sends)
    )
    os.remove(trace_path)
    traced_p50 = stats.median([o.latency_ms for o in outcomes])
    metrics["trace.overhead_ms"] = traced_p50 - untraced_p50
    if missing:
        result.notes.append("layer hooks not found: " + ", ".join(missing))
    for name, unit in layers.PER_LAYER.items():
        value = float(metrics.get(name, 0.0))
        result.metrics[name] = value
        share = f"  ({shares[name]:.1%} of a call)" if name in shares else ""
        result.table.append(("layer", name, f"{value:.4f} {unit}{share}"))
    result.table.append(("layer", "traced calls",
                         f"{len(outcomes)}, mean send-to-reply {sum(sends) / len(sends):.3f} ms"))


# -- open loop: hot-mix and fleet-churn ------------------------------------------------


def fleet_serve_args(far: Optional[Process]) -> List[str]:
    assert far is not None and far.address is not None
    host, port = far.address
    return ["--cache", f"tiered:memory:{FLEET_NEAR_ENTRIES}+sharded://{host}:{port}"]


#: Open-loop workloads: (mix, serve arguments, whether a far tier runs).
OPEN_LOOP = {
    "hot-mix": (hot_mix, lambda _far: [], False),
    "fleet-churn": (fleet_churn, fleet_serve_args, True),
}


def run_open_loop(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Two callers back to back (reported), then the open loop (table only).

    The result line's metrics come from the closed-loop phase: on a small
    virtual machine, open-loop latencies drift with the host's scheduling
    far beyond any bound a regression check can use.  Its tail is windowed
    (:func:`stats.windowed_tail`): a whole-run p90 of this phase spread up to
    30% (quartile distance over median) over ten runs on a shared host.  The
    open-loop fixed rate and ladder still run and are printed, with the
    generator's own lateness.
    """
    factory, serve_args, far = OPEN_LOOP[workload]
    mix = factory()
    result = RunResult()
    rng = random.Random(seed)
    mix.populate(rng)
    prefill = mix.prefill_calls()
    launch = serve_launcher(serve_args, far)
    callers_seconds = seconds / 2 if trace else seconds * CALLERS_SHARE
    open_seconds = (seconds - callers_seconds) / 2

    def callers(servers: Servers) -> Tuple[List[Outcome], float, float]:
        schedule = mix.schedule(rng, CALLER_SCALE, callers_seconds, "c-", paced=True)
        start = time.monotonic()
        outcomes = asyncio.run(closed_loop(
            servers.address, (call for _at, call in schedule), callers_seconds,
            CONNECTIONS,
        ))
        return outcomes, start, time.monotonic()

    servers = setup_repeatedly(launch, prefill, result, count=1 if trace else SETUPS)
    fixed: List[Outcome] = []
    ladder: List[Outcome] = []
    try:
        reported, start, end = callers(servers)
        if not trace:
            schedule = mix.schedule(rng, mix.fixed_scale, open_seconds, "f-")
            fixed = asyncio.run(open_loop(servers.address, schedule, CONNECTIONS,
                                          time.monotonic() + 0.05))
            ladder, capacity, rungs = run_ladder(mix, rng, servers, open_seconds)
        finish(servers, result)
    except BaseException:
        servers.stop()
        raise

    check.judge(reported + fixed + ladder, result.verdict)
    record_latency(reported, result, f"{CONNECTIONS} callers", windowed=True)
    wall = end - start
    throughput_metrics(reported, wall, result)
    if trace:
        traced_window(launch, prefill, callers, result, result.metrics["latency_p50_ms"])
        return result

    label = f"open {mix.base_rate * mix.fixed_scale:g}/s"
    latency_summary(fixed, result.table, label)
    late_p99, late_max = lateness(fixed)
    result.table.append((label, "generator lateness",
                         f"p99 {late_p99:.3f} ms, max {late_max:.3f} ms"))
    if late_p99 > LATENESS_LIMIT_MS:
        result.notes.append(
            f"open loop INVALID: generator fell behind (lateness p99 {late_p99:.1f} ms)"
        )
    for line in rungs:
        result.table.append(("ladder", *line))
    result.table.append(("ladder", "capacity",
                         f"{capacity:.2f} calls/s (limit {mix.limit_ms:g} ms)"))
    if result.verdict.deadline_total:
        ratio = result.verdict.deadline_met / result.verdict.deadline_total
        result.table.append(("all", "deadline_met_ratio",
                             f"{ratio:.4f} of {result.verdict.deadline_total} budgeted items"))
    return result


def run_ladder(
    mix: OpenLoopMix, rng: random.Random, servers: Servers, budget: float,
) -> Tuple[List[Outcome], float, List[Tuple[str, str]]]:
    """Step a paced rate up from the fixed rate until a rung fails, then bisect.

    A rung passes when every call succeeds, its tail latency (percentile
    chosen by sample count) is within the workload's limit, and at most one
    call per connection is still unsent when the rung's schedule ends (no
    growing backlog).  Capacity is where the tail crosses the limit,
    interpolated between the highest passing rung and the lowest failing
    rung above it; without such a failing rung it is the highest passing
    rate.  Returns ``(all outcomes, capacity, report lines)``.
    """
    passed, failed = 0.0, None
    scale = mix.fixed_scale * RUNG_GROWTH
    outcomes: List[Outcome] = []
    rungs: Dict[float, Tuple[bool, float]] = {}
    lines: List[Tuple[str, str]] = []
    deadline = time.monotonic() + budget
    for rung in itertools.count():
        if time.monotonic() + RUNG_SECONDS > deadline:
            break
        schedule = mix.schedule(rng, scale, RUNG_SECONDS, f"r{rung}-", paced=True)
        origin = time.monotonic() + 0.02
        rung_outcomes = asyncio.run(
            open_loop(servers.address, schedule, CONNECTIONS, origin)
        )
        outcomes.extend(rung_outcomes)
        ok, tail_value, detail = rung_verdict(mix, rung_outcomes, origin + RUNG_SECONDS)
        rungs[scale] = (ok, tail_value)
        lines.append((f"rung {rung} {scale * mix.base_rate:.1f} calls/s",
                      ("pass " if ok else "fail ") + detail))
        if ok:
            passed = max(passed, scale)
        else:
            failed = scale if failed is None else min(failed, scale)
        scale = scale * RUNG_GROWTH if failed is None else (passed + failed) / 2
    if not passed:
        return outcomes, 0.0, lines
    capacity = passed
    above = [s for s, (ok, _tail) in rungs.items() if not ok and s > passed]
    if above:
        fail_scale = min(above)
        tail_pass, tail_fail = rungs[passed][1], rungs[fail_scale][1]
        if tail_fail > mix.limit_ms > tail_pass:
            capacity += (fail_scale - passed) * (
                (mix.limit_ms - tail_pass) / (tail_fail - tail_pass)
            )
    return outcomes, capacity * mix.base_rate, lines


def rung_verdict(
    mix: OpenLoopMix, outcomes: Sequence[Outcome], end: float,
) -> Tuple[bool, float, str]:
    """``(passed, tail latency, detail)`` of one ladder rung."""
    if not outcomes:
        return False, float("inf"), "no calls"
    latencies = [o.latency_ms for o in outcomes]
    tail_value, pct, count = stats.tail(latencies)
    errors = sum(1 for o in outcomes if o.status != 200)
    backlog = sum(1 for o in outcomes if end and o.sent > end)
    late_p99, _late_max = lateness(outcomes)
    detail = (f"p{pct:g} {tail_value:.2f} ms / {count}, errors {errors}, "
              f"backlog {backlog}, lateness p99 {late_p99:.2f} ms")
    ok = errors == 0 and tail_value <= mix.limit_ms and backlog <= CONNECTIONS
    return ok, tail_value, detail


def unloaded(workload: str, seed: int, seconds: float) -> None:
    """Print the unloaded p50 (one call at a time) and the 4x ladder limit.

    The limits in ``workloads.py`` were fixed once from this measurement at
    the parent commit; they are not re-measured per run.
    """
    factory, serve_args, far = OPEN_LOOP[workload]
    mix = factory()
    rng = random.Random(seed)
    mix.populate(rng)
    servers = setup_repeatedly(serve_launcher(serve_args, far), mix.prefill_calls(),
                               RunResult(), count=1)
    try:
        calls = [call for _at, call in mix.schedule(rng, 1.0, seconds, "u-")]
        outcomes = asyncio.run(closed_loop(servers.address, iter(calls), seconds))
    finally:
        servers.stop()
    p50 = stats.median([o.latency_ms for o in outcomes])
    print(f"{workload}: unloaded p50 {p50:.3f} ms over {len(outcomes)} calls; "
          f"limit 4x = {4 * p50:.1f} ms")


# -- closed loop: large-n and cold-menus -------------------------------------------------


def run_closed_loop(
    seed: int, seconds: float, trace: bool,
    cycle: Callable[[random.Random, int], List], cycle_seconds: float,
    prefill: Sequence,
) -> RunResult:
    """One caller sends whole cycles of calls, back to back.

    The run measures a fixed number of cycles, as many as ``seconds`` holds
    at the workload's nominal cycle time: every run then serves the same
    mix, and a faster program finishes sooner instead of serving more.
    """
    result = RunResult()
    rng = random.Random(seed)
    launch = serve_launcher(lambda _far: [], far=False)
    cycles = max(1, round((seconds / 2 if trace else seconds) / cycle_seconds))

    def drive(servers: Servers) -> Tuple[List[Outcome], float, float]:
        start = time.monotonic()
        outcomes: List[Outcome] = []
        for index in range(cycles):
            outcomes += asyncio.run(
                closed_loop(servers.address, iter(cycle(rng, index)), float("inf"))
            )
        return outcomes, start, time.monotonic()

    servers = setup_repeatedly(launch, prefill, result, count=1 if trace else SETUPS)
    try:
        outcomes, start, end = drive(servers)
        finish(servers, result)
    except BaseException:
        servers.stop()
        raise
    check.judge(outcomes, result.verdict)
    record_latency(outcomes, result, "1 caller")
    if trace:
        traced_window(launch, prefill, drive, result, result.metrics["latency_p50_ms"])
        return result
    throughput_metrics(outcomes, end - start, result)
    return result


def large_n_run(seed: int, seconds: float, trace: bool) -> RunResult:
    cells: List = []

    def cycle(rng: random.Random, _index: int) -> List:
        if not cells:
            cells.extend(large_n_cells(rng))
        order = list(cells)
        rng.shuffle(order)
        return order

    return run_closed_loop(seed, seconds, trace, cycle, LARGE_N_CYCLE_S, large_n_prefill())


def cold_menus_run(seed: int, seconds: float, trace: bool) -> RunResult:
    return run_closed_loop(seed, seconds, trace, cold_menus_pass, COLD_PASS_S, ())


WORKLOADS = {
    "hot-mix": functools.partial(run_open_loop, "hot-mix"),
    "large-n": large_n_run,
    "cold-menus": cold_menus_run,
    "fleet-churn": functools.partial(run_open_loop, "fleet-churn"),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unloaded", action="store_true",
                        help="print an open-loop workload's unloaded p50 and "
                             "the 4x ladder limit derived from it, then exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.unloaded:
        unloaded(args.workload, args.seed, args.seconds)
        return 0

    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    started = time.monotonic()
    check.reference_check(result.verdict)
    result.table.append(("checks", "reference solves took",
                         f"{time.monotonic() - started:.3f} s"))
    verdict = result.verdict
    correct = not verdict.errors

    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}) ==")
    for section, name, value in result.table:
        print(f"  {section:<8} {name:<34} {value}")
    print(f"  {'checks':<8} {'calls attempted / failed':<34} "
          f"{verdict.attempted} / {verdict.failed}")
    print(f"  {'checks':<8} {'distinct problems verified':<34} {len(verdict.served)}")
    print(f"  {'checks':<8} {'anytime rungs served':<34} {dict(verdict.qualities)}")
    print(f"  {'checks':<8} {'refused or expired':<34} {dict(verdict.refusals)}")
    for note in result.notes:
        print(f"  NOTE {note}")
    for error in verdict.errors:
        print(f"  MISMATCH {error}")

    names = layers.PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": result.metrics[name], "unit": unit}
        for name, unit in names.items()
    }
    if not args.trace:
        for name, unit in END_TO_END.items():
            print(f"  {'metric':<8} {name:<34} {result.metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
