#!/usr/bin/env python
"""CI perf-trajectory gate: replay the pinned profile, compare, (record).

Boots the production-shaped deployment the trajectory measures — **three**
``repro cached`` shards behind one ``repro serve --http`` host with
``--cache sharded://a,b,c?replicas=2`` — then replays the pinned
``ci-short-v2`` workload (the classic ``ci-short`` mix plus a
mixed-deadline class) through the real ``repro loadtest`` CLI and distils
the report into a :mod:`repro.loadgen.trajectory` entry.

The fresh entry is gated against the **last committed entry for the same
profile** of ``BENCH_trajectory.json`` with the wide default tolerances
(overridable via
``SLADE_TRAJ_*`` environment variables, below): CI fails on an absolute
regression — throughput collapse, latency blow-up, or a non-zero error
budget — that the per-PR ratio benchmarks cannot see.  With ``--record``
the fresh entry is appended to the trajectory file so the PR commits its
own point on the curve.

Artifacts: the full loadtest report is written to ``loadtest-report.json``
(``$SLADE_LOADTEST_REPORT`` overrides) for CI upload.

Run from the repository root::

    python scripts/ci_perf_trajectory.py [--record] [--label "PR 7"]

Environment knobs (all optional):

* ``SLADE_TRAJ_MIN_THROUGHPUT_RATIO`` (default 0.4)
* ``SLADE_TRAJ_MAX_LATENCY_RATIO`` (default 3.0)
* ``SLADE_TRAJ_LATENCY_FLOOR`` seconds (default 0.25)
* ``SLADE_TRAJ_MAX_ERROR_BUDGET`` (default 0.01)
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
USING_SRC_TREE = importlib.util.find_spec("repro") is None
if USING_SRC_TREE:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.loadgen.trajectory import (  # noqa: E402
    DEFAULT_LATENCY_FLOOR_SECONDS,
    DEFAULT_MAX_ERROR_BUDGET,
    DEFAULT_MAX_LATENCY_RATIO,
    DEFAULT_MIN_THROUGHPUT_RATIO,
    TRAJECTORY_FILENAME,
    append_entry,
    entry_from_report,
    gate_entry,
    load_trajectory,
)

STARTUP_TIMEOUT = 60
SHUTDOWN_TIMEOUT = 30
LOADTEST_TIMEOUT = 300
REPORT_PATH = Path(os.environ.get("SLADE_LOADTEST_REPORT", "loadtest-report.json"))
TRAJECTORY_PATH = REPO_ROOT / TRAJECTORY_FILENAME
PROFILE = "ci-short-v2"

_checks = 0


def check(condition: bool, label: str) -> None:
    global _checks
    _checks += 1
    if condition:
        print(f"  ok: {label}")
    else:
        print(f"  FAIL: {label}", file=sys.stderr)
        raise SystemExit(1)


def env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


def child_env() -> dict:
    env = dict(os.environ)
    if USING_SRC_TREE:
        env["PYTHONPATH"] = (
            f"{REPO_ROOT / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
        )
    return env


class Subprocess:
    """One banner-printing repro subprocess with clean-shutdown checks."""

    def __init__(self, label: str, args: list, banner_prefix: str) -> None:
        self.label = label
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: lines.put(self.proc.stderr.readline()), daemon=True
        )
        reader.start()
        try:
            line = lines.get(timeout=STARTUP_TIMEOUT).strip()
        except queue.Empty:
            self.proc.kill()
            self.proc.communicate()
            raise SystemExit(
                f"{label} printed nothing within {STARTUP_TIMEOUT}s"
            ) from None
        if not line.startswith(banner_prefix):
            out, err = self.proc.communicate(timeout=10)
            raise SystemExit(
                f"{label} failed to start: {line!r}\nstdout: {out}\nstderr: {err}"
            )
        self.address = line.rsplit(" ", 1)[1]
        print(f"{label} up at {self.address} (pid {self.proc.pid})")

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            _out, err = self.proc.communicate(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            check(False, f"{self.label} drained within the shutdown timeout")
            return
        check(
            self.proc.returncode == 0,
            f"{self.label} exited 0 on SIGTERM "
            f"(got {self.proc.returncode}): {err.strip()!r}",
        )

    def kill_if_alive(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def run_loadtest(address: str) -> dict:
    """Replay the pinned profile via the real CLI; return the report doc."""
    REPORT_PATH.unlink(missing_ok=True)
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "loadtest",
            "--url", address,
            "--profile", PROFILE,
            "--output", str(REPORT_PATH),
        ],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=LOADTEST_TIMEOUT,
    )
    sys.stdout.write(completed.stdout)
    check(
        completed.returncode == 0,
        f"repro loadtest exited 0 (got {completed.returncode}): "
        f"{completed.stderr.strip()[-500:]!r}",
    )
    check(REPORT_PATH.exists(), f"loadtest wrote its report to {REPORT_PATH}")
    return json.loads(REPORT_PATH.read_text())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--record", action="store_true",
        help=f"append the fresh entry to {TRAJECTORY_FILENAME}",
    )
    parser.add_argument(
        "--label", default=os.environ.get("SLADE_TRAJ_LABEL"),
        help="name the change being measured (recorded in the entry)",
    )
    args = parser.parse_args()

    print("[1/4] boot the three-shard cache ring")
    shards = [
        Subprocess(f"shard-{index}", ["cached", "127.0.0.1:0"],
                   "cache listening on ")
        for index in range(3)
    ]
    spec = "sharded://" + ",".join(s.address for s in shards) + "?replicas=2"
    report = None
    try:
        print("\n[2/4] boot the serve host against the ring")
        host = Subprocess(
            "serve-host",
            ["serve", "--http", "127.0.0.1:0", "--cache", spec],
            "listening on ",
        )
        try:
            print(f"\n[3/4] replay the pinned {PROFILE!r} profile open-loop")
            report = run_loadtest(host.address)
            host.stop()
        finally:
            host.kill_if_alive()
        for shard in shards:
            shard.stop()
    finally:
        for shard in shards:
            shard.kill_if_alive()

    print("\n[4/4] gate the fresh entry against the committed trajectory")
    fresh = entry_from_report(report, label=args.label)
    check(fresh["requests"] > 0, "the replay scheduled at least one request")
    overall = report["overall"]
    check(overall.get("infeasible", 0) == 0,
          "no served plan failed its reliability threshold")
    deadline = overall.get("deadline", {})
    check(deadline.get("requests", 0) > 0,
          "the mix exercised the deadline class")
    print(
        f"  deadline: {deadline.get('met', 0)} met / "
        f"{deadline.get('missed', 0)} missed / "
        f"{deadline.get('expired', 0)} expired / "
        f"{deadline.get('degraded', 0)} best-so-far "
        f"(hit rate {deadline.get('hit_rate', 0.0):.1%})"
    )
    # Entries from retired profiles measure a different offered load; gate
    # only against our own profile's curve (a profile bump re-seeds it).
    history = [
        entry for entry in load_trajectory(TRAJECTORY_PATH)
        if entry.get("profile") == PROFILE
    ]
    if history:
        baseline = history[-1]
        violations = gate_entry(
            fresh,
            baseline,
            min_throughput_ratio=env_float(
                "SLADE_TRAJ_MIN_THROUGHPUT_RATIO", DEFAULT_MIN_THROUGHPUT_RATIO
            ),
            max_latency_ratio=env_float(
                "SLADE_TRAJ_MAX_LATENCY_RATIO", DEFAULT_MAX_LATENCY_RATIO
            ),
            latency_floor_seconds=env_float(
                "SLADE_TRAJ_LATENCY_FLOOR", DEFAULT_LATENCY_FLOOR_SECONDS
            ),
            max_error_budget=env_float(
                "SLADE_TRAJ_MAX_ERROR_BUDGET", DEFAULT_MAX_ERROR_BUDGET
            ),
        )
        for violation in violations:
            print(f"  REGRESSION: {violation}", file=sys.stderr)
        check(not violations, "no absolute regression against "
              f"{baseline.get('label') or baseline.get('git_sha', '?')[:12]}")
        print(
            f"  baseline {baseline['throughput_rps']:.1f} rps "
            f"p99 {baseline['latency_seconds']['p99'] * 1000:.1f}ms -> "
            f"fresh {fresh['throughput_rps']:.1f} rps "
            f"p99 {fresh['latency_seconds']['p99'] * 1000:.1f}ms"
        )
    else:
        # First run ever: nothing to gate against, but the error budget
        # ceiling still applies — a broken deployment must not seed the file.
        budget = fresh["error_budget"]
        ceiling = env_float("SLADE_TRAJ_MAX_ERROR_BUDGET", DEFAULT_MAX_ERROR_BUDGET)
        check(budget <= ceiling,
              f"first-entry error budget {budget:.2%} under {ceiling:.2%}")
        print("  no committed baseline yet; gate limited to the error budget")

    if args.record:
        entries = append_entry(TRAJECTORY_PATH, fresh)
        print(f"  recorded entry {len(entries)} in {TRAJECTORY_PATH.name}")
    print(f"\nperf trajectory: all {_checks} checks passed")


if __name__ == "__main__":
    main()
