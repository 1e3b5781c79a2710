"""The committed performance trajectory and its regression gate.

Per-PR ratio benchmarks (≥3x warm-vs-cold, ≥5x shared-menu) catch *relative*
regressions but let absolute performance drift: a PR that doubles both cold
and warm latency sails through every ratio gate.  The trajectory closes that
hole.  ``BENCH_trajectory.json`` is a committed, append-only list of
entries — one per PR — each recording the absolute throughput, p50/p99/p999
latency, and error/rejection budgets of the pinned ``ci-short`` profile
replayed against a live HTTP + 3-shard fleet
(``scripts/ci_perf_trajectory.py``).  CI replays the same profile and fails
when the fresh run regresses beyond a tolerance band against the last
committed entry.

Tolerances are deliberately wide (shared CI runners are noisy): the gate is
a tripwire for order-of-magnitude regressions — an accidentally quadratic
hot path, a lost cache tier — not a microbenchmark.  Every entry carries its
wall-clock timestamp and git SHA (:func:`git_sha`) so a regression can be
attributed to the PR that recorded it.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.errors import SladeError

#: The committed trajectory file, relative to the repository root.
TRAJECTORY_FILENAME = "BENCH_trajectory.json"

#: Default tolerance band for :func:`gate_entry` — wide on purpose.
DEFAULT_MIN_THROUGHPUT_RATIO = 0.4   #: fresh rps >= 40% of baseline rps
DEFAULT_MAX_LATENCY_RATIO = 3.0      #: fresh pXX <= 3x baseline pXX ...
DEFAULT_LATENCY_FLOOR_SECONDS = 0.25  #: ... or under this absolute floor
DEFAULT_MAX_ERROR_BUDGET = 0.01      #: fresh error budget <= 1% absolute


class TrajectoryError(SladeError):
    """A malformed trajectory file or entry."""


def utc_now_iso() -> str:
    """The wall-clock timestamp format every trajectory record uses."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def git_sha(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The commit being measured: ``$GITHUB_SHA`` in CI, else ``git rev-parse``.

    Returns ``None`` outside a git checkout so callers can record
    ``"unknown"`` rather than fail — attribution is best effort.
    """
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def _class_metrics(class_report: Dict[str, Any]) -> Dict[str, Any]:
    latency = class_report.get("latency_seconds", {})
    return {
        "throughput_rps": class_report.get("throughput_rps", 0.0),
        "p50": latency.get("p50", 0.0),
        "p99": latency.get("p99", 0.0),
        "p999": latency.get("p999", 0.0),
        "error_budget": class_report.get("error_budget", 0.0),
        "rejection_budget": class_report.get("rejection_budget", 0.0),
    }


def entry_from_report(
    report: Dict[str, Any],
    label: Optional[str] = None,
    recorded_at: Optional[str] = None,
    sha: Optional[str] = None,
) -> Dict[str, Any]:
    """Distil one ``loadtest_report`` document into a trajectory entry.

    ``label`` names the change being recorded (e.g. ``"PR 6"``);
    ``recorded_at``/``sha`` default to now and the current checkout.
    The entry's ``opq_core`` records which Algorithm 2 construction core
    served the run — ``numpy`` when it imports here, else ``python`` — since
    trajectory numbers from different cores are not comparable, and the
    gate script warns when they are mixed.
    """
    from repro.algorithms.opq_vec import NUMPY_AVAILABLE
    if report.get("kind") != "loadtest_report":
        raise TrajectoryError(
            f"expected a loadtest_report document; got kind={report.get('kind')!r}"
        )
    overall = report.get("overall", {})
    entry: Dict[str, Any] = {
        "kind": "perf_trajectory_entry",
        "version": 1,
        "recorded_at": recorded_at or utc_now_iso(),
        "git_sha": sha or git_sha() or "unknown",
        "label": label,
        "opq_core": "numpy" if NUMPY_AVAILABLE else "python",
        "profile": report.get("profile"),
        "seed": report.get("seed"),
        "requests": report.get("scheduled", 0),
        "wall_seconds": report.get("wall_seconds", 0.0),
        "throughput_rps": overall.get("throughput_rps", 0.0),
        "latency_seconds": {
            "p50": overall.get("latency_seconds", {}).get("p50", 0.0),
            "p99": overall.get("latency_seconds", {}).get("p99", 0.0),
            "p999": overall.get("latency_seconds", {}).get("p999", 0.0),
            "max": overall.get("latency_seconds", {}).get("max", 0.0),
        },
        "error_budget": overall.get("error_budget", 0.0),
        "rejection_budget": overall.get("rejection_budget", 0.0),
        "warm_rate": overall.get("warm_rate", 0.0),
        "classes": {
            name: _class_metrics(class_report)
            for name, class_report in sorted(report.get("classes", {}).items())
        },
    }
    return entry


def load_trajectory(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read the committed trajectory (an empty list when the file is absent)."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        entries = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TrajectoryError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise TrajectoryError(f"{path} must hold a JSON list of entries")
    return entries


def append_entry(path: Union[str, Path], entry: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Append one entry to the trajectory file; returns the new history."""
    entries = load_trajectory(path)
    entries.append(entry)
    Path(path).write_text(json.dumps(entries, indent=2) + "\n")
    return entries


def gate_entry(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    min_throughput_ratio: float = DEFAULT_MIN_THROUGHPUT_RATIO,
    max_latency_ratio: float = DEFAULT_MAX_LATENCY_RATIO,
    latency_floor_seconds: float = DEFAULT_LATENCY_FLOOR_SECONDS,
    max_error_budget: float = DEFAULT_MAX_ERROR_BUDGET,
) -> List[str]:
    """Compare a fresh entry to the committed baseline; return violations.

    An empty list means the gate passes.  Checks, in SLO order:

    * the error budget is absolute — it must stay under
      ``max_error_budget`` regardless of what the baseline tolerated;
    * overall throughput must reach ``min_throughput_ratio`` of baseline;
    * each overall latency quantile (p50/p99/p999) must stay under
      ``max_latency_ratio`` times its baseline, with an absolute floor of
      ``latency_floor_seconds`` so microsecond baselines cannot flake the
      gate on scheduler jitter.
    """
    violations: List[str] = []
    if fresh.get("profile") != baseline.get("profile"):
        violations.append(
            f"profile mismatch: fresh ran {fresh.get('profile')!r} but the "
            f"baseline recorded {baseline.get('profile')!r}"
        )
        return violations

    error_budget = fresh.get("error_budget", 0.0)
    if error_budget > max_error_budget:
        violations.append(
            f"error budget {error_budget:.2%} exceeds the "
            f"{max_error_budget:.2%} ceiling"
        )

    base_rps = baseline.get("throughput_rps", 0.0)
    fresh_rps = fresh.get("throughput_rps", 0.0)
    if base_rps > 0 and fresh_rps < base_rps * min_throughput_ratio:
        violations.append(
            f"throughput {fresh_rps:.1f} rps fell below "
            f"{min_throughput_ratio:.0%} of the baseline {base_rps:.1f} rps"
        )

    base_latency = baseline.get("latency_seconds", {})
    fresh_latency = fresh.get("latency_seconds", {})
    for quantile in ("p50", "p99", "p999"):
        allowed = max(
            base_latency.get(quantile, 0.0) * max_latency_ratio,
            latency_floor_seconds,
        )
        observed = fresh_latency.get(quantile, 0.0)
        if observed > allowed:
            violations.append(
                f"{quantile} {observed * 1000:.1f}ms exceeds the allowed "
                f"{allowed * 1000:.1f}ms (baseline "
                f"{base_latency.get(quantile, 0.0) * 1000:.1f}ms x "
                f"{max_latency_ratio:g}, floor "
                f"{latency_floor_seconds * 1000:.0f}ms)"
            )
    return violations
