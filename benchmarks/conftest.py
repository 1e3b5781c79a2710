"""Shared fixtures and helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures.  Two scale
profiles are supported:

* the default profile keeps task counts small enough that the whole suite runs
  in a few minutes on a laptop while preserving every qualitative trend;
* setting ``SLADE_BENCH_FULL=1`` switches to the paper's instance sizes
  (n up to 100,000), which takes considerably longer — use it when producing
  the numbers recorded in ``EXPERIMENTS.md`` at full scale.

The helpers also print the regenerated series as plain-text tables so a
benchmark run doubles as a figure reproduction run.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Sequence

import pytest

from repro.experiments.config import ExperimentConfig

#: When set, benchmarks append their headline numbers to this JSON file so
#: CI can upload them as a per-commit artifact.
RESULTS_ENV = "SLADE_BENCH_RESULTS"

#: Full-scale mode reproduces the paper's axis ranges.
FULL_SCALE = os.environ.get("SLADE_BENCH_FULL", "0") == "1"

#: Default number of atomic tasks for sweep benchmarks.
BENCH_N = int(os.environ.get("SLADE_BENCH_N", "10000" if FULL_SCALE else "2000"))

#: Task counts used by the scalability benchmarks (Figures 6i-l and 8a-b).
SCALE_GRID: Sequence[int] = (
    (1_000, 5_000, 10_000, 30_000, 50_000, 100_000)
    if FULL_SCALE
    else (500, 1_000, 2_000, 5_000)
)

#: Reliability thresholds of Figures 6a-d.
THRESHOLD_GRID: Sequence[float] = (0.87, 0.9, 0.92, 0.95, 0.97)

#: Maximum cardinalities of Figures 6e-h.
CARDINALITY_GRID: Sequence[int] = (
    tuple(range(1, 21)) if FULL_SCALE else (1, 2, 4, 6, 8, 10, 14, 20)
)

#: Sigma / mu grids of Figures 7a-d.
SIGMA_GRID: Sequence[float] = (0.01, 0.02, 0.03, 0.04, 0.05)
MU_GRID: Sequence[float] = (0.87, 0.9, 0.92, 0.95, 0.97)

#: Baseline chunk size (smaller in quick mode to keep LP solves snappy).
BASELINE_OPTIONS: Dict[str, object] = {
    "chunk_size": 256 if FULL_SCALE else 128,
    "seed": 0,
}


def bench_config(dataset: str, n: int = None) -> ExperimentConfig:
    """An :class:`ExperimentConfig` for benchmarks at the current scale."""
    return ExperimentConfig(
        dataset=dataset,
        n=n or BENCH_N,
        solver_options={"baseline": dict(BASELINE_OPTIONS)},
    )


@pytest.fixture(scope="session")
def jelly_config() -> ExperimentConfig:
    """Benchmark configuration on the Jelly dataset."""
    return bench_config("jelly")


@pytest.fixture(scope="session")
def smic_config() -> ExperimentConfig:
    """Benchmark configuration on the SMIC dataset."""
    return bench_config("smic")


def report(title: str, text: str) -> None:
    """Print a regenerated figure table under a clear banner."""
    print()
    print("#" * 72)
    print(f"# {title}")
    print("#" * 72)
    print(text)


def record_result(benchmark: str, **metrics) -> None:
    """Append one benchmark's headline numbers to ``$SLADE_BENCH_RESULTS``.

    A no-op when the environment variable is unset, so local runs stay
    side-effect free.  The file is a JSON list of flat records
    (``{"benchmark": ..., "recorded_at": ..., "git_sha": ..., metric: value,
    ...}``); every record carries its wall-clock timestamp and commit SHA so
    a number in a CI artifact is attributable to the change that produced
    it.  Benchmarks within one pytest process run sequentially, so
    read-modify-write is safe.
    """
    path_text = os.environ.get(RESULTS_ENV)
    if not path_text:
        return
    path = Path(path_text)
    records = json.loads(path.read_text()) if path.exists() else []
    records.append({
        "benchmark": benchmark,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git_sha(),
        **metrics,
    })
    path.write_text(json.dumps(records, indent=2) + "\n")


def _git_sha() -> str:
    """The commit being measured: ``$GITHUB_SHA`` in CI, else ``git rev-parse``."""
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"
