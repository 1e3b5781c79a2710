#!/usr/bin/env python
"""CI perfbench gate: every benchmark workload on the parent and on this tree.

For each workload ``BENCHMARK.json`` declares, runs this checkout's
``perfbench/run.py`` twice on the same machine: once with ``BASE_DIR`` (a
checkout of the parent commit) as the working directory and once with this
tree's, alternating which side runs first.  perfbench starts ``repro serve``
from its working directory's ``src/``, so both sides run identical benchmark
code against their own program.

The gate fails when either run prints no result line, or when the change
(see :func:`violations`):

* serves a plan whose cost or feasibility differs from an in-process solve
  (``"correct": false``), or fails any call;
* has a p50 or tail latency above 3x the parent's;
* has a capacity, task or plan throughput below 0.4x the parent's.

It prints one row per metric (parent, change, ratio) and writes both result
lines per workload to ``perfbench-ci.json``.  Run from the repository root::

    python scripts/ci_perfbench.py BASE_DIR
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
RUN = REPO_ROOT / "perfbench" / "run.py"
REPORT_PATH = REPO_ROOT / "perfbench-ci.json"
RUN_ARGS = ("--seed", "1", "--seconds", "6", "--trace", "0")
#: A hung server must not hold the job; a 6 s run takes about 15 s.
RUN_TIMEOUT_S = 300

#: Highest allowed change/parent ratio of each lower-is-better metric.
MAX_RATIO = {"latency_p50_ms": 3.0, "latency_tail_ms": 3.0}
#: Lowest allowed change/parent ratio of each higher-is-better metric.
MIN_RATIO = {"capacity_rps": 0.4, "tasks_per_s": 0.4, "plans_per_s": 0.4}


def ratio(parent: dict, change: dict, name: str) -> float:
    base = parent["metrics"][name]["value"]
    value = change["metrics"][name]["value"]
    return value / base if base else math.inf


def violations(parent: dict, change: dict) -> List[str]:
    """What the change's result line breaks, measured against the parent's."""
    found = []
    if change["correct"] is not True:
        found.append('"correct": false: a served plan differs from the reference')
    if change["failed"] > 0:
        found.append(f"{change['failed']} of {change['attempted']} calls failed")
    for name, bound in MAX_RATIO.items():
        value = ratio(parent, change, name)
        if value > bound:
            found.append(f"{name} is {value:.2f}x the parent's (limit {bound:g}x)")
    for name, bound in MIN_RATIO.items():
        value = ratio(parent, change, name)
        if value < bound:
            found.append(f"{name} is {value:.2f}x the parent's (limit {bound:g}x)")
    return found


def run(workload: str, cwd: Path, args: Sequence[str] = RUN_ARGS) -> Optional[dict]:
    """One perfbench run from ``cwd`` with ``args`` after the workload; its
    result line, or ``None``."""
    print(f"--- {workload} from {cwd}", flush=True)
    try:
        completed = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, *args],
            cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"  no result: timed out after {RUN_TIMEOUT_S} s")
        return None
    print(completed.stdout, end="")
    lines = [line for line in completed.stdout.splitlines() if line.startswith("{")]
    if not lines:
        print(f"  no result line (exit {completed.returncode}):\n{completed.stderr}")
        return None
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/ci_perfbench.py BASE_DIR", file=sys.stderr)
        return 2
    base_dir = Path(argv[0]).resolve()
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in declared["workloads"]]
    started = time.monotonic()
    report: Dict[str, dict] = {}
    failures: List[str] = []
    for index, workload in enumerate(workloads):
        sides = [("parent", base_dir), ("change", REPO_ROOT)]
        if index % 2:
            sides.reverse()
        docs = {side: run(workload, cwd) for side, cwd in sides}
        parent, change = docs["parent"], docs["change"]
        report[workload] = {"parent": parent, "change": change}
        if parent is None or change is None:
            failures.append(f"{workload}: a run printed no result line")
            continue
        print(f"\n{workload:<12} {'metric':<16} {'parent':>12} {'change':>12} {'ratio':>7}")
        for name, metric in change["metrics"].items():
            print(f"{workload:<12} {name:<16} {parent['metrics'][name]['value']:>12.4g} "
                  f"{metric['value']:>12.4g} {ratio(parent, change, name):>7.2f}")
        print(f"{workload:<12} correct {change['correct']}, "
              f"failed {change['failed']} of {change['attempted']}\n")
        failures += [f"{workload}: {finding}" for finding in violations(parent, change)]
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"perfbench gate: {len(workloads)} workloads, {len(failures)} failures, "
          f"{time.monotonic() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
