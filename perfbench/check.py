"""Judge every answer the server gave against an in-process reference.

Each call must come back 200 with ``ok`` and ``feasible`` set for every item.
Each distinct problem served is then solved in this process with
``create_solver(solver).solve(problem)``, and every served ``total_cost`` and
``feasible`` must equal the reference.  An anytime answer that reports a
degraded rung (``refined`` or ``greedy``) only has to be feasible.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from drive import Outcome
from procs import program_env
from workloads import MENUS

DEGRADED = ("refined", "greedy")

#: Statuses and error types that are failures but not wrong answers:
#: admission refusals and deadlines that expired before solving.
EXPECTED_REFUSALS = (429, 503)
EXPECTED_ERRORS = ("DeadlineExceededError", "RateLimitedError", "OverloadedError")

#: Distinct problems from which the reference solves run on a process pool.
POOL_THRESHOLD = 40


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    #: Served answers per distinct problem: key -> [(cost, feasible, quality)].
    served: Dict[str, List[Tuple[float, bool, str]]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: Deadline bookkeeping over budgeted items: (met, total).
    deadline_met: int = 0
    deadline_total: int = 0
    qualities: Dict[str, int] = field(default_factory=dict)
    #: Expected failures (admission refusals, expired deadlines) by kind.
    refusals: Dict[str, int] = field(default_factory=dict)

    def refuse(self, kind: str) -> None:
        self.refusals[kind] = self.refusals.get(kind, 0) + 1

    def note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def judge(outcomes: List[Outcome], verdict: Verdict) -> List[bool]:
    """Record each outcome in ``verdict``; returns per-outcome success."""
    flags = []
    for outcome in outcomes:
        verdict.attempted += 1
        good = _judge_one(outcome, verdict)
        if not good:
            verdict.failed += 1
        flags.append(good)
    return flags


def _judge_one(outcome: Outcome, verdict: Verdict) -> bool:
    """Whether the call succeeded; anything unexpected is a mismatch."""
    call = outcome.call
    first = call.items[0].rid
    if outcome.status in EXPECTED_REFUSALS:
        verdict.refuse(f"HTTP {outcome.status}")
        return False
    if outcome.status != 200:
        verdict.note(f"{call.cls} {first}: unexpected HTTP {outcome.status}")
        return False
    try:
        payload = json.loads(outcome.body)
    except ValueError:
        verdict.note(f"{call.cls} {first}: unparsable body")
        return False
    answers = payload["responses"] if call.path.startswith("/v2/solve/batch") else [payload]
    if len(answers) != len(call.items):
        verdict.note(f"{call.cls} {first}: {len(answers)} answers for "
                     f"{len(call.items)} items")
        return False
    good = True
    for item, answer in zip(call.items, answers):
        error = answer.get("error") or {}
        if not answer.get("ok"):
            if error.get("type") in EXPECTED_ERRORS:
                verdict.refuse(error["type"])
            else:
                verdict.note(f"{item.rid}: unexpected failure {error}")
            good = False
            continue
        if answer.get("feasible") is not True:
            verdict.note(f"{item.rid}: infeasible plan served")
            good = False
            continue
        quality = (answer.get("provenance") or {}).get("quality") or "optimal"
        verdict.qualities[quality] = verdict.qualities.get(quality, 0) + 1
        verdict.served.setdefault(item.key, []).append(
            (float(answer["total_cost"]), True, quality)
        )
        if item.deadline_ms is not None:
            verdict.deadline_total += 1
            if outcome.latency_ms <= item.deadline_ms:
                verdict.deadline_met += 1
    return good


def reference_cost(key: str) -> Tuple[float, bool]:
    """``(total_cost, feasible)`` of ``create_solver(solver).solve(problem)``."""
    from repro.algorithms.registry import create_solver
    from repro.core.bins import TaskBinSet
    from repro.core.problem import SladeProblem

    spec = json.loads(key)
    bins = TaskBinSet.from_triples([tuple(t) for t in MENUS[spec["menu"]]])
    if "thresholds" in spec:
        problem = SladeProblem.heterogeneous(spec["thresholds"], bins)
    else:
        problem = SladeProblem.homogeneous(spec["n"], spec["threshold"], bins)
    result = create_solver(spec.get("solver") or "opq").solve(problem)
    return result.total_cost, result.feasible


def reference_check(verdict: Verdict, workers: int = 2) -> None:
    """Solve each distinct served problem in-process and compare.

    Runs after the servers have stopped.  With many problems the solves are
    split over ``workers`` child processes (this file run as a script, keys
    in on stdin, answers out on stdout) to use both cores.
    """
    keys = list(verdict.served)
    if len(keys) >= POOL_THRESHOLD and workers > 1:
        shards = [keys[index::workers] for index in range(workers)]
        children = [
            subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             env=program_env())
            for _ in shards
        ]
        for child, shard in zip(children, shards):
            assert child.stdin is not None
            child.stdin.write("\n".join(shard).encode() + b"\n")
            child.stdin.close()
        answers = {}
        for child, shard in zip(children, shards):
            assert child.stdout is not None
            lines = child.stdout.read().decode().splitlines()
            if child.wait() != 0 or len(lines) != len(shard):
                raise RuntimeError("a reference worker failed")
            answers.update(zip(shard, (tuple(json.loads(line)) for line in lines)))
        references = [answers[key] for key in keys]
    else:
        references = [reference_cost(key) for key in keys]
    for key, (expected, feasible) in zip(keys, references):
        if not feasible:
            verdict.note(f"reference plan infeasible for {key[:80]}")
        for cost, served_feasible, quality in verdict.served[key]:
            if served_feasible != feasible:
                verdict.note(f"feasible {served_feasible} != reference {feasible}")
            elif quality in DEGRADED:
                continue
            elif not math.isclose(cost, expected, rel_tol=1e-9, abs_tol=1e-9):
                verdict.note(
                    f"total_cost {cost!r} != reference {expected!r} for {key[:80]}"
                )


if __name__ == "__main__":
    # Read every key before answering, so the parent can finish writing to
    # all workers before it reads any of them.
    for key in sys.stdin.read().splitlines():
        if key:
            print(json.dumps(reference_cost(key)))
