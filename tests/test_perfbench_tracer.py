"""perfbench's tracer still finds, and still wraps cleanly, every layer hook.

``perfbench/traced_serve.py`` wraps the program's layer boundaries from
outside (``--trace 1``).  A rename leaves a hook missing; turning a hooked
``property`` into something else (say ``functools.cached_property``) makes
the wrapped attribute a bound method instead of a value.  Neither breaks a
plain test, so this runs the tracer's ``install()`` in a fresh interpreter
and checks both.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path.insert(0, "perfbench")
import traced_serve

from repro.algorithms.registry import create_solver
from repro.core.bins import TaskBinSet
from repro.core.problem import SladeProblem

TRIPLES = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]


def fingerprints():
    problem = SladeProblem.homogeneous(
        40, 0.95, TaskBinSet.from_triples(TRIPLES).with_epoch(2)
    )
    return problem, [problem.fingerprint, problem.task.fingerprint,
                     problem.bins.fingerprint]


_, untraced = fingerprints()
traced_serve.install()
problem, traced = fingerprints()
result = create_solver("opq").solve(problem)
print(json.dumps({
    "missing": traced_serve.RECORDER.missing,
    "untraced": untraced,
    "traced": traced,
    "traced_types": [type(value).__name__ for value in traced],
    "feasible": result.feasible,
    "recheck": result.plan.is_feasible(problem.task),
    "spans": sorted({span[0] for span in traced_serve.RECORDER.spans}),
}))
"""


def test_tracer_hooks_every_layer_and_keeps_values():
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=REPO, capture_output=True,
        text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["missing"] == []
    assert report["traced_types"] == ["str", "str", "str"]
    assert report["traced"] == report["untraced"]
    assert report["feasible"] is True
    assert report["recheck"] is True
    assert {"alg3", "fingerprint", "verify"} <= set(report["spans"])
