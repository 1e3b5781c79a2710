"""JSON serialisation of bin sets, problems and decomposition plans.

The format is deliberately boring: versioned, flat dictionaries with explicit
field names, so files survive library upgrades and can be produced or consumed
by other tooling (spreadsheets, platform uploaders).  Every ``*_from_dict``
function validates through the normal constructors, so a hand-edited file that
violates the model's invariants fails loudly rather than producing a silently
broken plan.

Wire-shape versioning (solve requests/responses only): writers emit
``schema_version`` 2 (and mirror it into the legacy ``version`` field);
readers follow tolerant-reader rules — ``schema_version`` is preferred,
``version`` accepted as a fallback, and both 1 and 2 parse.  Requests are
strict about *field names* (an unknown top-level key is a validation error,
catching client typos like ``dead_line_ms`` before they silently lose a
budget) while responses stay lenient (unknown fields are ignored, so an old
client can read a new server's answer).  File kinds (bin sets, problems,
plans) are unchanged at format version 1.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.bins import TaskBin, TaskBinSet
from repro.core.errors import SladeError
from repro.core.plan import DecompositionPlan
from repro.core.problem import SladeProblem
from repro.core.task import AtomicTask, CrowdsourcingTask
from repro.service.api import (
    ErrorEnvelope,
    Provenance,
    RequestValidationError,
    SolveRequest,
    SolveResponse,
)

#: Format version written into every file; bumped on incompatible changes.
FORMAT_VERSION = 1

#: Wire-shape version for solve requests/responses (the service surface).
SCHEMA_VERSION = 2

#: Wire-shape versions the tolerant reader accepts.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: Top-level keys a solve request may carry; anything else is rejected.
REQUEST_FIELDS = frozenset({
    "kind", "version", "schema_version",
    "request_id", "solver", "verify", "tenant", "options", "deadline_ms",
    "problem", "bins", "n", "threshold", "thresholds", "name",
})

PathLike = Union[str, Path]


class SerializationError(SladeError):
    """A file or dictionary does not contain what it claims to contain."""


def _check_kind(payload: Dict, expected: str) -> None:
    if not isinstance(payload, dict):
        raise SerializationError(f"expected a mapping, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind != expected:
        raise SerializationError(f"expected kind {expected!r}, got {kind!r}")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version!r} (this library writes "
            f"version {FORMAT_VERSION})"
        )


def _check_wire_kind(payload: Dict, expected: str) -> int:
    """Validate kind + schema version for a wire shape; return the version.

    Tolerant-reader rules: ``schema_version`` wins when present, the legacy
    ``version`` field is the fallback, and a payload carrying neither is
    treated as version 1 (pre-versioning clients).
    """
    if not isinstance(payload, dict):
        raise SerializationError(f"expected a mapping, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind != expected:
        raise SerializationError(f"expected kind {expected!r}, got {kind!r}")
    version = payload.get("schema_version", payload.get("version", 1))
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SerializationError(
            f"unsupported schema version {version!r} (this library speaks "
            f"versions {', '.join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)})"
        )
    return int(version)


# -- task bin sets ---------------------------------------------------------------


def bin_set_to_dict(bins: TaskBinSet) -> Dict:
    """Serialise a task bin set to a JSON-compatible dictionary."""
    payload: Dict = {
        "kind": "task_bin_set",
        "version": FORMAT_VERSION,
        "name": bins.name,
        "bins": [
            {
                "cardinality": task_bin.cardinality,
                "confidence": task_bin.confidence,
                "cost": task_bin.cost,
            }
            for task_bin in bins
        ],
    }
    # Epoch 0 is omitted so pre-epoch files stay byte-identical.
    if bins.calibration_epoch:
        payload["calibration_epoch"] = bins.calibration_epoch
    return payload


def bin_set_from_dict(payload: Dict) -> TaskBinSet:
    """Reconstruct a task bin set from :func:`bin_set_to_dict` output."""
    _check_kind(payload, "task_bin_set")
    bins = [
        TaskBin(entry["cardinality"], entry["confidence"], entry["cost"])
        for entry in payload.get("bins", [])
    ]
    return TaskBinSet(
        bins,
        name=payload.get("name", "bins"),
        calibration_epoch=int(payload.get("calibration_epoch", 0)),
    )


def save_bin_set(bins: TaskBinSet, path: PathLike) -> None:
    """Write a task bin set to a JSON file."""
    Path(path).write_text(json.dumps(bin_set_to_dict(bins), indent=2))


def load_bin_set(path: PathLike) -> TaskBinSet:
    """Read a task bin set from a JSON file."""
    return bin_set_from_dict(json.loads(Path(path).read_text()))


# -- problems ----------------------------------------------------------------------


def problem_to_dict(problem: SladeProblem) -> Dict:
    """Serialise a SLADE problem (task + bins) to a dictionary.

    Task payloads are preserved as-is; they must therefore be JSON-compatible
    (the built-in workload generators only store booleans).
    """
    return {
        "kind": "slade_problem",
        "version": FORMAT_VERSION,
        "name": problem.name,
        "task_name": problem.task.name,
        "bins": bin_set_to_dict(problem.bins),
        "tasks": [
            {
                "task_id": atomic.task_id,
                "threshold": atomic.threshold,
                "payload": dict(atomic.payload),
            }
            for atomic in problem.task
        ],
    }


def problem_from_dict(payload: Dict) -> SladeProblem:
    """Reconstruct a SLADE problem from :func:`problem_to_dict` output."""
    _check_kind(payload, "slade_problem")
    bins = bin_set_from_dict(payload["bins"])
    tasks = [
        AtomicTask(entry["task_id"], entry["threshold"], entry.get("payload", {}))
        for entry in payload.get("tasks", [])
    ]
    task = CrowdsourcingTask(tasks, name=payload.get("task_name", "task"))
    return SladeProblem(task, bins, name=payload.get("name", "slade"))


def save_problem(problem: SladeProblem, path: PathLike) -> None:
    """Write a SLADE problem to a JSON file."""
    Path(path).write_text(json.dumps(problem_to_dict(problem), indent=2))


def load_problem(path: PathLike) -> SladeProblem:
    """Read a SLADE problem from a JSON file."""
    return problem_from_dict(json.loads(Path(path).read_text()))


# -- plans --------------------------------------------------------------------------


def plan_to_dict(plan: DecompositionPlan) -> Dict:
    """Serialise a decomposition plan to a dictionary.

    Each posting records the bin it uses (cardinality, confidence, cost) and
    the atomic tasks packed into it, so a plan file is self-contained: it can
    be priced and executed without the original bin set object.
    """
    return {
        "kind": "decomposition_plan",
        "version": FORMAT_VERSION,
        "solver": plan.solver,
        "total_cost": plan.total_cost,
        "assignments": [
            {
                "cardinality": assignment.task_bin.cardinality,
                "confidence": assignment.task_bin.confidence,
                "cost": assignment.task_bin.cost,
                "task_ids": list(assignment.task_ids),
            }
            for assignment in plan
        ],
    }


def plan_from_dict(payload: Dict) -> DecompositionPlan:
    """Reconstruct a decomposition plan from :func:`plan_to_dict` output."""
    _check_kind(payload, "decomposition_plan")
    plan = DecompositionPlan(solver=payload.get("solver"))
    for entry in payload.get("assignments", []):
        task_bin = TaskBin(entry["cardinality"], entry["confidence"], entry["cost"])
        plan.add(task_bin, entry["task_ids"])
    recorded = payload.get("total_cost")
    if recorded is not None and abs(recorded - plan.total_cost) > 1e-6:
        raise SerializationError(
            f"plan file claims total cost {recorded} but its assignments sum to "
            f"{plan.total_cost:.6f}"
        )
    return plan


def save_plan(plan: DecompositionPlan, path: PathLike) -> None:
    """Write a decomposition plan to a JSON file."""
    Path(path).write_text(json.dumps(plan_to_dict(plan), indent=2))


def load_plan(path: PathLike) -> DecompositionPlan:
    """Read a decomposition plan from a JSON file."""
    return plan_from_dict(json.loads(Path(path).read_text()))


# -- service requests and responses -------------------------------------------------


def solve_request_to_dict(request: SolveRequest) -> Dict:
    """Serialise a service solve request to a JSON-compatible dictionary.

    ``deadline_ms`` (the relative budget) is on the wire; ``deadline_at``
    (the absolute monotonic instant) never is — monotonic clocks are
    meaningless across processes, so the receiver re-stamps at receipt.
    """
    payload = {
        "kind": "solve_request",
        "version": SCHEMA_VERSION,
        "schema_version": SCHEMA_VERSION,
        "request_id": request.request_id,
        "solver": request.solver,
        "verify": request.verify,
        "tenant": request.tenant,
        "options": dict(request.options),
        "problem": problem_to_dict(request.problem),
    }
    if request.deadline_ms is not None:
        payload["deadline_ms"] = request.deadline_ms
    return payload


def _request_problem(payload: Dict) -> SladeProblem:
    """Extract the problem from a request payload.

    Two forms are accepted: the full nested ``"problem"`` dictionary
    (:func:`problem_to_dict` output), or a compact inline form for
    hand-written JSON-lines traffic — ``"bins"`` (a bin-set dictionary or a
    list of ``[cardinality, confidence, cost]`` triples) together with either
    ``"n"`` + ``"threshold"`` (homogeneous) or ``"thresholds"`` (a per-task
    list).
    """
    if "problem" in payload:
        return problem_from_dict(payload["problem"])
    raw_bins = payload.get("bins")
    if raw_bins is None:
        raise SerializationError(
            "solve request needs either a 'problem' dictionary or inline "
            "'bins' with 'n'/'threshold' or 'thresholds'"
        )
    if isinstance(raw_bins, dict):
        bins = bin_set_from_dict(raw_bins)
    else:
        bins = TaskBinSet.from_triples(
            [tuple(entry) for entry in raw_bins], name=payload.get("name", "bins")
        )
    name = payload.get("name", "request")
    if "thresholds" in payload:
        return SladeProblem.heterogeneous(payload["thresholds"], bins, name=name)
    if "n" not in payload or "threshold" not in payload:
        raise SerializationError(
            "inline solve request needs 'thresholds' or both 'n' and 'threshold'"
        )
    return SladeProblem.homogeneous(
        int(payload["n"]), float(payload["threshold"]), bins, name=name
    )


def solve_request_from_dict(
    payload: Dict, default_request_id: Optional[str] = None
) -> SolveRequest:
    """Reconstruct a solve request from :func:`solve_request_to_dict` output.

    ``default_request_id`` fills in a correlation id when the payload does
    not carry one (the ``repro serve`` loop passes the input line number).

    Unknown top-level keys raise
    :class:`~repro.service.api.RequestValidationError`: on the request side
    a silently dropped field is a client bug (a misspelled ``deadline_ms``
    would otherwise run unbudgeted), so the reader is strict where the
    response reader is lenient.
    """
    _check_wire_kind(payload, "solve_request")
    unknown = sorted(set(payload) - REQUEST_FIELDS)
    if unknown:
        raise RequestValidationError(
            f"unknown solve_request field(s): {', '.join(unknown)}"
        )
    return SolveRequest(
        problem=_request_problem(payload),
        solver=payload.get("solver"),
        options=dict(payload.get("options") or {}),
        verify=payload.get("verify"),
        request_id=payload.get("request_id") or default_request_id,
        tenant=payload.get("tenant"),
        deadline_ms=payload.get("deadline_ms"),
    )


def solve_response_to_dict(response: SolveResponse, include_plan: bool = True) -> Dict:
    """Serialise a service solve response to a JSON-compatible dictionary.

    ``include_plan=False`` drops the (potentially large) plan body, keeping
    only the headline numbers — useful for logs and dashboards.
    """
    return {
        "kind": "solve_response",
        "version": SCHEMA_VERSION,
        "schema_version": SCHEMA_VERSION,
        "request_id": response.request_id,
        "ok": response.ok,
        "solver": response.solver,
        "total_cost": response.total_cost,
        "feasible": response.feasible,
        "cache": response.cache,
        "elapsed_seconds": response.elapsed_seconds,
        "solve_seconds": response.solve_seconds,
        "batch_size": response.batch_size,
        "problem_fingerprint": response.problem_fingerprint,
        "error": (
            {"type": response.error.type, "message": response.error.message}
            if response.error is not None
            else None
        ),
        "provenance": (
            {
                "quality": response.provenance.quality,
                "tier": response.provenance.tier,
                "deadline_ms": response.provenance.deadline_ms,
                "remaining_budget_ms": response.provenance.remaining_budget_ms,
            }
            if response.provenance is not None
            else None
        ),
        "plan": (
            plan_to_dict(response.plan)
            if include_plan and response.plan is not None
            else None
        ),
    }


def _provenance_from_dict(entry: Optional[Dict]) -> Optional[Provenance]:
    if not isinstance(entry, dict):
        return None
    return Provenance(
        quality=entry.get("quality", "optimal"),
        tier=entry.get("tier", "solver"),
        deadline_ms=entry.get("deadline_ms"),
        remaining_budget_ms=entry.get("remaining_budget_ms"),
    )


def solve_response_from_dict(payload: Dict) -> SolveResponse:
    """Reconstruct a solve response from :func:`solve_response_to_dict` output.

    Lenient by design: unknown fields are ignored and ``provenance`` is
    optional, so a version-1 client library can still read a version-2
    server's answers (and vice versa).
    """
    _check_wire_kind(payload, "solve_response")
    error = payload.get("error")
    plan = payload.get("plan")
    return SolveResponse(
        request_id=payload["request_id"],
        ok=bool(payload["ok"]),
        solver=payload.get("solver"),
        plan=plan_from_dict(plan) if plan is not None else None,
        total_cost=payload.get("total_cost"),
        feasible=payload.get("feasible"),
        cache=payload.get("cache", "none"),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        solve_seconds=float(payload.get("solve_seconds", 0.0)),
        batch_size=int(payload.get("batch_size", 1)),
        problem_fingerprint=payload.get("problem_fingerprint"),
        error=ErrorEnvelope(error["type"], error["message"]) if error else None,
        provenance=_provenance_from_dict(payload.get("provenance")),
    )
