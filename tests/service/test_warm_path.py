"""The work a warm request does: no atomic tasks, one verification.

A warm request finds its queues in the plan cache, so what is left is
parsing, Algorithm 3, one feasibility pass and the response.  These tests
count the per-task objects and passes that used to make that path
quadratic in n (see ``DecompositionPlan.unsatisfied_tasks`` and
``CrowdsourcingTask``), and the postings Algorithm 3's block runs no
longer build unless the response carries the plan body.
"""

import pytest

from repro.core.plan import BinAssignment, DecompositionPlan
from repro.core.task import AtomicTask
from repro.datasets.jelly import jelly_bin_set
from repro.io.serialization import solve_response_to_dict
from repro.service import SladeService
from repro.service.normalize import parse_request_payload

MENU = [[b.cardinality, b.confidence, b.cost] for b in jelly_bin_set(20)]


def homogeneous_payload(n):
    return {"kind": "solve_request", "version": 2, "bins": MENU,
            "n": n, "threshold": 0.9}


def heterogeneous_payload(n):
    thresholds = [0.85, 0.95] + [0.85 + 0.0001 * (i % 1000) for i in range(n - 2)]
    return {"kind": "solve_request", "version": 2, "bins": MENU,
            "thresholds": thresholds, "solver": "opq-extended"}


@pytest.fixture
def counts(monkeypatch):
    """Count AtomicTask constructions and feasibility passes."""
    counts = {"atomic_tasks": 0, "unsatisfied_tasks": 0}
    post_init = AtomicTask.__post_init__
    unsatisfied_tasks = DecompositionPlan.unsatisfied_tasks

    def counting_post_init(self):
        counts["atomic_tasks"] += 1
        post_init(self)

    def counting_unsatisfied_tasks(self, task):
        counts["unsatisfied_tasks"] += 1
        return unsatisfied_tasks(self, task)

    monkeypatch.setattr(AtomicTask, "__post_init__", counting_post_init)
    monkeypatch.setattr(
        DecompositionPlan, "unsatisfied_tasks", counting_unsatisfied_tasks
    )
    return counts


def serve_warm(payload_for, n, counts):
    """Prime the cache, then serve one n-task request from the wire payload on."""
    with SladeService() as service:
        assert service.solve(parse_request_payload(payload_for(10))).ok
        for key in counts:
            counts[key] = 0
        response = service.solve(parse_request_payload(payload_for(n)))
        body = solve_response_to_dict(response, include_plan=False)
    assert body["ok"] is True
    assert body["cache"] == "hit"
    assert body["feasible"] is True
    return response


def test_warm_homogeneous_request_builds_no_atomic_task(counts):
    serve_warm(homogeneous_payload, 30_000, counts)
    assert counts == {"atomic_tasks": 0, "unsatisfied_tasks": 1}


def test_warm_heterogeneous_request_builds_no_atomic_task(counts):
    serve_warm(heterogeneous_payload, 5_000, counts)
    assert counts == {"atomic_tasks": 0, "unsatisfied_tasks": 1}


@pytest.fixture
def postings(monkeypatch):
    """Every BinAssignment built, in order."""
    built = []
    post_init = BinAssignment.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BinAssignment, "__post_init__", counting_post_init)
    return built


def test_warm_homogeneous_request_builds_no_posting(counts, postings):
    response = serve_warm(homogeneous_payload, 30_000, counts)
    # The parent built all 3000 here, one per posting of the plan.
    assert postings == []
    assert len(response.plan) == 3000


def test_plan_body_expands_each_posting_once(counts, postings):
    response = serve_warm(homogeneous_payload, 30_000, counts)
    assert postings == []
    body = solve_response_to_dict(response, include_plan=True)
    assert len(postings) == len(response.plan) == 3000
    assert [
        (entry["cardinality"], tuple(entry["task_ids"]))
        for entry in body["plan"]["assignments"]
    ] == [(posting.task_bin.cardinality, posting.task_ids) for posting in postings]
