"""A budgeted build cut by its deadline leaves nothing behind.

The anytime ladder answers a request whose Algorithm 2 build runs out of
time with greedy, and publishes nothing.  A later unbudgeted request over
the same plan cache, in-process or on a cache server, must therefore get
exactly the plan a cold solver computes.  The deadline is cut with a fake
clock in the vectorized core, so the cut lands at the same point of the
build on any machine.
"""

import json

import pytest

from repro.algorithms import opq_vec
from repro.algorithms.registry import create_solver
from repro.core.problem import SladeProblem
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set
from repro.engine.backends.server import CacheServerThread
from repro.io.serialization import plan_to_dict
from repro.service import ServiceConfig, SladeService, SolveRequest

#: SMIC |B| = 37 at t = 0.99: a full vectorized build reads the clock 5 times.
SMIC_READS = 5


def plan_bytes(plan) -> bytes:
    return json.dumps(plan_to_dict(plan), sort_keys=True).encode("utf-8")


def postings(plan):
    """A plan's postings, without the solver tag naming who produced it."""
    return [(a.task_bin.cardinality, a.task_ids) for a in plan]


@pytest.fixture(params=["memory", "remote"])
def service(request):
    """A service over the in-process cache, or over a cache server."""
    if request.param == "memory":
        with SladeService() as facade:
            yield facade
        return
    with CacheServerThread() as server:
        config = ServiceConfig(cache_backend=f"remote://{server.host}:{server.port}")
        with SladeService(config) as facade:
            yield facade


class TestNoLeakIntoUnbudgetedRequests:
    @pytest.mark.parametrize(
        "bins,threshold,reads",
        [(smic_bin_set(37), 0.99, 3), (jelly_bin_set(20), 0.95, 1)],
        ids=["smic37-t0.99-cut3", "jelly20-t0.95-cut1"],
    )
    def test_unbudgeted_requests_get_the_cold_plan(
        self, service, cut_clock, bins, threshold, reads
    ):
        problem = SladeProblem.homogeneous(500, threshold, bins)
        with cut_clock(opq_vec, reads):
            budgeted = service.solve(
                SolveRequest(problem=problem, deadline_ms=10000)
            )
        cold = plan_bytes(create_solver("opq").solve(problem).plan)
        pinned = service.solve(SolveRequest(problem=problem, solver="opq"))
        default = service.solve(SolveRequest(problem=problem))
        assert [plan_bytes(pinned.plan), plan_bytes(default.plan)] == [cold, cold]
        # Nothing was published, so the first unbudgeted request built.
        assert (pinned.cache, default.cache) == ("miss", "hit")
        assert budgeted.ok
        assert (budgeted.provenance.quality, budgeted.provenance.tier) == (
            "greedy", "greedy"
        )


class TestRungLabels:
    @pytest.mark.parametrize("reads", range(SMIC_READS + 2))
    def test_quality_is_greedy_exactly_when_greedy_answered(self, cut_clock, reads):
        problem = SladeProblem.homogeneous(500, 0.99, smic_bin_set(37))
        with SladeService() as service, cut_clock(opq_vec, reads):
            response = service.solve(
                SolveRequest(problem=problem, deadline_ms=10000)
            )
        assert response.ok
        provenance = response.provenance
        assert (provenance.quality == "greedy") == (provenance.tier == "greedy")
        if reads < SMIC_READS:
            assert provenance.tier == "greedy"
        else:
            assert (provenance.quality, provenance.tier) == ("optimal", "build")
            opq_plan = create_solver("opq").solve(problem).plan
            assert postings(response.plan) == postings(opq_plan)
