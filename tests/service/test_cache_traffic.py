"""Backend traffic per request: the plan cache alone labels hits and misses.

The service reads each request's ``cache`` label from the lookups the plan
cache actually made, so labelling costs no storage call of its own.  On a
remote or sharded backend every call is a network round trip, so a hit must
cost exactly one ``get`` and a miss one ``get`` plus one ``put``, with no
membership probe (``__contains__``) on top.
"""

import pytest

from repro.core.problem import SladeProblem
from repro.engine.backends import MemoryBackend
from repro.service import (
    CACHE_BYPASS,
    CACHE_HIT,
    CACHE_MISS,
    SladeService,
    SolveRequest,
)


class CountingBackend(MemoryBackend):
    """An in-memory store that counts the storage calls made on it."""

    def __init__(self):
        super().__init__()
        self.calls = {"get": 0, "put": 0, "contains": 0}

    def get(self, key):
        self.calls["get"] += 1
        return super().get(key)

    def put(self, key, queue):
        self.calls["put"] += 1
        super().put(key, queue)

    def __contains__(self, key):
        self.calls["contains"] += 1
        return super().__contains__(key)


@pytest.fixture
def backend():
    return CountingBackend()


@pytest.fixture
def service(backend):
    with SladeService(backend=backend) as service:
        yield service


def solve_counting(service, backend, request):
    """Solve ``request`` and return the response plus the calls it made."""
    before = dict(backend.calls)
    response = service.solve(request)
    assert response.ok
    return response, {name: backend.calls[name] - before[name] for name in before}


class TestLookupTraffic:
    @pytest.mark.parametrize("solver", ["opq", "opq-extended"])
    def test_homogeneous_miss_then_hit(self, service, backend, table1_bins, solver):
        request = SolveRequest(
            problem=SladeProblem.homogeneous(12, 0.95, table1_bins),
            solver=solver,
        )
        response, calls = solve_counting(service, backend, request)
        assert response.cache == CACHE_MISS
        assert calls == {"get": 1, "put": 1, "contains": 0}

        response, calls = solve_counting(service, backend, request)
        assert response.cache == CACHE_HIT
        assert calls == {"get": 1, "put": 0, "contains": 0}

    def test_one_get_per_group_queue(self, service, backend, table1_bins):
        request = SolveRequest(
            problem=SladeProblem.heterogeneous(
                [0.6, 0.7, 0.9, 0.95, 0.99], table1_bins
            ),
            solver="opq-extended",
        )
        response, calls = solve_counting(service, backend, request)
        groups = len(backend)
        assert groups > 1
        assert response.cache == CACHE_MISS
        assert calls == {"get": groups, "put": groups, "contains": 0}

        response, calls = solve_counting(service, backend, request)
        assert response.cache == CACHE_HIT
        assert calls == {"get": groups, "put": 0, "contains": 0}

    def test_greedy_never_touches_the_backend(self, service, backend, table1_bins):
        request = SolveRequest(
            problem=SladeProblem.homogeneous(12, 0.95, table1_bins),
            solver="greedy",
        )
        response, calls = solve_counting(service, backend, request)
        assert response.cache == CACHE_BYPASS
        assert calls == {"get": 0, "put": 0, "contains": 0}
