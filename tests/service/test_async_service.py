"""Tests for the async frontend's dispatch loop.

Covers the flush loop's edge cases: a lone request flushed at once, requests
queued behind a running batch leaving together, a burst larger than the
batch bound split across flushes, failures isolated to their own response,
and clean shutdown with pending requests.
"""

import asyncio

import pytest

from repro.core.problem import SladeProblem
from repro.service import (
    AsyncSladeService,
    ServiceClosedError,
    ServiceConfig,
    SladeService,
    SolveRequest,
)
from repro.service.async_service import MAX_BATCH_SIZE


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def request_for(example4_problem):
    def make(**kwargs):
        return SolveRequest(problem=example4_problem, **kwargs)

    return make


class TestMicroBatching:
    def test_lone_request_is_flushed_without_waiting(self, request_for):
        async def scenario():
            async with AsyncSladeService(config=ServiceConfig()) as svc:
                response = await svc.submit(request_for(request_id="lonely"))
                return response, svc.telemetry.series("service.queue_wait_seconds")

        response, waits = run(scenario())
        # Nothing else is queued, so the request leaves as a singleton at
        # once: no flush is held open for batch-mates.
        assert response.ok
        assert response.request_id == "lonely"
        assert response.batch_size == 1
        assert waits.count == 1
        assert waits.maximum < 0.005

    def test_requests_queued_behind_a_running_batch_share_the_next_flush(
        self, request_for, blocking_facade
    ):
        facade = blocking_facade

        async def scenario():
            loop = asyncio.get_running_loop()
            async with AsyncSladeService(service=facade) as svc:
                first = asyncio.ensure_future(svc.submit(request_for(request_id="first")))
                assert await loop.run_in_executor(None, facade.entered.wait, 30)
                rest = [
                    asyncio.ensure_future(svc.submit(request_for(request_id=f"r{i}")))
                    for i in range(5)
                ]
                # Callbacks run in FIFO order, so the five submissions above
                # are queued before the blocked batch is released.
                loop.call_soon(facade.release.set)
                responses = await asyncio.gather(first, *rest)
                return responses, svc.telemetry.counter("service.flushes")

        responses, flushes = run(scenario())
        assert all(r.ok for r in responses)
        assert responses[0].batch_size == 1
        assert [r.batch_size for r in responses[1:]] == [5] * 5
        assert flushes == 2

    def test_concurrent_submissions_coalesce(self, request_for):
        async def scenario():
            async with AsyncSladeService() as svc:
                return await svc.submit_many([request_for() for _ in range(6)])

        responses = run(scenario())
        assert all(r.ok for r in responses)
        # All six were queued before the dispatch loop ran again, so at
        # least one flush must have carried multiple requests.
        assert max(r.batch_size for r in responses) > 1

    def test_burst_larger_than_max_batch_splits_across_flushes(self, request_for):
        burst = 2 * MAX_BATCH_SIZE + 1

        async def scenario():
            async with AsyncSladeService() as svc:
                return await svc.submit_many(
                    [request_for(request_id=f"r{i}") for i in range(burst)]
                )

        responses = run(scenario())
        assert [r.request_id for r in responses] == [f"r{i}" for i in range(burst)]
        assert all(r.ok for r in responses)
        assert all(r.batch_size <= MAX_BATCH_SIZE for r in responses)
        # The whole burst is queued before the dispatch loop runs again, so
        # it leaves as two full flushes and a singleton.
        assert any(r.batch_size == 1 for r in responses)

    def test_burst_of_exactly_the_batch_bound_is_one_flush(self, request_for):
        async def scenario():
            async with AsyncSladeService() as svc:
                responses = await svc.submit_many(
                    [request_for() for _ in range(MAX_BATCH_SIZE)]
                )
                return responses, svc.telemetry.counter("service.flushes")

        responses, flushes = run(scenario())
        assert all(r.ok for r in responses)
        assert [r.batch_size for r in responses] == [MAX_BATCH_SIZE] * MAX_BATCH_SIZE
        assert flushes == 1

    def test_failure_isolated_to_its_own_response(self, request_for):
        async def scenario():
            async with AsyncSladeService() as svc:
                return await svc.submit_many(
                    [
                        request_for(request_id="good-1"),
                        request_for(request_id="bad", solver="magic"),
                        request_for(request_id="good-2"),
                    ]
                )

        responses = run(scenario())
        by_id = {r.request_id: r for r in responses}
        assert by_id["good-1"].ok
        assert by_id["good-2"].ok
        assert not by_id["bad"].ok
        assert by_id["bad"].error.type == "RequestValidationError"


class TestLifecycle:
    def test_clean_shutdown_resolves_pending_requests(self, request_for):
        async def scenario():
            svc = AsyncSladeService()
            await svc.start()
            pending = [
                asyncio.ensure_future(svc.submit(request_for(request_id=f"p{i}")))
                for i in range(5)
            ]
            # Let the submissions enqueue, then close while they are pending.
            await asyncio.sleep(0)
            await svc.close()
            return await asyncio.gather(*pending)

        responses = run(scenario())
        assert len(responses) == 5
        assert all(r.ok for r in responses)

    def test_submit_after_close_rejected(self, request_for):
        async def scenario():
            svc = AsyncSladeService(config=ServiceConfig())
            await svc.start()
            await svc.close()
            with pytest.raises(ServiceClosedError):
                await svc.submit(request_for())

        run(scenario())

    def test_close_without_start_is_clean(self):
        async def scenario():
            svc = AsyncSladeService(config=ServiceConfig())
            await svc.close()

        run(scenario())

    def test_close_is_idempotent(self, request_for):
        async def scenario():
            svc = AsyncSladeService(config=ServiceConfig())
            assert (await svc.submit(request_for())).ok
            await svc.close()
            await svc.close()

        run(scenario())

    def test_service_and_config_mutually_exclusive(self):
        with pytest.raises(ValueError):
            AsyncSladeService(service=SladeService(), config=ServiceConfig())



class TestSharedCacheAcrossFrontends:
    def test_async_requests_hit_cache_warmed_by_sync_facade(
        self, request_for, example4_problem
    ):
        facade = SladeService()
        facade.solve(SolveRequest(problem=example4_problem))

        async def scenario():
            async with AsyncSladeService(service=facade) as svc:
                return await svc.submit(request_for())

        response = run(scenario())
        assert response.ok
        assert response.cache == "hit"

    def test_heterogeneous_requests_through_async_path(self, table1_bins):
        problem = SladeProblem.heterogeneous(
            [0.5, 0.6, 0.7, 0.86], table1_bins, name="hetero"
        )

        async def scenario():
            async with AsyncSladeService(config=ServiceConfig()) as svc:
                return await svc.submit(
                    SolveRequest(problem=problem, solver="opq-extended")
                )

        response = run(scenario())
        assert response.ok
        assert response.solver == "opq-extended"
