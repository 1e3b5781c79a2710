"""The asyncio frontend: solve streaming requests off the event loop.

Production traffic arrives one request at a time, while the synchronous
:class:`~repro.service.facade.SladeService` blocks on the solver stack.
:class:`AsyncSladeService` bridges the two: concurrent ``submit()`` calls
enqueue requests, and a single dispatch loop flushes whatever is queued — up
to :data:`MAX_BATCH_SIZE` per flush, never waiting for more — as
one batch through the facade on a worker thread, off the event loop.
Per-request futures resolve with the same structured
:class:`~repro.service.api.SolveResponse` the sync facade returns (including
the size of the batch the request rode in).

No flush is held open for batch-mates: a batch shares nothing with the next
except the plan cache, which every request reads anyway.  Batches form when
requests queue behind a running one, and arrivals during a flush leave
together in the next.  The requests of one
:meth:`AsyncSladeService.submit_many` call are all queued before the loop
runs again, so they leave in one flush.

Shutdown is clean: :meth:`close` rejects new submissions, then drains — every
request accepted before the close is solved and its future resolved.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

from repro.engine.telemetry import QUEUE_WAIT_BUCKETS
from repro.service.api import (
    ServiceClosedError,
    ServiceConfig,
    SolveRequest,
    SolveResponse,
)
from repro.service.facade import SladeService

#: Most queued requests one flush takes.  A flush's responses resolve
#: together when it returns, so this bound caps how long the first request
#: of a burst waits behind its batch-mates.
MAX_BATCH_SIZE = 16

#: Queue sentinel marking the position after which no submissions exist.
_SHUTDOWN = object()

#: (request, its future, loop-clock enqueue time for queue-wait telemetry).
_QueueItem = Tuple[SolveRequest, "asyncio.Future[SolveResponse]", float]


class AsyncSladeService:
    """Asyncio frontend over a :class:`SladeService`.

    Parameters
    ----------
    service:
        The synchronous facade to execute batches through; a fresh one is
        built from ``config`` when omitted.
    config:
        Service tunables used when building the facade.  Mutually exclusive
        with ``service`` (passing both raises :class:`ValueError`).

    Usage::

        async with AsyncSladeService(config=ServiceConfig()) as svc:
            responses = await asyncio.gather(*(svc.submit(r) for r in stream))
    """

    def __init__(
        self,
        service: Optional[SladeService] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        if service is None:
            service = SladeService(config=config)
        elif config is not None:
            raise ValueError("pass either service or config, not both")
        self.service = service
        self._queue: Optional["asyncio.Queue[object]"] = None
        self._loop_task: Optional["asyncio.Task[None]"] = None
        self._closed = False

    @property
    def telemetry(self):
        """The facade's shared telemetry registry (flush/queue-wait series)."""
        return self.service.telemetry

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatch loop (idempotent; ``submit`` starts it lazily)."""
        if self._closed:
            raise ServiceClosedError("service has been closed")
        if self._loop_task is None:
            self._queue = asyncio.Queue()
            self._loop_task = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def close(self) -> None:
        """Stop accepting submissions, drain pending requests, stop the loop.

        Every request accepted before the call is still solved and its
        future resolved; only *new* submissions fail with
        :class:`~repro.service.api.ServiceClosedError`.  The underlying
        facade (and its cache backend) is closed as well.
        """
        if self._closed:
            if self._loop_task is not None:
                await self._loop_task
            return
        self._closed = True
        if self._loop_task is not None:
            assert self._queue is not None
            self._queue.put_nowait(_SHUTDOWN)
            await self._loop_task
        self.service.close()

    async def __aenter__(self) -> "AsyncSladeService":
        await self.start()
        return self

    async def __aexit__(self, *_exc_info: object) -> None:
        await self.close()

    # -- submission ------------------------------------------------------------

    async def submit(self, request: SolveRequest) -> SolveResponse:
        """Enqueue one request and await its structured response.

        Requests queued while a batch runs share the next flush; each caller
        gets back only its own response.  Solver- and validation-level
        failures resolve the future normally with an ``ok=False`` response —
        they never raise here.
        """
        if self._closed:
            raise ServiceClosedError("service has been closed")
        await self.start()
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SolveResponse]" = loop.create_future()
        self._queue.put_nowait((request, future, loop.time()))
        return await future

    async def submit_many(self, requests: List[SolveRequest]) -> List[SolveResponse]:
        """Submit concurrently and gather responses in submission order."""
        return list(await asyncio.gather(*(self.submit(r) for r in requests)))

    # -- the dispatch loop -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        queue = self._queue
        closing = False
        # After the shutdown sentinel nothing new is accepted: keep flushing
        # until everything queued before it is answered, then stop.
        while not (closing and queue.empty()):
            # Take what is already queued, up to the bound; never wait for more.
            batch: List[_QueueItem] = []
            item = await queue.get()
            while True:
                if item is _SHUTDOWN:
                    closing = True
                else:
                    batch.append(item)  # type: ignore[arg-type]
                if len(batch) == MAX_BATCH_SIZE or queue.empty():
                    break
                item = queue.get_nowait()
            if batch:
                await self._execute(batch)

    async def _execute(self, batch: List[_QueueItem]) -> None:
        """Run one batch off the event loop and resolve its futures."""
        requests = [request for request, _future, _enqueued in batch]
        loop = asyncio.get_running_loop()
        telemetry = self.service.telemetry
        flush_time = loop.time()
        telemetry.increment("service.flushes")
        telemetry.observe("service.batch_size", len(batch))
        for _request, _future, enqueued in batch:
            telemetry.observe(
                "service.queue_wait_seconds",
                max(0.0, flush_time - enqueued),
                buckets=QUEUE_WAIT_BUCKETS,
            )
        try:
            responses = await loop.run_in_executor(
                None, self.service.solve_batch, requests
            )
        except Exception as exc:  # pragma: no cover - facade never raises per-request
            for _request, future, _enqueued in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_request, future, _enqueued), response in zip(batch, responses):
            if not future.done():
                future.set_result(response)
