"""Load drivers: open loop on a fixed schedule, closed loop call after call.

All timestamps are ``time.monotonic()`` instants, the clock the server's own
spans use, so a traced run can line the two up.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from httpclient import Connection, HttpError
from workloads import Call

#: A call that takes longer than this is recorded as failed.
CALL_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    call: Call
    due: float          #: when the schedule said to send (closed loop: sent)
    dispatched: float   #: when the generator handed it to a connection queue
    sent: float         #: when a connection started writing it
    done: float
    status: int         #: HTTP status; 0 when the exchange failed
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


async def _exchange(conn: Connection, call: Call) -> Tuple[int, bytes]:
    try:
        return await asyncio.wait_for(
            conn.request("POST", call.path, call.body), CALL_TIMEOUT_S
        )
    except (HttpError, OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
        await conn.close()
        return 0, b""


async def open_loop(
    address: Tuple[str, int],
    schedule: Sequence[Tuple[float, Call]],
    connections: int,
    origin: float,
) -> List[Outcome]:
    """Send each call at ``origin + offset`` over a pool of connections.

    Latency counts from the scheduled instant, so time a call spends waiting
    for a free connection (the backlog) counts against the server.
    """
    queue: "asyncio.Queue[Optional[Tuple[float, float, Call]]]" = asyncio.Queue()
    outcomes: List[Outcome] = []

    async def generate() -> None:
        for offset, call in schedule:
            due = origin + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((due, time.monotonic(), call))
        for _ in range(connections):
            queue.put_nowait(None)

    async def work(conn: Connection) -> None:
        while True:
            entry = await queue.get()
            if entry is None:
                return
            due, dispatched, call = entry
            sent = time.monotonic()
            status, body = await _exchange(conn, call)
            outcomes.append(Outcome(call, due, dispatched, sent, time.monotonic(),
                                    status, body))

    conns = [Connection(*address) for _ in range(connections)]
    # A collector pause would show up as generator lateness, not server time.
    gc.disable()
    try:
        for conn in conns:
            await conn.open()
        await asyncio.gather(generate(), *(work(conn) for conn in conns))
    finally:
        gc.enable()
        for conn in conns:
            await conn.close()
    return outcomes


async def closed_loop(
    address: Tuple[str, int],
    calls: Iterator[Call],
    seconds: float,
    connections: int = 1,
) -> List[Outcome]:
    """``connections`` callers, each sending its next call when the last
    returns, until ``seconds`` have passed or ``calls`` runs out."""
    outcomes: List[Outcome] = []
    end = time.monotonic() + seconds

    async def work(conn: Connection) -> None:
        for call in calls:
            sent = time.monotonic()
            status, body = await _exchange(conn, call)
            outcomes.append(Outcome(call, sent, sent, sent, time.monotonic(),
                                    status, body))
            if time.monotonic() >= end:
                return

    conns = [Connection(*address) for _ in range(connections)]
    # As in the open loop: a collector pause is the client's time, not the server's.
    gc.disable()
    try:
        for conn in conns:
            await conn.open()
        await asyncio.gather(*(work(conn) for conn in conns))
    finally:
        gc.enable()
        for conn in conns:
            await conn.close()
    return outcomes


async def sequential(address: Tuple[str, int], calls: Sequence[Call]) -> List[Outcome]:
    """Send every call once, in order, on one connection (set-up traffic)."""
    return await closed_loop(address, iter(calls), float("inf"))
