"""The shared plan-cache server behind ``repro cached``.

A fleet of ``repro serve`` hosts each kept a private plan cache; every host
paid its own cold Algorithm 2 builds even when a sibling had already planned
the identical ``(bin set, threshold)`` fingerprint.  :class:`CacheServer` is
the fleet's shared warmth: a dependency-free asyncio TCP key-value store
speaking the length-prefixed protocol of
:mod:`repro.engine.backends.wire` (GET/PUT/DELETE/CONTAINS/CLEAR/STATS/PING).

The server is deliberately dumb — it stores opaque byte payloads under opaque
byte keys and never decodes anything, so a hostile or corrupt payload can
harm only the client that stored it (clients validate on read and fail open).
Values are immutable by construction (a queue is a deterministic function of
its key), so concurrent PUTs can only race to store equivalent bytes and
last-writer-wins is harmless.

Protocol errors never crash the serving loop: a malformed frame answers one
``ERROR`` reply and closes that connection (its framing is unrecoverable);
every other connection, and the server itself, keeps going.

With ``persist_path`` set (the ``repro cached --persist <path>`` flag), the
in-memory store is backed by a
:class:`~repro.engine.backends.sqlite.SQLiteBackend` through its raw-payload
API: every PUT/DELETE/CLEAR/eviction writes through, and a restarting server
reloads its keys (in LRU order) before accepting connections — the fleet's
warmth survives the restart.  The server still never decodes anything; it
moves the clients' opaque blobs in and out of the same SQLite schema the
``sqlite:<path>`` backend uses, so either side can read a file the other
wrote.  Persistence is fail-open like everything else: a failing disk write
counts ``persist_errors`` in STATS and the entry stays served from memory.
"""

from __future__ import annotations

import asyncio
import json
import sqlite3
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Optional, Set, Tuple, Union

from repro.engine.backends.sqlite import SQLiteBackend
from repro.engine.backends.wire import (
    OP_CLEAR,
    OP_CONTAINS,
    OP_DELETE,
    OP_GET,
    OP_PING,
    OP_PUT,
    OP_STATS,
    REPLY_ERROR,
    REPLY_MISS,
    REPLY_OK,
    REPLY_PONG,
    REPLY_STATS,
    REPLY_VALUE,
    Frame,
    WireProtocolError,
    decode_key,
    encode_key,
    encode_frame,
    read_frame,
)


class CacheServer:
    """An asyncio TCP key-value store for encoded plan queues.

    Parameters
    ----------
    max_entries:
        Optional LRU bound on stored keys; a GET refreshes recency, a PUT past
        the bound evicts the least recently used entry.  ``None`` (the
        default) stores everything.
    persist_path:
        Optional SQLite file backing the in-memory store.  Existing entries
        are reloaded at construction (so a restarted server keeps the
        fleet's warmth), and every mutation writes through.  Only keys that
        parse as cache keys are persisted — foreign byte keys stay
        memory-only, since the SQLite schema stores the two key components
        as text columns.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        persist_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive; got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._bytes_stored = 0
        self._started = time.monotonic()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.deletes = 0
        self.evictions = 0
        self.frame_errors = 0
        self.connections = 0
        #: Persistence write-throughs that failed (the entry stays in memory).
        self.persist_errors = 0
        #: Keys reloaded from the persistence file at construction.
        self.restored_keys = 0
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set["asyncio.Task[None]"] = set()
        #: Kept separate from the live handle so stats() still reports a
        #: persistent server after close() has released the connection.
        self.persist_path = Path(persist_path) if persist_path is not None else None
        self._persist: Optional[SQLiteBackend] = None
        #: Single worker so write-behind persistence keeps mutation order;
        #: SQLite writes must never run on the serving event loop.
        self._persist_executor: Optional[ThreadPoolExecutor] = None
        if self.persist_path is not None:
            self._persist = SQLiteBackend(self.persist_path)
            self._persist_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="cache-persist"
            )
            self._restore()
            self._evict()

    def _restore(self) -> None:
        """Reload persisted entries (LRU order) into the in-memory store."""
        assert self._persist is not None
        for key, payload in self._persist.payloads():
            wire_key = encode_key(key)
            self._entries[wire_key] = payload
            self._bytes_stored += len(payload)
            self.restored_keys += 1

    # -- persistence write-through ---------------------------------------------

    # Mutations submit to the single persistence worker (FIFO, so disk sees
    # the same order as memory) and return immediately: the event loop never
    # waits on SQLite.  close() drains the queue before releasing the file.

    def _persist_put(self, wire_key: bytes, payload: bytes) -> None:
        if self._persist is None or self._persist_executor is None:
            return
        self._persist_executor.submit(
            self._persist_put_sync, self._persist, wire_key, payload
        )

    def _persist_put_sync(
        self, persist: SQLiteBackend, wire_key: bytes, payload: bytes
    ) -> None:
        try:
            persist.put_payload(decode_key(wire_key), payload)
        except (WireProtocolError, sqlite3.Error):
            # Foreign keys are memory-only; disk failures are fail-open.
            self.persist_errors += 1

    def _persist_delete(self, wire_key: bytes) -> None:
        if self._persist is None or self._persist_executor is None:
            return
        self._persist_executor.submit(
            self._persist_delete_sync, self._persist, wire_key
        )

    def _persist_delete_sync(
        self, persist: SQLiteBackend, wire_key: bytes
    ) -> None:
        try:
            persist.delete(decode_key(wire_key))
        except (WireProtocolError, sqlite3.Error):
            self.persist_errors += 1

    def _persist_clear(self) -> None:
        if self._persist is None or self._persist_executor is None:
            return
        self._persist_executor.submit(self._persist_clear_sync, self._persist)

    def _persist_clear_sync(self, persist: SQLiteBackend) -> None:
        try:
            persist.clear()
        except sqlite3.Error:
            self.persist_errors += 1

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        return self.host, self.port

    async def close(self) -> None:
        """Stop accepting and release the listening socket.

        In-flight request frames finish answering; idle connections see EOF
        on their next read.
        """
        if self._server is not None:
            self._server.close()
            # Idle connections are blocked reading their next frame; closing
            # their transports resolves the read with EOF, so every handler
            # returns before the loop shuts down instead of being cancelled.
            for writer in list(self._writers):
                writer.close()
            handlers = [task for task in self._handlers if not task.done()]
            if handlers:
                await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if self._persist is not None:
            persist, self._persist = self._persist, None
            executor, self._persist_executor = self._persist_executor, None

            def _drain_and_close() -> None:
                if executor is not None:
                    executor.shutdown(wait=True)
                persist.close()

            # Pending write-behind work and the SQLite close both block;
            # finish them off-loop so in-flight connections keep draining.
            await asyncio.get_running_loop().run_in_executor(
                None, _drain_and_close
            )

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except WireProtocolError as exc:
                    # The stream is desynchronised; answer once and hang up.
                    self.frame_errors += 1
                    writer.write(
                        encode_frame(REPLY_ERROR, payload=str(exc).encode("utf-8"))
                    )
                    await writer.drain()
                    return
                if frame is None:
                    return
                writer.write(self._dispatch(frame))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            return
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # -- request dispatch ------------------------------------------------------

    def _dispatch(self, frame: Frame) -> bytes:
        if frame.op == OP_GET:
            value = self._entries.get(frame.key)
            if value is None:
                self.misses += 1
                return encode_frame(REPLY_MISS)
            self._entries.move_to_end(frame.key)
            self.hits += 1
            return encode_frame(REPLY_VALUE, payload=value)
        if frame.op == OP_PUT:
            old = self._entries.get(frame.key)
            if old is not None:
                self._bytes_stored -= len(old)
            self._entries[frame.key] = frame.payload
            self._entries.move_to_end(frame.key)
            self._bytes_stored += len(frame.payload)
            self.puts += 1
            self._persist_put(frame.key, frame.payload)
            self._evict()
            return encode_frame(REPLY_OK)
        if frame.op == OP_DELETE:
            value = self._entries.pop(frame.key, None)
            if value is None:
                return encode_frame(REPLY_MISS)
            self._bytes_stored -= len(value)
            self.deletes += 1
            self._persist_delete(frame.key)
            return encode_frame(REPLY_OK)
        if frame.op == OP_CONTAINS:
            return encode_frame(
                REPLY_OK if frame.key in self._entries else REPLY_MISS
            )
        if frame.op == OP_CLEAR:
            self._entries.clear()
            self._bytes_stored = 0
            self._persist_clear()
            return encode_frame(REPLY_OK)
        if frame.op == OP_STATS:
            return encode_frame(
                REPLY_STATS, payload=json.dumps(self.stats()).encode("utf-8")
            )
        if frame.op == OP_PING:
            return encode_frame(REPLY_PONG)
        # decode_header already rejects unknown opcodes; a reply opcode sent
        # as a request lands here.
        self.frame_errors += 1
        return encode_frame(
            REPLY_ERROR, payload=f"opcode 0x{frame.op:02x} is not a request".encode()
        )

    def _evict(self) -> None:
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            key, value = self._entries.popitem(last=False)
            self._bytes_stored -= len(value)
            self.evictions += 1
            # A bounded persistent server stays bounded on disk too.
            self._persist_delete(key)

    # -- statistics ------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """The STATS document: keys, bytes, traffic counters, uptime."""
        return {
            "keys": len(self._entries),
            "bytes": self._bytes_stored,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "deletes": self.deletes,
            "evictions": self.evictions,
            "frame_errors": self.frame_errors,
            "connections": self.connections,
            "persisted": int(self.persist_path is not None),
            "persist_errors": self.persist_errors,
            "restored_keys": self.restored_keys,
            "uptime_seconds": time.monotonic() - self._started,
        }

    def __len__(self) -> int:
        return len(self._entries)


async def run_cache_server(
    host: str,
    port: int,
    max_entries: Optional[int] = None,
    persist_path: Optional[Union[str, Path]] = None,
    stop: Optional["asyncio.Event"] = None,
    on_ready: Optional[Callable[[CacheServer], None]] = None,
) -> CacheServer:
    """Start a server, run until ``stop`` is set, close cleanly.

    The ``repro cached`` CLI entry point; ``on_ready(server)`` fires once the
    socket is bound (used to print the listening address).  Returns the
    closed server so callers can read final statistics.
    """
    loop = asyncio.get_running_loop()
    # Construction restores persisted entries from SQLite — blocking work
    # that must not run on the loop once other coroutines are scheduled.
    server = await loop.run_in_executor(
        None,
        lambda: CacheServer(max_entries=max_entries, persist_path=persist_path),
    )
    await server.start(host, port)
    if on_ready is not None:
        on_ready(server)
    if stop is None:  # pragma: no cover - interactive use only
        stop = asyncio.Event()  # never set: serve until cancelled
    try:
        await stop.wait()
    finally:
        await server.close()
    return server


class CacheServerThread:
    """A cache server on a private event loop in a daemon thread.

    Test and benchmark harness: boots synchronously, exposes the bound
    address, and tears down on :meth:`stop`.  The underlying
    :class:`CacheServer` is reachable as :attr:`server` for counter
    assertions after the loop has stopped.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        persist_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.server = CacheServer(max_entries=max_entries, persist_path=persist_path)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10):  # pragma: no cover - defensive
            raise RuntimeError("cache server thread failed to start")

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start("127.0.0.1", 0)
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.close()

    @property
    def host(self) -> str:
        assert self.server.host is not None
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the server down and join the thread (idempotent)."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    def __enter__(self) -> "CacheServerThread":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()
