"""The networked cache backend: a fleet shares one plan cache.

:class:`RemoteBackend` implements the
:class:`~repro.engine.backends.base.CacheBackend` protocol against a
``repro cached`` server (:mod:`repro.engine.backends.server`) over the
length-prefixed binary protocol of :mod:`repro.engine.backends.wire`.

Design rules, in priority order:

1. **Fail open.**  The cache is an accelerator, never a dependency: a server
   that is down, slow past the client timeout, or answering corrupt bytes is
   treated as a cache *miss* — the caller rebuilds locally and the serving
   path never sees an error.  Every degradation increments a telemetry
   counter (``remote_cache.fail_open`` / ``remote_cache.corrupt_payloads``)
   so operators see the fleet going cold before users feel it.
2. **Validate on read.**  Payloads are checksummed at the frame layer and
   decoded against the key they were read under; a corrupt entry is deleted
   (best effort) so one bad blob cannot poison every host's rebuild forever.
3. **No in-process memoisation.**  The backend is pure shared storage — every
   ``get`` is a real round trip.  Layer a
   :class:`~repro.engine.backends.tiered.TieredBackend` in front to keep hot
   fingerprints in-process (``tiered:memory+remote://...``).

Connections are pooled (a small LIFO stack guarded by a lock, so the backend
is safe under :class:`~repro.engine.cache.PlanCache`'s own locking *and* for
lock-free statistic probes).  A request that fails on a *reused* connection
is retried once on a fresh one, so a restarted server costs the fleet one
round trip, not a cold cache.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Dict, List, Optional

from repro.algorithms.opq import OptimalPriorityQueue
from repro.engine.fingerprint import OPQKey
from repro.engine.telemetry import REMOTE_RTT_BUCKETS, Telemetry
from repro.engine.backends.wire import (
    OP_CLEAR,
    OP_CONTAINS,
    OP_DELETE,
    OP_GET,
    OP_PING,
    OP_PUT,
    OP_STATS,
    REPLY_MISS,
    REPLY_OK,
    REPLY_PONG,
    REPLY_STATS,
    REPLY_VALUE,
    Frame,
    WirePayloadError,
    WireProtocolError,
    encode_frame,
    encode_key,
    encode_queue,
    decode_queue,
    read_frame_from_socket,
)

#: Default client-side timeout for connect and per-frame reads (seconds).
DEFAULT_TIMEOUT = 1.0

#: Default number of idle connections kept per backend.
DEFAULT_POOL_SIZE = 2

#: Everything that makes a round trip fail open rather than raise.
_FAIL_OPEN_ERRORS = (OSError, WireProtocolError, EOFError)


class _SocketPool:
    """A small LIFO pool of connected sockets with its own lock."""

    def __init__(self, host: str, port: int, timeout: float, size: int) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._size = size
        self._lock = threading.Lock()
        self._idle: List[socket.socket] = []

    def acquire(self) -> "tuple[socket.socket, bool]":
        """An open socket plus whether it was reused from the pool."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return self.connect(), False

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=self._timeout)
        sock.settimeout(self._timeout)
        return sock

    def release(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._idle) < self._size:
                self._idle.append(sock)
                return
        _close_quietly(sock)

    def close_all(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            _close_quietly(sock)


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close never matters
        pass


class RemoteBackend:
    """Plan-cache storage on a shared ``repro cached`` server.

    Parameters
    ----------
    host / port:
        The cache server's address.
    timeout:
        Connect and per-frame read timeout in seconds; a server slower than
        this fails open into a local rebuild.
    pool_size:
        Idle connections kept for reuse.
    telemetry:
        Optional registry for the tier counters (``remote_cache.hits`` /
        ``.misses`` / ``.fail_open`` / ``.corrupt_payloads``) and the
        ``remote_cache.round_trip_seconds`` latency histogram.
        :class:`~repro.engine.cache.PlanCache` attaches its own registry when
        the backend was built without one.
    """

    #: Entries live on the server, so they survive *this* process's restarts.
    persistent = True

    #: The socket pool carries its own lock and the counters are advisory,
    #: so :class:`~repro.engine.cache.PlanCache` may drive this backend from
    #: concurrent per-key leaders without extra serialisation.
    concurrent_safe = True

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = DEFAULT_TIMEOUT,
        pool_size: int = DEFAULT_POOL_SIZE,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive; got {timeout}")
        if pool_size < 1:
            raise ValueError(f"pool_size must be positive; got {pool_size}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.telemetry = telemetry
        #: Client-side LRU evictions never happen here (the server bounds
        #: itself); kept for the ``CacheBackend`` counter convention.
        self.evictions = 0
        #: Round trips that degraded to a miss (server down/slow/desynced).
        self.fail_opens = 0
        #: Payloads that framed correctly but did not decode into a queue.
        self.corrupt_payloads = 0
        self.remote_hits = 0
        self.remote_misses = 0
        self._pool = _SocketPool(host, port, timeout, pool_size)

    # -- the round trip --------------------------------------------------------

    def _roundtrip(self, op: int, key: bytes = b"", payload: bytes = b"") -> Optional[Frame]:
        """Send one request frame and read its reply.

        Returns ``None`` when the server cannot be reached or answers
        garbage — the fail-open path.  A failure on a *reused* pooled
        connection is retried once on a fresh connection, so a restarted
        server does not surface as a spurious miss.
        """
        try:
            # An oversized key/payload raises before touching the wire; that
            # too must degrade to a miss, not surface as a request error.
            request = encode_frame(op, key, payload)
        except WireProtocolError:
            self._count_fail_open()
            return None
        started = time.perf_counter()
        try:
            sock, reused = self._pool.acquire()
        except _FAIL_OPEN_ERRORS:
            self._count_fail_open()
            return None
        try:
            reply = self._exchange(sock, request)
        except _FAIL_OPEN_ERRORS:
            _close_quietly(sock)
            if not reused:
                self._count_fail_open()
                return None
            try:
                sock = self._pool.connect()
            except _FAIL_OPEN_ERRORS:
                self._count_fail_open()
                return None
            try:
                reply = self._exchange(sock, request)
            except _FAIL_OPEN_ERRORS:
                _close_quietly(sock)
                self._count_fail_open()
                return None
        self._pool.release(sock)
        if self.telemetry is not None:
            self.telemetry.observe(
                "remote_cache.round_trip_seconds",
                time.perf_counter() - started,
                buckets=REMOTE_RTT_BUCKETS,
            )
        return reply

    def _exchange(self, sock: socket.socket, request: bytes) -> Frame:
        # One deadline for the whole exchange: a server trickling bytes just
        # under the per-recv timeout must still fail open at ~self.timeout.
        deadline = time.monotonic() + self.timeout
        sock.settimeout(self.timeout)
        try:
            sock.sendall(request)
            return read_frame_from_socket(sock, deadline=deadline)
        finally:
            # The reader shrinks the socket timeout toward the deadline;
            # restore it so a pooled connection starts its next exchange
            # with the full budget.
            try:
                sock.settimeout(self.timeout)
            except OSError:  # pragma: no cover - socket already dead
                pass

    def _count_fail_open(self) -> None:
        self.fail_opens += 1
        if self.telemetry is not None:
            self.telemetry.increment("remote_cache.fail_open")

    # -- storage protocol ------------------------------------------------------

    def get(self, key: OPQKey) -> Optional[OptimalPriorityQueue]:
        return self.try_get(key)[0]

    def try_get(self, key: OPQKey) -> "tuple[Optional[OptimalPriorityQueue], bool]":
        """``(queue, reachable)``: a miss on a live server is ``(None, True)``.

        The sharded backend needs the distinction a plain :meth:`get` hides:
        an unreachable shard ``(None, False)`` triggers fail-over to the next
        replica, while a reachable shard that simply lacks (or stored a
        corrupt copy of) the entry ``(None, True)`` is a candidate for read
        repair.
        """
        wire_key = encode_key(key)
        reply = self._roundtrip(OP_GET, wire_key)
        if reply is None:
            return None, False
        if reply.op == REPLY_MISS:
            self._count("remote_cache.misses")
            self.remote_misses += 1
            return None, True
        if reply.op != REPLY_VALUE:
            # An ERROR (or unexpected) reply is a server-side refusal; treat
            # it exactly like an unreachable server.
            self._count_fail_open()
            return None, False
        try:
            queue = decode_queue(reply.payload, key)
        except WirePayloadError:
            self.corrupt_payloads += 1
            self._count("remote_cache.corrupt_payloads")
            # Purge the poisoned entry so the next writer repairs the fleet.
            self._roundtrip(OP_DELETE, wire_key)
            return None, True
        self.remote_hits += 1
        self._count("remote_cache.hits")
        return queue, True

    def put(self, key: OPQKey, queue: OptimalPriorityQueue) -> None:
        # Fire-and-check: a failed PUT only costs the fleet future warmth.
        self._roundtrip(OP_PUT, encode_key(key), encode_queue(queue))

    def delete(self, key: OPQKey) -> bool:
        """Drop one entry on the server (fail-open: unreachable is ``False``)."""
        reply = self._roundtrip(OP_DELETE, encode_key(key))
        return reply is not None and reply.op == REPLY_OK

    def clear(self) -> None:
        self._roundtrip(OP_CLEAR)

    def close(self) -> None:
        self._pool.close_all()

    def __len__(self) -> int:
        stats = self.server_stats()
        return int(stats["keys"]) if stats else 0

    def __contains__(self, key: OPQKey) -> bool:
        reply = self._roundtrip(OP_CONTAINS, encode_key(key))
        return reply is not None and reply.op == REPLY_OK

    # -- observability ---------------------------------------------------------

    def ping(self) -> bool:
        """Whether the server currently answers (never raises)."""
        reply = self._roundtrip(OP_PING)
        return reply is not None and reply.op == REPLY_PONG

    def server_stats(self) -> Optional[Dict[str, float]]:
        """The server's STATS document, or ``None`` when unreachable."""
        reply = self._roundtrip(OP_STATS)
        if reply is None or reply.op != REPLY_STATS:
            return None
        try:
            stats = json.loads(reply.payload)
        except ValueError:
            return None
        return stats if isinstance(stats, dict) else None

    def extra_metrics(self) -> Dict[str, float]:
        """Server-side gauges merged into ``/metrics`` scrapes (fail-open)."""
        stats = self.server_stats()
        if not stats:
            return {}
        return {
            "remote_cache.server_keys": float(stats.get("keys", 0)),
            "remote_cache.server_bytes": float(stats.get("bytes", 0)),
            "remote_cache.server_evictions": float(stats.get("evictions", 0)),
        }

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.increment(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteBackend({self.host}:{self.port}, timeout={self.timeout}, "
            f"fail_opens={self.fail_opens})"
        )
