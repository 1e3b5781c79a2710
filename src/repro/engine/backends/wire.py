"""The cache server's wire protocol: length-prefixed, versioned, checksummed.

One frame shape carries every request and reply between
:class:`~repro.engine.backends.remote.RemoteBackend` and the
``repro cached`` server:

.. code-block:: text

    +-------+---------+--------+---------+-------------+----------+
    | magic | version | opcode | key len | payload len | checksum |  16-byte
    | 2B    | 1B      | 1B     | u32     | u32         | crc32    |  header
    +-------+---------+--------+---------+-------------+----------+
    | key bytes ...                | payload bytes ...            |
    +------------------------------+------------------------------+

The checksum covers ``key + payload``, so a truncated or bit-flipped frame is
detected before any value is trusted; the version byte lets a future protocol
revision reject old peers with a clear error instead of misparsing.  Both
sides treat any violation as :class:`WireProtocolError` — the server answers
an ``ERROR`` reply and drops the connection (its framing is unrecoverable),
the client fails open and solves locally.

The module also owns the *payload* codec: a queue travels as one versioned
JSON record of its menu, threshold and frontier counts.  :func:`decode_queue`
rebuilds it through the validating constructors and checks it against the
key it was filed under, so a corrupt or hostile payload, or an older build's
pickle, surfaces as :class:`WirePayloadError`, never as a wrong plan.
"""

from __future__ import annotations

import json
import socket as socket_module
import struct
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # asyncio stays a lazy import on the hot sync paths
    import asyncio

from repro.algorithms.opq import Combination, OptimalPriorityQueue
from repro.core.bins import TaskBin, TaskBinSet
from repro.core.errors import SladeError
from repro.engine.fingerprint import OPQKey, opq_key

#: First bytes of every frame; anything else is not this protocol.
MAGIC = b"SC"

#: Protocol revision; bumped on incompatible frame changes.
WIRE_VERSION = 1

#: magic(2) version(1) opcode(1) key_len(u32) payload_len(u32) crc32(u32).
HEADER = struct.Struct("!2sBBIII")

#: Keys are fingerprint/threshold tokens — far below this bound.
MAX_KEY_BYTES = 4 * 1024

#: Queue records for the paper's menus are kilobytes; 64 MiB is a hard stop
#: against a corrupted length field allocating unbounded memory.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

# -- opcodes (requests) ----------------------------------------------------------

OP_GET = 0x01
OP_PUT = 0x02
OP_DELETE = 0x03
OP_STATS = 0x04
OP_PING = 0x05
OP_CONTAINS = 0x06
OP_CLEAR = 0x07

# -- opcodes (replies) -----------------------------------------------------------

REPLY_VALUE = 0x81    #: payload carries the stored value
REPLY_MISS = 0x82     #: key not present
REPLY_OK = 0x83       #: mutation acknowledged / key present
REPLY_STATS = 0x84    #: payload carries a JSON statistics document
REPLY_PONG = 0x85     #: liveness answer
REPLY_ERROR = 0x86    #: payload carries a UTF-8 error message

_REQUEST_OPS = frozenset(
    (OP_GET, OP_PUT, OP_DELETE, OP_STATS, OP_PING, OP_CONTAINS, OP_CLEAR)
)
_REPLY_OPS = frozenset(
    (REPLY_VALUE, REPLY_MISS, REPLY_OK, REPLY_STATS, REPLY_PONG, REPLY_ERROR)
)

#: Every queue payload is a record of this kind and revision.
QUEUE_RECORD_KIND = "opq_queue"
QUEUE_RECORD_VERSION = 1


class WireProtocolError(SladeError):
    """A frame violates the protocol (bad magic/version/opcode/length/checksum)."""


class WirePayloadError(SladeError):
    """A frame was well-formed but its payload is not a valid queue."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame: opcode plus opaque key and payload bytes."""

    op: int
    key: bytes = b""
    payload: bytes = b""


def encode_frame(op: int, key: bytes = b"", payload: bytes = b"") -> bytes:
    """Serialise one frame; validates sizes so bad frames never hit the wire."""
    if op not in _REQUEST_OPS and op not in _REPLY_OPS:
        raise WireProtocolError(f"unknown opcode 0x{op:02x}")
    if len(key) > MAX_KEY_BYTES:
        raise WireProtocolError(f"key of {len(key)} bytes exceeds {MAX_KEY_BYTES}")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireProtocolError(
            f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD_BYTES}"
        )
    checksum = zlib.crc32(key + payload) & 0xFFFFFFFF
    return HEADER.pack(MAGIC, WIRE_VERSION, op, len(key), len(payload), checksum) \
        + key + payload


def decode_header(header: bytes) -> "tuple[int, int, int, int]":
    """Validate a 16-byte header; returns ``(op, key_len, payload_len, crc)``.

    Raises :class:`WireProtocolError` on bad magic, version, opcode, or a
    length field past the protocol bounds — *before* any body is read, so a
    corrupted length cannot make a peer allocate unbounded memory.
    """
    if len(header) != HEADER.size:
        raise WireProtocolError(
            f"truncated header: {len(header)} of {HEADER.size} bytes"
        )
    magic, version, op, key_len, payload_len, checksum = HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"unsupported protocol version {version} (this peer speaks "
            f"{WIRE_VERSION})"
        )
    if op not in _REQUEST_OPS and op not in _REPLY_OPS:
        raise WireProtocolError(f"unknown opcode 0x{op:02x}")
    if key_len > MAX_KEY_BYTES:
        raise WireProtocolError(f"key length {key_len} exceeds {MAX_KEY_BYTES}")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise WireProtocolError(
            f"payload length {payload_len} exceeds {MAX_PAYLOAD_BYTES}"
        )
    return op, key_len, payload_len, checksum


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame from a byte string (tests, fuzzing)."""
    op, key_len, payload_len, checksum = decode_header(data[:HEADER.size])
    body = data[HEADER.size:]
    if len(body) != key_len + payload_len:
        raise WireProtocolError(
            f"frame body is {len(body)} bytes; header promised "
            f"{key_len + payload_len}"
        )
    key, payload = body[:key_len], body[key_len:]
    if zlib.crc32(key + payload) & 0xFFFFFFFF != checksum:
        raise WireProtocolError("checksum mismatch (corrupt frame)")
    return Frame(op=op, key=key, payload=payload)


async def read_frame(reader: "asyncio.StreamReader") -> Optional[Frame]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    Raises :class:`WireProtocolError` on malformed framing and lets the
    stream's own ``IncompleteReadError`` surface mid-frame disconnects.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireProtocolError(
            f"connection closed mid-header ({len(exc.partial)} bytes)"
        ) from exc
    op, key_len, payload_len, checksum = decode_header(header)
    try:
        body = await reader.readexactly(key_len + payload_len)
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{key_len + payload_len} body bytes)"
        ) from exc
    key, payload = body[:key_len], body[key_len:]
    if zlib.crc32(key + payload) & 0xFFFFFFFF != checksum:
        raise WireProtocolError("checksum mismatch (corrupt frame)")
    return Frame(op=op, key=key, payload=payload)


def read_frame_from_socket(
    sock: socket_module.socket, deadline: Optional[float] = None
) -> Frame:
    """Read one frame from a blocking socket (the client side).

    ``deadline`` (a ``time.monotonic()`` instant) bounds the *whole* frame,
    not each ``recv``: without it a half-dead server trickling one byte per
    just-under-the-timeout interval could hold the caller far beyond the
    configured timeout.  Expiry raises ``socket.timeout`` (an ``OSError``)
    so it rides the caller's fail-open path.

    Raises :class:`WireProtocolError` on malformed or truncated frames and
    propagates ``OSError``/``socket.timeout`` for the caller's fail-open
    handling.
    """
    header = _recv_exactly(sock, HEADER.size, deadline)
    op, key_len, payload_len, checksum = decode_header(header)
    body = _recv_exactly(sock, key_len + payload_len, deadline)
    key, payload = body[:key_len], body[key_len:]
    if zlib.crc32(key + payload) & 0xFFFFFFFF != checksum:
        raise WireProtocolError("checksum mismatch (corrupt frame)")
    return Frame(op=op, key=key, payload=payload)


def _recv_exactly(
    sock: socket_module.socket, count: int, deadline: Optional[float] = None
) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise socket_module.timeout(
                    "round-trip deadline exceeded mid-frame"
                )
            sock.settimeout(budget)
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- key codec -------------------------------------------------------------------

#: Separator between the two key components; neither a hex digest nor a
#: ``float.hex`` token can contain it.
_KEY_SEPARATOR = b"\n"


def encode_key(key: OPQKey) -> bytes:
    """Serialise an :data:`~repro.engine.fingerprint.OPQKey` for the wire."""
    return key[0].encode("utf-8") + _KEY_SEPARATOR + key[1].encode("utf-8")


def decode_key(data: bytes) -> OPQKey:
    """Inverse of :func:`encode_key`."""
    fingerprint, sep, token = data.partition(_KEY_SEPARATOR)
    if not sep:
        raise WireProtocolError(f"malformed cache key {data!r}")
    return (fingerprint.decode("utf-8"), token.decode("utf-8"))


# -- queue payload codec ---------------------------------------------------------


def encode_queue(queue: OptimalPriorityQueue) -> bytes:
    """One compact JSON record: menu, threshold, frontier counts head first, stats.

    JSON writes floats as their shortest round-tripping repr, so
    :func:`decode_queue` recomputes every quantity bit-equal.
    """
    menu = queue.head.bins
    return json.dumps({
        "kind": QUEUE_RECORD_KIND,
        "version": QUEUE_RECORD_VERSION,
        "menu": {
            "name": menu.name,
            "epoch": menu.calibration_epoch,
            "bins": [[b.cardinality, b.confidence, b.cost] for b in menu],
        },
        "threshold": queue.threshold,
        "frontier": [combination.counts for combination in queue],
        "stats": queue.stats,
    }, separators=(",", ":")).encode("utf-8")


def decode_queue(payload: bytes, key: OPQKey) -> OptimalPriorityQueue:
    """Rebuild a queue from its record; anything else is :class:`WirePayloadError`.

    Checked in order: kind and version; the menu, through ``TaskBin`` and
    ``TaskBinSet``; ``opq_key(menu, threshold) == key``, so a record filed
    under another menu, epoch or threshold is refused; counts are positive
    ints; every element is feasible; LCM falls and unit cost rises (Def. 4).
    """
    try:
        return _queue_from_record(json.loads(payload), key)
    except Exception as exc:  # noqa: BLE001 - any failure means a bad record
        raise WirePayloadError(f"queue payload refused: {exc}") from exc


def _queue_from_record(record: Any, key: OPQKey) -> OptimalPriorityQueue:
    if (record["kind"], record["version"]) != (QUEUE_RECORD_KIND, QUEUE_RECORD_VERSION):
        raise ValueError("not a current queue record")
    menu = record["menu"]
    bins = TaskBinSet((TaskBin(*triple) for triple in menu["bins"]),
                      name=menu["name"], calibration_epoch=menu["epoch"])
    threshold = record["threshold"]
    if opq_key(bins, threshold) != key:
        raise ValueError("the record is filed under another key")
    queue = OptimalPriorityQueue(threshold)
    for pairs in record["frontier"]:
        if not all(type(value) is int and value > 0 for pair in pairs for value in pair):
            raise ValueError(f"counts {pairs!r} are not positive ints")
        combination = Combination.from_counts(dict(pairs), bins)
        if not combination.satisfies(threshold):
            raise ValueError(f"{combination} misses the threshold")
        if queue and not (combination.lcm < queue[-1].lcm
                          and combination.unit_cost > queue[-1].unit_cost + 1e-15):
            raise ValueError(f"{combination} breaks the frontier order")
        queue._elements.append(combination)  # insert()'s invariant, checked in one pass
    stats = record["stats"]
    if not queue or not all(type(count) is int for count in stats.values()):
        raise ValueError("the frontier is empty or a build counter is not an int")
    queue.stats = stats
    return queue
