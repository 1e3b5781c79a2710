"""Property tests for the cache server's wire protocol.

The frame codec is the trust boundary between fleet hosts: anything that
round-trips must come back bit-identical, and anything malformed — bad magic,
foreign versions, lying length fields, flipped payload bits — must be
rejected as :class:`WireProtocolError` before a byte of it is believed.  The
live-server fuzz tests additionally pin the operational contract: garbage on
a connection kills *that connection* at most, never the server.
"""

import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.opq import build_optimal_priority_queue
from repro.core.bins import TaskBinSet
from repro.engine.backends.server import CacheServerThread
from repro.engine.backends.wire import (
    HEADER,
    MAGIC,
    MAX_KEY_BYTES,
    MAX_PAYLOAD_BYTES,
    OP_GET,
    OP_PING,
    OP_PUT,
    REPLY_OK,
    REPLY_PONG,
    REPLY_VALUE,
    WIRE_VERSION,
    Frame,
    WirePayloadError,
    WireProtocolError,
    decode_frame,
    decode_key,
    decode_queue,
    encode_frame,
    encode_key,
    encode_queue,
    read_frame_from_socket,
)

REQUEST_OPS = (0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07)
REPLY_OPS = (0x81, 0x82, 0x83, 0x84, 0x85, 0x86)

ops = st.sampled_from(REQUEST_OPS + REPLY_OPS)
keys = st.binary(max_size=256)
payloads = st.binary(max_size=4096)


class TestFrameRoundTrip:
    @given(op=ops, key=keys, payload=payloads)
    def test_encode_decode_is_identity(self, op, key, payload):
        frame = decode_frame(encode_frame(op, key, payload))
        assert frame == Frame(op=op, key=key, payload=payload)

    @given(key=keys, payload=payloads)
    def test_header_lengths_match_body(self, key, payload):
        data = encode_frame(OP_PUT, key, payload)
        assert len(data) == HEADER.size + len(key) + len(payload)

    def test_oversized_key_rejected_before_the_wire(self):
        with pytest.raises(WireProtocolError):
            encode_frame(OP_GET, b"k" * (MAX_KEY_BYTES + 1))

    def test_unknown_opcode_rejected_on_encode(self):
        with pytest.raises(WireProtocolError):
            encode_frame(0x42)


class TestFrameRejection:
    @given(key=keys, payload=st.binary(min_size=1, max_size=1024),
           flip=st.integers(min_value=0))
    def test_any_flipped_body_byte_fails_the_checksum(self, key, payload, flip):
        data = bytearray(encode_frame(OP_PUT, key, payload))
        index = HEADER.size + (flip % (len(key) + len(payload)))
        data[index] ^= 0x01
        with pytest.raises(WireProtocolError):
            decode_frame(bytes(data))

    def test_bad_magic_rejected(self):
        data = bytearray(encode_frame(OP_PING))
        data[0:2] = b"XX"
        with pytest.raises(WireProtocolError, match="magic"):
            decode_frame(bytes(data))

    def test_foreign_version_rejected(self):
        data = bytearray(encode_frame(OP_PING))
        data[2] = WIRE_VERSION + 1
        with pytest.raises(WireProtocolError, match="version"):
            decode_frame(bytes(data))

    def test_unknown_opcode_rejected(self):
        data = bytearray(encode_frame(OP_PING))
        data[3] = 0x7F
        with pytest.raises(WireProtocolError, match="opcode"):
            decode_frame(bytes(data))

    def test_truncated_header_rejected(self):
        with pytest.raises(WireProtocolError, match="truncated"):
            decode_frame(encode_frame(OP_PING)[: HEADER.size - 1])

    def test_lying_length_field_rejected_without_allocation(self):
        # A corrupted header promising a 4 GiB payload must fail on the
        # length check, not by trying to read 4 GiB.
        header = HEADER.pack(MAGIC, WIRE_VERSION, OP_GET, 0,
                             MAX_PAYLOAD_BYTES + 1, 0)
        with pytest.raises(WireProtocolError, match="payload length"):
            decode_frame(header)

    def test_short_body_rejected(self):
        data = encode_frame(OP_PUT, b"key", b"payload")
        with pytest.raises(WireProtocolError):
            decode_frame(data[:-3])


# Fingerprints and float tokens are newline-free by construction.
key_parts = st.text(
    alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
    max_size=64,
)


class TestKeyCodec:
    @given(fingerprint=key_parts, token=key_parts)
    def test_round_trip(self, fingerprint, token):
        assert decode_key(encode_key((fingerprint, token))) == (fingerprint, token)

    def test_separatorless_key_rejected(self):
        with pytest.raises(WireProtocolError):
            decode_key(b"no-separator-here")


class TestQueuePayloadCodec:
    def test_round_trip_preserves_queue_content(self):
        bins = TaskBinSet.from_triples(
            [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)], name="t"
        )
        queue = build_optimal_priority_queue(bins, 0.95)
        restored = decode_queue(encode_queue(queue))
        assert restored.threshold == queue.threshold
        assert [(c.counts, c.lcm) for c in restored] == [
            (c.counts, c.lcm) for c in queue
        ]

    @given(garbage=st.binary(max_size=256))
    def test_garbage_payloads_rejected(self, garbage):
        try:
            decode_queue(garbage)
        except WirePayloadError:
            pass
        else:  # pragma: no cover - would mean pickle accepted garbage
            pytest.fail("garbage bytes decoded into a queue")

    def test_foreign_pickles_rejected(self):
        import pickle

        with pytest.raises(WirePayloadError, match="not OptimalPriorityQueue"):
            decode_queue(pickle.dumps({"not": "a queue"}))

    def test_truncated_frontiers_from_older_builds_rejected(self):
        """Older builds pickled a ``complete`` flag; only ``False`` is refused."""
        bins = TaskBinSet.from_triples(
            [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)], name="t"
        )
        queue = build_optimal_priority_queue(bins, 0.95)
        queue.complete = True
        assert len(decode_queue(encode_queue(queue))) == len(queue)
        queue.complete = False
        with pytest.raises(WirePayloadError, match="truncated frontier"):
            decode_queue(encode_queue(queue))


@pytest.fixture(scope="module")
def live_server():
    with CacheServerThread() as server:
        yield server


def _ping_works(server: CacheServerThread) -> bool:
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.settimeout(5)
        sock.sendall(encode_frame(OP_PING))
        return read_frame_from_socket(sock).op == REPLY_PONG


class TestServerRobustness:
    """Garbage on the wire never crashes the serving loop."""

    @settings(max_examples=20, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=128))
    def test_fuzzed_bytes_leave_the_server_alive(self, live_server, garbage):
        with socket.create_connection(
            (live_server.host, live_server.port), timeout=5
        ) as sock:
            sock.settimeout(5)
            sock.sendall(garbage)
            sock.shutdown(socket.SHUT_WR)
            # The server answers an ERROR frame or just closes; either way it
            # must not hang and must keep serving other connections.
            try:
                read_frame_from_socket(sock)
            except (WireProtocolError, OSError):
                pass
        assert _ping_works(live_server)

    def test_bad_checksum_request_answers_error_and_closes(self, live_server):
        data = bytearray(encode_frame(OP_PUT, b"key", b"value"))
        data[-1] ^= 0xFF
        with socket.create_connection(
            (live_server.host, live_server.port), timeout=5
        ) as sock:
            sock.settimeout(5)
            sock.sendall(bytes(data))
            reply = read_frame_from_socket(sock)
            assert reply.op == 0x86  # REPLY_ERROR
            assert b"checksum" in reply.payload
        assert _ping_works(live_server)

    def test_reply_opcode_sent_as_request_is_refused(self, live_server):
        with socket.create_connection(
            (live_server.host, live_server.port), timeout=5
        ) as sock:
            sock.settimeout(5)
            sock.sendall(encode_frame(REPLY_OK))
            reply = read_frame_from_socket(sock)
            assert reply.op == 0x86
            assert b"not a request" in reply.payload
        assert _ping_works(live_server)

    def test_valid_traffic_still_served_after_fuzzing(self, live_server):
        with socket.create_connection(
            (live_server.host, live_server.port), timeout=5
        ) as sock:
            sock.settimeout(5)
            sock.sendall(encode_frame(OP_PUT, b"alive", b"yes"))
            assert read_frame_from_socket(sock).op == REPLY_OK
            sock.sendall(encode_frame(OP_GET, b"alive"))
            reply = read_frame_from_socket(sock)
            assert reply.op == REPLY_VALUE
            assert reply.payload == b"yes"


class TestHeaderLayout:
    def test_header_is_sixteen_bytes(self):
        # The layout is a wire contract: changing it requires a VERSION bump,
        # and this test is the tripwire.
        assert HEADER.size == 16
        assert HEADER.format == "!2sBBIII"
        assert struct.calcsize(HEADER.format) == 16
