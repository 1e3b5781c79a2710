"""Property tests for the cache server's wire protocol.

The frame codec is the trust boundary between fleet hosts: anything that
round-trips must come back bit-identical, and anything malformed — bad magic,
foreign versions, lying length fields, flipped payload bits — must be
rejected as :class:`WireProtocolError` before a byte of it is believed.  The
queue record codec is held to the same standard: a record decodes bit-equal
to the queue it came from, and anything else, from a pickle an older build
stored to a valid record filed under another key, is a
:class:`WirePayloadError`.  The live-server fuzz tests additionally pin the
operational contract: garbage on a connection kills *that connection* at
most, never the server.
"""

import json
import pickle
import socket
import struct
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.opq import build_optimal_priority_queue
from repro.core.bins import TaskBinSet
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set
from repro.engine.backends import RemoteBackend
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
from repro.engine.cache import PlanCache
from repro.engine.fingerprint import opq_key
from repro.engine.telemetry import Telemetry

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


TABLE1 = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]
MENUS = {"jelly": jelly_bin_set(20), "smic": smic_bin_set(20)}

#: Memo index 33,554,432 in six bytes: ``pickle.loads`` sizes its memo for
#: it, 512 MB, before it runs out of input.
MEMO_BOMB = b")r\x00\x00\x00\x02"


@st.composite
def sub_menus(draw):
    """Two to five bins of the Jelly or SMIC 20-bin menu, at epoch 0-3."""
    menu = MENUS[draw(st.sampled_from(sorted(MENUS)))]
    cardinalities = draw(st.lists(
        st.sampled_from([b.cardinality for b in menu]),
        min_size=2, max_size=5, unique=True,
    ))
    return TaskBinSet(
        (menu[cardinality] for cardinality in cardinalities),
        name=draw(st.text(max_size=8)),
        calibration_epoch=draw(st.integers(min_value=0, max_value=3)),
    )


def table1_queue():
    """The Table 1 menu's queue at t = 0.95, and its key."""
    bins = TaskBinSet.from_triples(TABLE1, name="t")
    return build_optimal_priority_queue(bins, 0.95), opq_key(bins, 0.95)


def assert_refused(record, key):
    with pytest.raises(WirePayloadError):
        decode_queue(json.dumps(record).encode(), key)


def raw_exchange(server, op, key, payload=b""):
    """One frame to ``server`` and its reply, bypassing any client codec."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.settimeout(5)
        sock.sendall(encode_frame(op, encode_key(key), payload))
        return read_frame_from_socket(sock)


class TestQueuePayloadCodec:
    def test_round_trip_preserves_queue_content(self):
        queue, key = table1_queue()
        restored = decode_queue(encode_queue(queue), key)
        assert restored.threshold == queue.threshold
        assert [(c.counts, c.lcm) for c in restored] == [
            (c.counts, c.lcm) for c in queue
        ]

    @settings(max_examples=60, deadline=None)
    @given(bins=sub_menus(), threshold=st.floats(min_value=0.5, max_value=0.99))
    def test_record_round_trip_is_bit_equal(self, bins, threshold):
        queue = build_optimal_priority_queue(bins, threshold)
        payload = encode_queue(queue)
        key = opq_key(bins, threshold)  # reads, and memoises, the fingerprint
        assert encode_queue(queue) == payload
        restored = decode_queue(payload, key)
        assert restored.threshold == threshold
        assert restored.stats == queue.stats
        assert [(c.counts, c.lcm, c.unit_cost, c.residual) for c in restored] == [
            (c.counts, c.lcm, c.unit_cost, c.residual) for c in queue
        ]
        menu = restored.head.bins
        assert (menu.name, menu.calibration_epoch, menu.bins()) == (
            bins.name, bins.calibration_epoch, bins.bins()
        )

    @example(garbage=MEMO_BOMB)
    @given(garbage=st.binary(max_size=256))
    def test_garbage_payloads_rejected(self, garbage):
        try:
            decode_queue(garbage, ("fingerprint", "token"))
        except WirePayloadError:
            pass
        else:  # pragma: no cover - would mean garbage decoded into a queue
            pytest.fail("garbage bytes decoded into a queue")

    def test_memo_bomb_is_refused_fast_and_small(self):
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(WirePayloadError):
                decode_queue(MEMO_BOMB, ("fingerprint", "token"))
            elapsed = time.perf_counter() - started
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05
        assert peak < 1 << 20

    def test_pickles_from_older_builds_are_refused(self):
        bins = TaskBinSet.from_triples(TABLE1, name="t")
        queue = build_optimal_priority_queue(bins, 0.95)
        payload = pickle.dumps(queue, protocol=4)  # the format older builds stored
        with pytest.raises(WirePayloadError):
            decode_queue(payload, opq_key(bins, 0.95))

    def test_record_filed_under_another_key_is_refused(self):
        queue, key = table1_queue()
        bins = queue.head.bins
        payload = encode_queue(queue)
        for other_key in (
            opq_key(TaskBinSet.from_triples(TABLE1[:2]), 0.95),
            opq_key(bins.with_epoch(1), 0.95),
            opq_key(bins, 0.9),
        ):
            assert other_key != key
            with pytest.raises(WirePayloadError, match="another key"):
                decode_queue(payload, other_key)

    @pytest.mark.parametrize("field, index, value", [
        ("bins", (2, 1), 0.99),   # a forged confidence
        ("bins", (0, 2), 0.01),   # a forged cost
        ("epoch", None, 1),
    ])
    def test_forged_menu_under_the_genuine_key_is_refused(self, field, index, value):
        queue, key = table1_queue()
        record = json.loads(encode_queue(queue))
        if index is None:
            record["menu"][field] = value
        else:
            record["menu"][field][index[0]][index[1]] = value
        assert_refused(record, key)

    @pytest.mark.parametrize("frontier", [
        pytest.param([[[1, 2]], [[2, 2]], [[3, 2]]], id="reversed"),
        pytest.param([[[3, 2]], [[3, 3]]], id="lcm-not-decreasing"),
        pytest.param([[[2, 1], [3, 1]], [[3, 2]]], id="unit-cost-not-rising"),
        pytest.param([[[3, 1]]], id="infeasible"),
        pytest.param([[[3, 2.0]]], id="float-count"),
        pytest.param([[[3, 2]], [[1, True], [2, 1]]], id="bool-count"),
        pytest.param([[[3, "2"]]], id="string-count"),
        pytest.param([[[3, 2], [1, 0]]], id="zero-count"),
        pytest.param([[[3, 2], [1, -1]]], id="negative-count"),
        pytest.param([[[4, 2]]], id="unknown-bin"),
        pytest.param([[[3, 2, 1]]], id="not-a-pair"),
        pytest.param([[]], id="empty-element"),
        pytest.param([], id="empty"),
    ])
    def test_malformed_frontier_is_refused(self, frontier):
        queue, key = table1_queue()
        record = json.loads(encode_queue(queue))
        assert record["frontier"] == [[[3, 2]], [[2, 2]], [[1, 2]]]
        assert_refused(dict(record, frontier=frontier), key)

    @pytest.mark.parametrize("change", [
        {"kind": "lineage"},
        {"version": 2},
        {"stats": {"nodes": "many"}},
        {"stats": [1, 2]},
    ])
    def test_other_kinds_versions_and_counters_are_refused(self, change):
        queue, key = table1_queue()
        record = json.loads(encode_queue(queue))
        assert len(decode_queue(json.dumps(record).encode(), key)) == len(queue)
        assert_refused(dict(record, **change), key)

    def test_older_pickle_on_the_server_is_purged_counted_and_rebuilt(self):
        bins = TaskBinSet.from_triples(TABLE1, name="t")
        payload = pickle.dumps(build_optimal_priority_queue(bins, 0.95), protocol=4)
        key = opq_key(bins, 0.95)
        telemetry = Telemetry()
        with CacheServerThread() as server:
            assert raw_exchange(server, OP_PUT, key, payload).op == REPLY_OK
            backend = RemoteBackend(server.host, server.port, telemetry=telemetry)
            try:
                assert backend.get(key) is None
                assert key not in backend  # purged from the server
                assert telemetry.counter("remote_cache.corrupt_payloads") == 1
                queue = PlanCache(backend=backend).queue_for(bins, 0.95)
                stored = raw_exchange(server, OP_GET, key).payload
                assert stored == encode_queue(queue)
                assert json.loads(stored)["kind"] == "opq_queue"
                restored = backend.get(key)
                assert [c.counts for c in restored] == [c.counts for c in queue]
                assert telemetry.counter("remote_cache.corrupt_payloads") == 1
            finally:
                backend.close()


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
