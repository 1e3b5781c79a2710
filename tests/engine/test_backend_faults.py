"""Fault injection for the networked plan-cache backends.

The serving-path contract under test: **the shared cache is an accelerator,
never a dependency**.  Whatever the cache servers do — die mid-stream, store
corrupt bytes, answer truncated or checksum-broken frames, or hang past the
client timeout — every solve request must still succeed with a plan
byte-identical to a cache-less run, the only observable difference being
fail-open/corruption telemetry counters.

The sharded-fleet chaos layer extends the same contract across a
consistent-hash ring: killing one of three shards under a replicated ring
must preserve the warm hit rate (reads fail over to the surviving replica),
killing *every* shard must degrade to local rebuilds, and a ``--persist``
server restarted as a real subprocess must come back with all of its keys.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.bins import TaskBinSet
from repro.core.problem import SladeProblem
from repro.engine.backends import RemoteBackend
from repro.engine.backends.server import CacheServerThread
from repro.engine.backends.wire import (
    HEADER,
    OP_CONTAINS,
    OP_PUT,
    REPLY_MISS,
    REPLY_VALUE,
    decode_header,
    encode_frame,
    encode_key,
    read_frame_from_socket,
)
from repro.engine.fingerprint import opq_key
from repro.engine.telemetry import Telemetry
from repro.io.serialization import plan_to_dict
from repro.service import ServiceConfig, SladeService, SolveRequest

TRIPLES = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]


@pytest.fixture
def bins():
    return TaskBinSet.from_triples(TRIPLES, name="table1")


def plan_bytes(plan) -> bytes:
    return json.dumps(plan_to_dict(plan), sort_keys=True).encode("utf-8")


def problems(bins, count=3, threshold=0.95):
    return [
        SladeProblem.homogeneous(40 + 10 * i, threshold, bins, name=f"fault-{i}")
        for i in range(count)
    ]


def baseline_plan_bytes(bins):
    """Plans from a cache-less (in-memory, fresh) service run."""
    with SladeService(ServiceConfig()) as service:
        return [
            plan_bytes(service.solve(SolveRequest(problem=p)).plan)
            for p in problems(bins)
        ]


def solve_all(service, bins):
    responses = [
        service.solve(SolveRequest(problem=p)) for p in problems(bins)
    ]
    assert all(r.ok for r in responses), [
        str(r.error) for r in responses if not r.ok
    ]
    return [plan_bytes(r.plan) for r in responses]


class _FaultyServer(threading.Thread):
    """A TCP server that reads one valid request frame, then misbehaves.

    Modes
    -----
    ``silent``   — never answers (client read times out).
    ``truncate`` — answers the first half of a valid VALUE frame, then closes.
    ``garbage``  — answers bytes that are not a frame at all.
    ``badsum``   — answers a VALUE frame whose payload byte was flipped after
                   checksumming (detected by the frame-level CRC).
    ``trickle``  — answers a valid frame one byte at a time, each byte just
                   under the per-recv timeout (defeated only by the
                   whole-round-trip deadline).
    """

    def __init__(self, mode: str) -> None:
        super().__init__(daemon=True)
        self.mode = mode
        self.requests_seen = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._closing = False
        self.start()

    def run(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with conn:
                try:
                    self._serve_one(conn)
                except OSError:
                    pass

    def _serve_one(self, conn: socket.socket) -> None:
        conn.settimeout(5)
        header = self._recv(conn, HEADER.size)
        if header is None:
            return
        _op, key_len, payload_len, _crc = decode_header(header)
        if self._recv(conn, key_len + payload_len) is None:
            return
        self.requests_seen += 1
        reply = encode_frame(REPLY_VALUE, payload=b"x" * 64)
        if self.mode == "silent":
            time.sleep(2.0)
        elif self.mode == "truncate":
            conn.sendall(reply[: len(reply) // 2])
        elif self.mode == "garbage":
            conn.sendall(b"\xde\xad\xbe\xef" * 8)
        elif self.mode == "badsum":
            broken = bytearray(reply)
            broken[-1] ^= 0xFF
            conn.sendall(bytes(broken))
        elif self.mode == "trickle":
            for index in range(len(reply)):
                if self._closing:
                    return
                conn.sendall(reply[index:index + 1])
                time.sleep(0.2)

    @staticmethod
    def _recv(conn: socket.socket, count: int):
        data = b""
        while len(data) < count:
            chunk = conn.recv(count - len(data))
            if not chunk:
                return None
            data += chunk
        return data

    def close(self) -> None:
        self._closing = True
        self._listener.close()


class TestServerDeath:
    def test_unreachable_server_solves_locally(self, bins):
        # Nothing ever listened here: every round trip fails open.
        expected = baseline_plan_bytes(bins)
        telemetry = Telemetry()
        dead_port = _claim_dead_port()
        with SladeService(
            ServiceConfig(
                cache_backend=f"remote://127.0.0.1:{dead_port}?timeout=0.2"
            ),
            telemetry=telemetry,
        ) as service:
            assert solve_all(service, bins) == expected
            stats = service.cache_stats
        # Every queue request degraded to a local rebuild (a miss)...
        assert stats.hits == 0
        assert stats.misses >= 1
        # ...and the degradation is visible to operators, not to callers.
        assert telemetry.counter("remote_cache.fail_open") > 0

    def test_server_killed_mid_stream_degrades_to_local_rebuilds(self, bins):
        expected = baseline_plan_bytes(bins)
        server = CacheServerThread()
        telemetry = Telemetry()
        service = SladeService(
            ServiceConfig(
                cache_backend=(
                    f"remote://{server.host}:{server.port}?timeout=0.5"
                )
            ),
            telemetry=telemetry,
        )
        try:
            # Warm the fleet, then kill the server under the service's feet.
            first = service.solve(SolveRequest(problem=problems(bins)[0]))
            assert first.ok and first.cache == "miss"
            server.stop()
            assert solve_all(service, bins) == expected
            assert telemetry.counter("remote_cache.fail_open") > 0
        finally:
            service.close()
            server.stop()

    def test_tiered_near_tier_survives_far_tier_death(self, bins):
        expected = baseline_plan_bytes(bins)
        server = CacheServerThread()
        telemetry = Telemetry()
        service = SladeService(
            ServiceConfig(
                cache_backend=(
                    f"tiered:memory+remote://{server.host}:{server.port}"
                    "?timeout=0.5"
                )
            ),
            telemetry=telemetry,
        )
        try:
            warm = solve_all(service, bins)
            assert warm == expected
            server.stop()
            # The promoted near tier keeps answering in-process: no fail-open
            # round trips at all for already-hot fingerprints.
            fail_opens_before = telemetry.counter("remote_cache.fail_open")
            assert solve_all(service, bins) == expected
            assert (
                telemetry.counter("remote_cache.fail_open") == fail_opens_before
            )
            assert telemetry.counter("tiered.local_hits") >= len(expected)
        finally:
            service.close()
            server.stop()


class TestCorruptPayloads:
    def test_corrupt_server_entry_is_detected_purged_and_rebuilt(self, bins):
        expected = baseline_plan_bytes(bins)
        with CacheServerThread() as server:
            key = opq_key(bins, 0.95)
            _store_raw(server, encode_key(key), b"this is not a pickle")

            telemetry = Telemetry()
            with SladeService(
                ServiceConfig(
                    cache_backend=f"remote://{server.host}:{server.port}"
                ),
                telemetry=telemetry,
            ) as service:
                assert solve_all(service, bins) == expected
                # The poisoned entry was detected and counted...
                assert telemetry.counter("remote_cache.corrupt_payloads") == 1
                # ...purged and repaired by the local rebuild's write-through,
                # so a fresh client now gets a genuine hit.
                probe = RemoteBackend(server.host, server.port)
                restored = probe.get(key)
                assert restored is not None
                assert restored.threshold == 0.95
                assert probe.corrupt_payloads == 0
                probe.close()

    def test_foreign_pickle_is_rejected_not_trusted(self, bins):
        # A well-formed pickle of the wrong type must not leak into solves.
        import pickle

        with CacheServerThread() as server:
            key = opq_key(bins, 0.95)
            _store_raw(server, encode_key(key), pickle.dumps(["wrong", "type"]))
            backend = RemoteBackend(server.host, server.port)
            assert backend.get(key) is None
            assert backend.corrupt_payloads == 1
            backend.close()


class TestWireFaults:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "badsum"])
    def test_broken_reply_frames_fail_open(self, bins, mode):
        expected = baseline_plan_bytes(bins)
        server = _FaultyServer(mode)
        telemetry = Telemetry()
        try:
            with SladeService(
                ServiceConfig(
                    cache_backend=f"remote://127.0.0.1:{server.port}?timeout=0.5"
                ),
                telemetry=telemetry,
            ) as service:
                assert solve_all(service, bins) == expected
            assert server.requests_seen > 0
            assert telemetry.counter("remote_cache.fail_open") > 0
            assert telemetry.counter("remote_cache.corrupt_payloads") == 0
        finally:
            server.close()

    def test_slow_server_past_timeout_fails_open_within_bound(self, bins):
        expected = baseline_plan_bytes(bins)
        server = _FaultyServer("silent")
        telemetry = Telemetry()
        try:
            with SladeService(
                ServiceConfig(
                    cache_backend=f"remote://127.0.0.1:{server.port}?timeout=0.3"
                ),
                telemetry=telemetry,
            ) as service:
                started = time.perf_counter()
                plans = solve_all(service, bins)
                elapsed = time.perf_counter() - started
            assert plans == expected
            assert telemetry.counter("remote_cache.fail_open") > 0
            # The timeout bounds every round trip.  Worst case here is three
            # solves x three round trips (contains/get/put) x 0.3 s = 2.7 s;
            # blocking on the server's 2 s sleep instead would take >= 18 s.
            assert elapsed < 4.5, f"fail-open took {elapsed:.2f}s"
        finally:
            server.close()

    def test_trickling_server_is_bounded_by_the_round_trip_deadline(self, bins):
        # One byte per 0.2 s with a 0.3 s timeout: the per-recv timeout never
        # fires, so only the whole-round-trip deadline prevents a ~26 s
        # stall per GET (a 130-byte frame at 0.2 s/byte).
        expected = baseline_plan_bytes(bins)
        server = _FaultyServer("trickle")
        telemetry = Telemetry()
        try:
            with SladeService(
                ServiceConfig(
                    cache_backend=f"remote://127.0.0.1:{server.port}?timeout=0.3"
                ),
                telemetry=telemetry,
            ) as service:
                started = time.perf_counter()
                plans = solve_all(service, bins)
                elapsed = time.perf_counter() - started
            assert plans == expected
            assert telemetry.counter("remote_cache.fail_open") > 0
            # Same arithmetic as the silent server: every round trip is cut
            # off at ~0.3 s no matter how the bytes dribble in.
            assert elapsed < 4.5, f"trickle fail-open took {elapsed:.2f}s"
        finally:
            server.close()


class TestEquivalenceAcrossBackends:
    def test_remote_and_memory_paths_produce_identical_plans(self, bins):
        expected = baseline_plan_bytes(bins)
        with CacheServerThread() as server:
            for spec in (
                f"remote://{server.host}:{server.port}",
                f"tiered:memory+remote://{server.host}:{server.port}",
            ):
                with SladeService(
                    ServiceConfig(cache_backend=spec)
                ) as service:
                    assert solve_all(service, bins) == expected
                # And again, served purely from the shared cache.
                with SladeService(
                    ServiceConfig(cache_backend=spec)
                ) as warm_service:
                    assert solve_all(warm_service, bins) == expected
                    assert warm_service.cache_stats.misses == 0


#: Distinct fingerprints for the sharded chaos runs: enough keys that every
#: shard in a three-way ring owns some, so a shard death always matters.
_FLEET_THRESHOLDS = (0.90, 0.92, 0.93, 0.95, 0.96, 0.97)


def fleet_problems(bins):
    return [
        SladeProblem.homogeneous(
            40 + 5 * i, threshold, bins, name=f"fleet-{i}"
        )
        for i, threshold in enumerate(_FLEET_THRESHOLDS)
    ]


def solve_fleet(service, bins):
    responses = [
        service.solve(SolveRequest(problem=p)) for p in fleet_problems(bins)
    ]
    assert all(r.ok for r in responses), [
        str(r.error) for r in responses if not r.ok
    ]
    return [plan_bytes(r.plan) for r in responses]


def fleet_baseline(bins):
    with SladeService(ServiceConfig()) as service:
        return solve_fleet(service, bins)


class TestShardedFleetChaos:
    """Kill-a-shard chaos for the consistent-hash ring (replication factor 2)."""

    def _sharded_spec(self, servers, timeout=0.5):
        hosts = ",".join(s.address for s in servers)
        return f"sharded://{hosts}?replicas=2&timeout={timeout}"

    def test_killing_one_of_three_shards_preserves_warmth(self, bins):
        expected = fleet_baseline(bins)
        servers = [CacheServerThread() for _ in range(3)]
        telemetry = Telemetry()
        service = SladeService(
            ServiceConfig(cache_backend=self._sharded_spec(servers)),
            telemetry=telemetry,
        )
        try:
            # Warm the ring: every fingerprint lands on two shards.
            assert solve_fleet(service, bins) == expected
            warm_stats = service.cache_stats
            assert warm_stats.misses == len(_FLEET_THRESHOLDS)

            # Kill one shard mid-run.  Every key kept a replica, so reads
            # fail over with byte-identical plans and zero request errors.
            servers[0].stop()
            assert solve_fleet(service, bins) == expected
            after = service.cache_stats.since(warm_stats)
            assert after.requests == len(_FLEET_THRESHOLDS)
            # The acceptance bar: >= 95% warm after any single shard death
            # (with R=2 every key survives, so this is exactly 100%).
            assert after.hit_rate >= 0.95
            assert after.misses == 0
            # The dead shard's keys were served by fail-over...
            assert telemetry.counter("sharded_cache.hits") >= len(
                _FLEET_THRESHOLDS
            )
            # ...never by the whole-ring fail-open path.
            assert telemetry.counter("sharded_cache.fail_open") == 0
        finally:
            service.close()
            for server in servers:
                server.stop()

    def test_killing_every_shard_fails_open_to_local_rebuilds(self, bins):
        expected = fleet_baseline(bins)
        servers = [CacheServerThread() for _ in range(3)]
        telemetry = Telemetry()
        service = SladeService(
            ServiceConfig(
                cache_backend=self._sharded_spec(servers, timeout=0.3)
            ),
            telemetry=telemetry,
        )
        try:
            assert solve_fleet(service, bins) == expected
            for server in servers:
                server.stop()
            # The whole ring is dark: every read degrades to a local rebuild
            # (a miss), yet every request still succeeds byte-identically.
            assert solve_fleet(service, bins) == expected
            assert telemetry.counter("sharded_cache.fail_open") >= len(
                _FLEET_THRESHOLDS
            )
            assert telemetry.counter("remote_cache.fail_open") > 0
        finally:
            service.close()
            for server in servers:
                server.stop()

    def test_read_failover_repairs_replication(self, bins):
        # After a shard bounce (restart without --persist), reads must both
        # fail over AND write the entry back, so the ring re-converges to
        # full replication without any operator action.
        servers = [CacheServerThread() for _ in range(3)]
        telemetry = Telemetry()
        service = SladeService(
            ServiceConfig(cache_backend=self._sharded_spec(servers)),
            telemetry=telemetry,
        )
        try:
            solve_fleet(service, bins)
            # Empty one shard in place (same address, cold store).  Ring
            # placement follows the OS-assigned ports, so bounce the primary
            # of a fleet key: reads repair only the successors before the
            # replica that answers, never a lost secondary copy.
            key = opq_key(bins, _FLEET_THRESHOLDS[0])
            primary = service.cache.backend.owners(key)[0]
            bounced = next(s.server for s in servers if s.address == primary)
            bounced._entries.clear()
            bounced._bytes_stored = 0
            assert service.cache_stats.misses == len(_FLEET_THRESHOLDS)
            solve_fleet(service, bins)
            assert service.cache_stats.misses == len(_FLEET_THRESHOLDS)
            assert telemetry.counter("sharded_cache.rebalances") > 0
        finally:
            service.close()
            for server in servers:
                server.stop()


class TestPersistentServerRestart:
    """`repro cached --persist` keeps the fleet's warmth across restarts."""

    @staticmethod
    def _spawn_cached(env, persist: Path) -> "tuple[subprocess.Popen, str]":
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "cached", "127.0.0.1:0",
             "--persist", str(persist)],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        banner = proc.stderr.readline().strip()
        assert banner.startswith("cache listening on "), banner
        return proc, banner.rsplit(" ", 1)[1]

    @staticmethod
    def _terminate(proc: subprocess.Popen) -> None:
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=20)
        assert proc.returncode == 0, err

    def test_restarted_persist_server_serves_full_warm_hit_rate(
        self, bins, tmp_path
    ):
        env = dict(os.environ)
        src_root = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
        persist = tmp_path / "fleet-warmth.db"

        first_proc, address = self._spawn_cached(env, persist)
        try:
            with SladeService(
                ServiceConfig(cache_backend=f"remote://{address}")
            ) as service:
                first_plans = solve_fleet(service, bins)
                assert service.cache_stats.misses == len(_FLEET_THRESHOLDS)
            self._terminate(first_proc)
            assert persist.exists()

            # Same persistence file, fresh process, fresh port: the warmth
            # must come back from disk.
            second_proc, address = self._spawn_cached(env, persist)
            try:
                probe = RemoteBackend(*_split(address))
                stats = probe.server_stats()
                probe.close()
                assert stats["restored_keys"] == len(_FLEET_THRESHOLDS)

                with SladeService(
                    ServiceConfig(cache_backend=f"remote://{address}")
                ) as warm_service:
                    assert solve_fleet(warm_service, bins) == first_plans
                    warm = warm_service.cache_stats
                    # 100% warm: every request a hit, zero cold builds.
                    assert warm.misses == 0
                    assert warm.hit_rate == 1.0
            finally:
                if second_proc.poll() is None:
                    self._terminate(second_proc)
        finally:
            if first_proc.poll() is None:
                first_proc.kill()
                first_proc.communicate()


def _split(address: str) -> "tuple[str, int]":
    host, _, port = address.rpartition(":")
    return host, int(port)


def _claim_dead_port() -> int:
    """A port with nothing listening (bound then released)."""
    with socket.create_server(("127.0.0.1", 0)) as probe:
        return probe.getsockname()[1]


def _store_raw(server: CacheServerThread, key: bytes, payload: bytes) -> None:
    """PUT arbitrary bytes straight onto the server (bypassing the client)."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.settimeout(5)
        sock.sendall(encode_frame(OP_PUT, key, payload))
        reply = read_frame_from_socket(sock)
        assert reply.op != REPLY_MISS
        sock.sendall(encode_frame(OP_CONTAINS, key))
        assert read_frame_from_socket(sock).op != REPLY_MISS
