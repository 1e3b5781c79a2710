"""Sharded plan-cache storage: a consistent-hash ring over cache servers.

One ``repro cached`` process is the fleet's single point of warmth: if it
dies every host falls back to cold Algorithm 2 builds, and one process bounds
total cache capacity.  :class:`ShardedBackend` spreads fingerprints over *N*
servers with a consistent-hash ring (:class:`HashRing`) and keeps each entry
on *R* consecutive ring successors, so the fleet tolerates ``R - 1``
simultaneous shard deaths with zero lost warmth and scales capacity linearly
with shard count.

Semantics, in priority order:

1. **Fail open, always.**  Each shard is reached through a
   :class:`~repro.engine.backends.remote.RemoteBackend` with its own
   timeouts; a dead shard is skipped, and when *every* replica of a key is
   unreachable the read is a miss (``sharded_cache.fail_open``) — the caller
   rebuilds locally, exactly like the single-server backend.
2. **Read with fail-over.**  A read walks the key's ``R`` successors in ring
   order and answers from the first shard that has the entry.  Answering
   from a non-primary replica (because an earlier successor was down or
   missing the key) counts ``sharded_cache.failovers`` plus the serving
   shard's own ``...failovers`` counter.
3. **Write through to every replica.**  A PUT lands on all ``R`` successors
   (best effort per shard), so one cold build warms every replica at once.
4. **Repair on read.**  When a replica answers a read that an earlier
   *reachable* successor missed (a restarted or freshly joined shard), the
   entry is written back to the lagging shard — counted as
   ``sharded_cache.rebalances``.  Only successors *before* the answering
   replica are repaired: a lost copy on a later successor stays lost while
   an earlier one keeps answering (checking it would cost a round trip per
   hit), so a bounced shard regains the keys it is primary for, not its
   secondary copies.

The ring uses SHA-256 points with configurable virtual nodes per endpoint
(``vnodes``), giving the two properties the property tests pin down: keys
spread evenly across shards, and removing one endpoint remaps only that
endpoint's ~1/N share of the keyspace (minimal disruption).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms.opq import OptimalPriorityQueue
from repro.engine.backends.remote import (
    DEFAULT_POOL_SIZE,
    DEFAULT_TIMEOUT,
    RemoteBackend,
)
from repro.engine.backends.wire import encode_key
from repro.engine.fingerprint import OPQKey
from repro.engine.telemetry import Telemetry

#: Default virtual nodes per endpoint.  128 points per shard keeps the
#: largest shard's share within a few tens of percent of ideal for small
#: fleets while ring construction stays sub-millisecond.
DEFAULT_VNODES = 128

#: Default replication factor: every entry lives on two consecutive ring
#: successors, so any single shard death preserves full warmth.
DEFAULT_REPLICAS = 2


def _ring_hash(data: bytes) -> int:
    """A stable 64-bit ring coordinate (process-salt-free, cross-host)."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring mapping byte keys onto endpoint labels.

    Each endpoint owns ``vnodes`` pseudo-random points on a 64-bit circle; a
    key belongs to the endpoints owning the first points at or after the
    key's own coordinate (its *successors*).  The layout is a pure function
    of the endpoint labels and ``vnodes`` — independent of insertion order —
    so every client in a fleet computes identical placements.
    """

    def __init__(self, endpoints: Iterable[str], vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be positive; got {vnodes}")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._endpoints: List[str] = []
        for endpoint in endpoints:
            self.add(endpoint)

    @property
    def endpoints(self) -> Tuple[str, ...]:
        """The current endpoint labels, in insertion order."""
        return tuple(self._endpoints)

    def add(self, endpoint: str) -> None:
        """Place ``endpoint``'s virtual nodes on the ring."""
        if endpoint in self._endpoints:
            raise ValueError(f"endpoint {endpoint!r} is already on the ring")
        self._endpoints.append(endpoint)
        for index in range(self.vnodes):
            point = _ring_hash(f"{endpoint}#{index}".encode("utf-8"))
            self._points.append((point, endpoint))
        # Ties (two labels hashing to one point) break by label so the
        # layout stays deterministic across hosts.
        self._points.sort()

    def remove(self, endpoint: str) -> None:
        """Take ``endpoint``'s virtual nodes off the ring."""
        if endpoint not in self._endpoints:
            raise ValueError(f"endpoint {endpoint!r} is not on the ring")
        self._endpoints.remove(endpoint)
        self._points = [item for item in self._points if item[1] != endpoint]

    def successors(self, key: bytes, count: int) -> List[str]:
        """The first ``count`` distinct endpoints clockwise from ``key``.

        Fewer than ``count`` labels come back when the ring holds fewer
        endpoints; an empty ring yields an empty list.
        """
        if not self._points or count < 1:
            return []
        start = bisect_right(self._points, (_ring_hash(key), ""))
        found: List[str] = []
        for offset in range(len(self._points)):
            endpoint = self._points[(start + offset) % len(self._points)][1]
            if endpoint not in found:
                found.append(endpoint)
                if len(found) == count:
                    break
        return found

    def primary(self, key: bytes) -> Optional[str]:
        """The key's first successor (``None`` on an empty ring)."""
        owners = self.successors(key, 1)
        return owners[0] if owners else None

    def __len__(self) -> int:
        return len(self._endpoints)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(endpoints={len(self._endpoints)}, vnodes={self.vnodes})"


class ShardedBackend:
    """Plan-cache storage spread over a fleet of ``repro cached`` shards.

    Parameters
    ----------
    endpoints:
        ``(host, port)`` pairs of the cache servers, in any order (placement
        is order-independent).
    replicas:
        Ring successors each entry is written to; clamped to the endpoint
        count (a 3-replica config over 2 shards writes both).
    vnodes:
        Virtual nodes per endpoint on the hash ring.
    timeout / pool_size:
        Forwarded to every per-shard :class:`RemoteBackend`.
    telemetry:
        Optional registry for the aggregate and per-shard counters; also
        propagated to the per-shard clients so their ``remote_cache.*``
        fail-open and round-trip metrics land in the same snapshot.
    """

    #: Entries live on the shard servers; they survive this process.
    persistent = True

    #: Per-shard clients pool their own sockets under their own locks, so
    #: the plan cache may drive this backend from concurrent key-leaders.
    concurrent_safe = True

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        replicas: int = DEFAULT_REPLICAS,
        vnodes: int = DEFAULT_VNODES,
        timeout: float = DEFAULT_TIMEOUT,
        pool_size: int = DEFAULT_POOL_SIZE,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not endpoints:
            raise ValueError("sharded backend needs at least one endpoint")
        if replicas < 1:
            raise ValueError(f"replicas must be positive; got {replicas}")
        labels = [f"{host}:{port}" for host, port in endpoints]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate shard endpoints in {labels}")
        self.replicas = min(replicas, len(labels))
        self.shards: Dict[str, RemoteBackend] = {
            label: RemoteBackend(host, port, timeout=timeout, pool_size=pool_size)
            for label, (host, port) in zip(labels, endpoints)
        }
        self.ring = HashRing(labels, vnodes=vnodes)
        self._telemetry: Optional[Telemetry] = None
        self.telemetry = telemetry
        #: Client-side evictions never happen (shards bound themselves).
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        #: Reads answered by a non-primary replica.
        self.failovers = 0
        #: Reads where every replica was unreachable (degraded to a miss).
        self.fail_opens = 0
        #: Repair writes restoring replication on a lagging reachable shard.
        self.rebalances = 0
        self.shard_hits: Dict[str, int] = {label: 0 for label in labels}

    # -- telemetry plumbing ----------------------------------------------------

    @property
    def telemetry(self) -> Optional[Telemetry]:
        return self._telemetry

    @telemetry.setter
    def telemetry(self, registry: Optional[Telemetry]) -> None:
        self._telemetry = registry
        if registry is not None:
            for shard in self.shards.values():
                if shard.telemetry is None:
                    shard.telemetry = registry

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self._telemetry is not None:
            self._telemetry.increment(name, amount)

    # -- placement -------------------------------------------------------------

    def owners(self, key: OPQKey) -> List[str]:
        """The shard labels holding ``key``, primary first."""
        return self.ring.successors(encode_key(key), self.replicas)

    # -- storage protocol ------------------------------------------------------

    def get(self, key: OPQKey) -> Optional[OptimalPriorityQueue]:
        lagging: List[str] = []
        any_down = False
        for position, label in enumerate(self.owners(key)):
            queue, reachable = self.shards[label].try_get(key)
            if queue is not None:
                self.hits += 1
                self.shard_hits[label] += 1
                self._count("sharded_cache.hits")
                self._count(f"sharded_cache.shard.{label}.hits")
                if position > 0:
                    # An earlier successor was down or cold: the replica
                    # carried the read.
                    self.failovers += 1
                    self._count("sharded_cache.failovers")
                    self._count(f"sharded_cache.shard.{label}.failovers")
                self._repair(key, queue, lagging)
                return queue
            if reachable:
                lagging.append(label)
            else:
                any_down = True
        if any_down and not lagging:
            # Every replica unreachable: the fleet-wide fail-open path.
            self.fail_opens += 1
            self._count("sharded_cache.fail_open")
        else:
            self.misses += 1
            self._count("sharded_cache.misses")
        return None

    def _repair(
        self,
        key: OPQKey,
        queue: OptimalPriorityQueue,
        lagging: List[str],
    ) -> None:
        """Write ``key`` back to reachable shards that missed it.

        A shard that answered a CONTAINS/GET round trip but lacked the entry
        (restarted without ``--persist``, or newly joined the ring) regains
        its replica here.  ``lagging`` holds only successors walked before
        the answering replica, so a copy lost on a later successor is not
        repaired by reads.
        """
        for label in lagging:
            self.shards[label].put(key, queue)
            self.rebalances += 1
            self._count("sharded_cache.rebalances")
            self._count(f"sharded_cache.shard.{label}.rebalances")

    def put(self, key: OPQKey, queue: OptimalPriorityQueue) -> None:
        # Best effort per shard: a dead replica only costs future fail-over
        # reads, never a request error.
        for label in self.owners(key):
            self.shards[label].put(key, queue)

    def delete(self, key: OPQKey) -> bool:
        """Drop ``key`` from every replica that answers.

        Best effort per shard, like :meth:`put`: a dead replica keeps its
        stale copy until read repair next touches the key — but since
        invalidation accompanies a menu-epoch bump, nothing will ever ask
        for the stale key again, so the leftover copy only occupies space
        until the shard's own LRU reclaims it.
        """
        removed = False
        for label in self.owners(key):
            removed = self.shards[label].delete(key) or removed
        return removed

    def clear(self) -> None:
        for shard in self.shards.values():
            shard.clear()

    def close(self) -> None:
        for shard in self.shards.values():
            shard.close()

    def __len__(self) -> int:
        # Shards count replicated copies, so the distinct-key estimate is
        # the reachable total divided by the replication factor.
        total = 0
        for shard in self.shards.values():
            stats = shard.server_stats()
            if stats:
                total += int(stats.get("keys", 0))
        return round(total / self.replicas)

    def __contains__(self, key: OPQKey) -> bool:
        return any(key in self.shards[label] for label in self.owners(key))

    # -- observability ---------------------------------------------------------

    def extra_metrics(self) -> Dict[str, float]:
        """Per-shard server gauges plus a live-shard count (fail-open)."""
        metrics: Dict[str, float] = {
            "sharded_cache.shards": float(len(self.shards)),
            "sharded_cache.replicas": float(self.replicas),
        }
        shards_up = 0
        for label, shard in sorted(self.shards.items()):
            stats = shard.server_stats()
            if not stats:
                continue
            shards_up += 1
            prefix = f"sharded_cache.shard.{label}"
            metrics[f"{prefix}.server_keys"] = float(stats.get("keys", 0))
            metrics[f"{prefix}.server_bytes"] = float(stats.get("bytes", 0))
            metrics[f"{prefix}.server_evictions"] = float(
                stats.get("evictions", 0)
            )
        metrics["sharded_cache.shards_up"] = float(shards_up)
        return metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedBackend(shards={sorted(self.shards)}, "
            f"replicas={self.replicas}, vnodes={self.ring.vnodes})"
        )
