"""Tiered cache storage: an in-process LRU in front of shared storage.

A bare :class:`~repro.engine.backends.remote.RemoteBackend` pays a network
round trip (plus a record decode) on *every* hit, and a bare
:class:`~repro.engine.backends.sqlite.SQLiteBackend` pays file I/O across
processes.  :class:`TieredBackend` keeps both honest: a near tier (a
:class:`~repro.engine.backends.memory.MemoryBackend`, optionally LRU-bounded)
answers hot fingerprints by reference in-process, while the far tier (remote
or SQLite) shares warmth across the fleet.

Semantics:

* **read** — near tier first; on a far-tier hit the entry is *promoted* into
  the near tier so the next request is in-process.
* **write** — write-through: a freshly built queue lands in both tiers, so a
  single cold build on any host warms every sibling.
* **failure** — the far tier's own fail-open behaviour is preserved; the near
  tier keeps serving its residents even with the far tier gone.

Per-tier traffic is reported to telemetry as ``tiered.local_hits`` /
``tiered.remote_hits`` (far-tier promotions) / ``tiered.misses``, alongside
whatever the far tier reports for itself.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.algorithms.opq import OptimalPriorityQueue
from repro.engine.backends.base import CacheBackend
from repro.engine.fingerprint import OPQKey
from repro.engine.telemetry import Telemetry


class TieredBackend:
    """A near (in-process) tier in front of a far (shared) tier.

    Parameters
    ----------
    local:
        The near tier; a :class:`~repro.engine.backends.memory.MemoryBackend`
        (optionally bounded) in every supported configuration.
    remote:
        The far tier: a :class:`~repro.engine.backends.remote.RemoteBackend`
        or a :class:`~repro.engine.backends.sqlite.SQLiteBackend`.
    telemetry:
        Optional registry for per-tier counters; assigning
        :attr:`telemetry` later (as :class:`~repro.engine.cache.PlanCache`
        does) propagates to the far tier when it can report telemetry of its
        own.
    """

    def __init__(
        self,
        local: CacheBackend,
        remote: CacheBackend,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.local = local
        self.remote = remote
        self._telemetry: Optional[Telemetry] = None
        self.telemetry = telemetry
        self.local_hits = 0
        self.remote_hits = 0
        self.misses = 0

    # -- telemetry plumbing ----------------------------------------------------

    @property
    def telemetry(self) -> Optional[Telemetry]:
        return self._telemetry

    @telemetry.setter
    def telemetry(self, registry: Optional[Telemetry]) -> None:
        self._telemetry = registry
        if registry is not None and getattr(self.remote, "telemetry", False) is None:
            self.remote.telemetry = registry

    def _count(self, name: str) -> None:
        if self._telemetry is not None:
            self._telemetry.increment(name)

    # -- storage protocol ------------------------------------------------------

    @property
    def persistent(self) -> bool:
        """The tier pair survives restarts iff the far tier does."""
        return bool(getattr(self.remote, "persistent", False))

    @property
    def concurrent_safe(self) -> bool:
        """Safe for concurrent per-key leaders iff both tiers are.

        This is what keeps distinct fingerprints from serialising behind one
        another's far-tier network round trips in
        :class:`~repro.engine.cache.PlanCache`.
        """
        return bool(getattr(self.local, "concurrent_safe", False)) and bool(
            getattr(self.remote, "concurrent_safe", False)
        )

    @property
    def max_entries(self) -> Optional[int]:
        """The near tier's bound (the far tier bounds itself)."""
        return getattr(self.local, "max_entries", None)

    @property
    def evictions(self) -> int:
        """Combined evictions across both tiers (telemetry convention)."""
        return getattr(self.local, "evictions", 0) + getattr(
            self.remote, "evictions", 0
        )

    def get(self, key: OPQKey) -> Optional[OptimalPriorityQueue]:
        queue = self.local.get(key)
        if queue is not None:
            self.local_hits += 1
            self._count("tiered.local_hits")
            return queue
        queue = self.remote.get(key)
        if queue is not None:
            # Promote: the next request for this fingerprint is in-process.
            self.local.put(key, queue)
            self.remote_hits += 1
            self._count("tiered.remote_hits")
            return queue
        self.misses += 1
        self._count("tiered.misses")
        return None

    def put(self, key: OPQKey, queue: OptimalPriorityQueue) -> None:
        # Write-through: one cold build warms the whole fleet.
        self.local.put(key, queue)
        self.remote.put(key, queue)

    def delete(self, key: OPQKey) -> bool:
        """Purge ``key`` from *both* tiers.

        Order matters: the far tier goes first so a concurrent reader that
        races the purge cannot re-promote the entry into a near tier that
        was already cleaned (promotion's source is gone by the time the near
        tier is purged).  The far tier's own fail-open semantics are
        preserved (an unreachable far tier reports ``False`` there).
        """
        far = bool(self.remote.delete(key))
        near = bool(self.local.delete(key))
        return near or far

    def clear(self) -> None:
        self.local.clear()
        self.remote.clear()

    def close(self) -> None:
        self.local.close()
        self.remote.close()

    def __len__(self) -> int:
        # Write-through keeps the near tier a subset of the far tier, minus
        # far-tier outages; the larger count is the better estimate.
        return max(len(self.local), len(self.remote))

    def __contains__(self, key: OPQKey) -> bool:
        return key in self.local or key in self.remote

    # -- observability ---------------------------------------------------------

    def extra_metrics(self) -> Dict[str, float]:
        """Near-tier gauges plus whatever the far tier exposes."""
        metrics = {"tiered.local_entries": float(len(self.local))}
        far = getattr(self.remote, "extra_metrics", None)
        if far is not None:
            metrics.update(far())
        return metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TieredBackend(local={type(self.local).__name__}, "
            f"remote={type(self.remote).__name__})"
        )
