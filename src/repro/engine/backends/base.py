"""The storage contract behind :class:`~repro.engine.cache.PlanCache`.

The plan cache's *policy* (hit/miss counters, build timing, thread safety,
the ``QueueFactory`` signature) is independent of *where* queues live.  This
module pins the storage contract as a :class:`typing.Protocol` so the cache
can delegate to interchangeable backends: the in-process
:class:`~repro.engine.backends.memory.MemoryBackend` (the historical
behaviour) or the persistent
:class:`~repro.engine.backends.sqlite.SQLiteBackend` that survives restarts
and is shared between processes.

Backends store immutable values: the queue for a given
:data:`~repro.engine.fingerprint.OPQKey` is fully determined by the key
(Algorithm 2 is deterministic), so a stored entry is never *updated* in
place.  Entries can however become *irrelevant*: when a menu is recalibrated
to a new epoch its old keys will never be asked for again, so backends also
speak targeted per-key :meth:`CacheBackend.delete` — the drift-driven
invalidation path — alongside insertion, lookup and eviction.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.algorithms.opq import OptimalPriorityQueue
from repro.engine.fingerprint import OPQKey


@runtime_checkable
class CacheBackend(Protocol):
    """Storage interface for optimal-priority-queue cache entries.

    A backend that sets ``concurrent_safe = True`` (every backend in this
    package does; a tiered one when both its tiers do) is called by
    :class:`~repro.engine.cache.PlanCache` from several threads at once —
    per-key leaders, the drift sweep, ``/metrics`` scrapes — and must guard
    its own state.  Any other backend has its storage calls serialised on
    the cache's storage lock, except ``len()``, which counter snapshots read
    unlocked.  Either way, implementations must treat entries as immutable —
    two stores under the same key always carry equivalent queues.
    """

    #: Whether entries survive process restarts (drives warm-start reporting).
    persistent: bool

    def get(self, key: OPQKey) -> Optional[OptimalPriorityQueue]:
        """Return the stored queue for ``key``, or ``None`` on a miss.

        A successful lookup refreshes the entry's recency for eviction
        purposes (LRU semantics when the backend is bounded).
        """
        ...

    def put(self, key: OPQKey, queue: OptimalPriorityQueue) -> None:
        """Store ``queue`` under ``key``, evicting old entries if bounded."""
        ...

    def delete(self, key: OPQKey) -> bool:
        """Drop one stored entry; return whether anything was removed.

        Distributed backends treat deletion as best-effort fan-out (remove
        from every replica/tier that answers) and stay fail-open: an
        unreachable store is reported as ``False``, never an exception.
        """
        ...

    def clear(self) -> None:
        """Drop every stored entry."""
        ...

    def close(self) -> None:
        """Release external resources (no-op for in-memory backends)."""
        ...

    def __len__(self) -> int:
        """Number of stored entries."""
        ...

    def __contains__(self, key: OPQKey) -> bool:
        """Whether ``key`` is currently stored."""
        ...
