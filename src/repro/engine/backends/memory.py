"""In-process cache storage: an ordered dict with optional LRU eviction.

This is the historical storage of :class:`~repro.engine.cache.PlanCache`,
extracted behind the :class:`~repro.engine.backends.base.CacheBackend`
protocol.  Entries are held by reference, so a hit returns the *same* queue
object that was stored — solvers may therefore share one queue across
thousands of instances with zero copying.

Storage calls take an internal lock (cheap when uncontended), so the plan
cache's per-key leaders may touch the store concurrently — required for the
tiered backend's near tier, where a get/put must not wait behind another
key's far-tier network round trip.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.algorithms.opq import OptimalPriorityQueue
from repro.engine.fingerprint import OPQKey


class MemoryBackend:
    """Ordered-dict storage with optional LRU bound.

    Parameters
    ----------
    max_entries:
        Optional bound on the number of stored queues; the least recently
        *used* entry is evicted first.  ``None`` (the default) stores
        everything, which suits sweeps whose distinct ``(bins, threshold)``
        pairs number in the dozens.
    """

    persistent = False

    #: Every storage call is guarded by an internal lock, so the plan
    #: cache's concurrent per-key leaders need no extra serialisation.
    concurrent_safe = True

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive; got {max_entries}")
        self.max_entries = max_entries
        #: Entries dropped by the LRU bound since construction (telemetry).
        self.evictions = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[OPQKey, OptimalPriorityQueue]" = OrderedDict()

    def get(self, key: OPQKey) -> Optional[OptimalPriorityQueue]:
        with self._lock:
            queue = self._entries.get(key)
            if queue is not None:
                self._entries.move_to_end(key)
            return queue

    def peek(self, key: OPQKey) -> Optional[OptimalPriorityQueue]:
        """A read that does *not* refresh LRU recency.

        The plan cache's curve seeding probes *other* thresholds' entries to
        warm-start a build; those probes are opportunistic and must not keep
        a donor alive at the expense of entries requests actually asked for.
        """
        with self._lock:
            return self._entries.get(key)

    def put(self, key: OPQKey, queue: OptimalPriorityQueue) -> None:
        with self._lock:
            self._entries[key] = queue
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1

    def delete(self, key: OPQKey) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def close(self) -> None:
        """Nothing to release for in-memory storage."""

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: OPQKey) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # len(self) takes the lock; _entries must never be read unlocked.
        return f"MemoryBackend(entries={len(self)}, max_entries={self.max_entries})"
