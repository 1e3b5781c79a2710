"""Persistent cache storage: queue records in a SQLite file.

A long-lived worker fleet restarts, redeploys, and scales horizontally; an
in-memory plan cache starts cold every time.  :class:`SQLiteBackend` stores
each optimal priority queue as a record blob keyed by the stable
``(bin-set fingerprint, threshold token)`` pair of
:mod:`repro.engine.fingerprint`, so a second process — or the same process
after a restart — opens the file and serves its first requests as cache hits.

Queues are deterministic functions of their key, so concurrent writers can
only ever race to store equivalent values; ``INSERT OR IGNORE`` plus SQLite's
own file locking make the race harmless.  Within a process, decoded queues
are memoised so repeated hits return the same object without re-reading the
blob (matching :class:`~repro.engine.backends.memory.MemoryBackend`'s
by-reference semantics on the hot path).  Storage calls serialise on an
internal lock, so the plan cache's concurrent per-key leaders (and the
``repro cached --persist`` server loop) can share one instance safely.

Blobs use the same queue record codec as the networked backend
(:func:`repro.engine.backends.wire.encode_queue`); a row in any other format
is a miss, purged and rebuilt.  The *raw-payload* methods (:meth:`put_payload`
/ :meth:`payloads` / :meth:`delete`) move those same blobs without decoding
them — the
``repro cached --persist`` server stores client payloads through this API,
which means a ``--persist`` file and a ``sqlite:<path>`` backend file are
the same format: warmth written by either is readable by both.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.algorithms.opq import OptimalPriorityQueue
from repro.engine.backends.wire import WirePayloadError, decode_queue, encode_queue
from repro.engine.fingerprint import OPQKey

_SCHEMA = """
CREATE TABLE IF NOT EXISTS opq_entries (
    bins_fingerprint TEXT NOT NULL,
    threshold_token  TEXT NOT NULL,
    payload          BLOB NOT NULL,
    touch_seq        INTEGER NOT NULL,
    PRIMARY KEY (bins_fingerprint, threshold_token)
)
"""


class SQLiteBackend:
    """Queue storage in a SQLite file shared across processes and restarts.

    Parameters
    ----------
    path:
        The database file; created (with its schema) when missing.
    max_entries:
        Optional LRU bound on the number of stored queues.  Recency is
        tracked with a monotone ``touch_seq`` column updated on every hit,
        so eviction order is meaningful even across processes.
    """

    persistent = True

    #: Storage calls serialise on an internal lock, so concurrent per-key
    #: leaders in :class:`~repro.engine.cache.PlanCache` are safe.
    concurrent_safe = True

    def __init__(self, path: Union[str, Path], max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive; got {max_entries}")
        self.path = Path(path)
        self.max_entries = max_entries
        #: Entries dropped by the LRU bound by *this* process (telemetry).
        self.evictions = 0
        self._lock = threading.RLock()
        # autocommit (isolation_level=None) keeps each statement in its own
        # implicit transaction; check_same_thread=False because calls are
        # serialised on self._lock and may come from any worker thread.
        self._conn = sqlite3.connect(
            str(self.path), check_same_thread=False, isolation_level=None
        )
        self._conn.execute(_SCHEMA)
        self._memo: Dict[OPQKey, OptimalPriorityQueue] = {}

    # -- storage protocol ------------------------------------------------------

    def get(self, key: OPQKey) -> Optional[OptimalPriorityQueue]:
        with self._lock:
            queue = self._memo.get(key)
            if queue is not None:
                self._touch(key)
                return queue
            row = self._conn.execute(
                "SELECT payload FROM opq_entries "
                "WHERE bins_fingerprint = ? AND threshold_token = ?",
                key,
            ).fetchone()
            if row is None:
                return None
            try:
                queue = decode_queue(row[0], key)
            except WirePayloadError:
                # An undecodable row would fail every request for its key in
                # every process sharing the file; purge it so the next build
                # stores a good copy.
                self.delete(key)
                return None
            self._memo[key] = queue
            self._touch(key)
            return queue

    def put(self, key: OPQKey, queue: OptimalPriorityQueue) -> None:
        with self._lock:
            self._store(key, encode_queue(queue))
            self._memo[key] = queue
            self._evict()

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM opq_entries")
            self._memo.clear()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __len__(self) -> int:
        with self._lock:
            return self._count_rows()

    def __contains__(self, key: OPQKey) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM opq_entries "
                "WHERE bins_fingerprint = ? AND threshold_token = ?",
                key,
            ).fetchone()
            return row is not None

    # -- raw payload access (the cache server's persistence path) --------------

    def put_payload(self, key: OPQKey, payload: bytes) -> None:
        """Store an already-encoded queue blob without decoding it.

        The ``repro cached --persist`` server is deliberately ignorant of
        payload contents (a hostile blob must harm only the client that
        stored it); this path writes the client's bytes through verbatim.
        The in-process memo is left untouched — raw writers never read
        queues back as objects.
        """
        with self._lock:
            self._store(key, payload)
            self._evict()

    def payloads(self) -> Iterator[Tuple[OPQKey, bytes]]:
        """Every stored ``(key, blob)`` pair, least recently used first.

        Iteration order preserves LRU recency so a restarting server can
        rebuild its in-memory LRU chain faithfully.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT bins_fingerprint, threshold_token, payload "
                "FROM opq_entries ORDER BY touch_seq ASC"
            ).fetchall()
        for bins_fp, token, payload in rows:
            yield (bins_fp, token), payload

    def delete(self, key: OPQKey) -> bool:
        """Drop one entry; return whether a row was removed."""
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM opq_entries "
                "WHERE bins_fingerprint = ? AND threshold_token = ?",
                key,
            )
            memoed = self._memo.pop(key, None) is not None
            return cursor.rowcount > 0 or memoed

    # -- recency and eviction ---------------------------------------------------

    def _store(self, key: OPQKey, payload: bytes) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO opq_entries "
            "(bins_fingerprint, threshold_token, payload, touch_seq) "
            "VALUES (?, ?, ?, ?)",
            (key[0], key[1], payload, self._next_seq()),
        )

    def _count_rows(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM opq_entries"
        ).fetchone()[0]

    def _next_seq(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(MAX(touch_seq), 0) + 1 FROM opq_entries"
        ).fetchone()
        return int(row[0])

    def _touch(self, key: OPQKey) -> None:
        # Recency only matters for eviction; unbounded stores skip the
        # bookkeeping so warm hits stay read-only (no per-request fsync).
        if self.max_entries is None:
            return
        self._conn.execute(
            "UPDATE opq_entries SET touch_seq = ? "
            "WHERE bins_fingerprint = ? AND threshold_token = ?",
            (self._next_seq(), key[0], key[1]),
        )

    def _evict(self) -> None:
        if self.max_entries is None:
            return
        excess = self._count_rows() - self.max_entries
        if excess <= 0:
            return
        self.evictions += excess
        self._conn.execute(
            "DELETE FROM opq_entries WHERE rowid IN ("
            "  SELECT rowid FROM opq_entries ORDER BY touch_seq ASC LIMIT ?"
            ")",
            (excess,),
        )
        remaining = {
            (bins_fp, token)
            for bins_fp, token in self._conn.execute(
                "SELECT bins_fingerprint, threshold_token FROM opq_entries"
            )
        }
        self._memo = {k: v for k, v in self._memo.items() if k in remaining}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SQLiteBackend(path={str(self.path)!r}, entries={len(self)})"
