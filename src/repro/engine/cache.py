"""The plan cache: share OPQ construction across problem instances.

Algorithm 2 (optimal priority queue construction) dominates the cost of
solving a SLADE instance whenever ``n`` is not enormous — building the queue
for the SMIC menu at ``t = 0.97`` is two orders of magnitude slower than
running Algorithm 3 with the queue in hand.  Experiment sweeps and production
batches, however, solve many instances that share one ``(bin set, threshold)``
pair.  :class:`PlanCache` memoises queue construction under the stable keys of
:mod:`repro.engine.fingerprint` so that work happens once per pair.

The cache owns the *policy* — hit/miss counters, build timing, thread safety —
and delegates *storage* to a :class:`~repro.engine.backends.base.CacheBackend`:
the in-process :class:`~repro.engine.backends.memory.MemoryBackend` (the
default, LRU-bounded when ``max_entries`` is set) or the persistent
:class:`~repro.engine.backends.sqlite.SQLiteBackend`, which survives restarts
and is shared between processes.  The cache is thread-safe (the batch
planner's thread executor shares one instance).  For process-based
parallelism the in-memory backend cannot be shared directly;
:meth:`export_entries` / :meth:`absorb` ship a pre-warmed snapshot to the
workers instead.

Concurrency is **per key**, not global: threads requesting *distinct*
fingerprints proceed in parallel (builds are GIL-bound, but network-backed
storage round trips genuinely overlap), while threads missing on the *same*
fingerprint coalesce — one leader performs the single backend lookup and the
single Algorithm 2 build, and every follower waits on the in-flight entry
and shares the resulting queue object (counted as a hit plus
``cache.coalesced_waits``).  So a thread executor over a
:class:`~repro.engine.backends.remote.RemoteBackend` or
:class:`~repro.engine.backends.sharded.ShardedBackend` never serialises
behind one slow (timeout-bounded) round trip for an unrelated key, and a
thundering herd on one fingerprint issues exactly one GET and one build.
Backends advertising ``concurrent_safe = True`` are called without extra
locking; anything else is serialised on an internal storage lock (the
pre-existing contract for third-party backends).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TypeVar

from repro.algorithms.opq import (
    Combination,
    OptimalPriorityQueue,
    queue_is_complete,
)
from repro.algorithms.opq_vec import build_queue
from repro.core.bins import TaskBinSet
from repro.engine.backends import CacheBackend, MemoryBackend
from repro.engine.fingerprint import OPQKey, opq_key
from repro.engine.telemetry import Telemetry
from repro.utils.timing import Stopwatch

_T = TypeVar("_T")

#: Distinguishes "backend has no telemetry attribute" from "attribute is None".
_UNSET = object()


class _InflightBuild:
    """One fingerprint's in-flight lookup/build, shared by coalescing waiters.

    The leader resolves :attr:`queue` (hit or fresh build) before setting
    :attr:`done`; followers wait and adopt the object without touching the
    backend.  When the leader fails, :attr:`queue` stays ``None`` and each
    follower retries as a new leader (matching the pre-coalescing behaviour,
    where every thread attempted the build independently).
    """

    __slots__ = ("done", "queue")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.queue: Optional[OptimalPriorityQueue] = None


class CacheLedger:
    """What one thread's lookups did while :meth:`PlanCache.ledger` was open.

    ``built`` is set when the thread built a queue in :meth:`PlanCache.queue_for`
    or handed one to :meth:`PlanCache.publish`; ``found`` when a lookup
    returned a queue.  :attr:`label` applies the cache-provenance rule.
    """

    __slots__ = ("built", "found")

    def __init__(self) -> None:
        self.built = False
        self.found = False

    @property
    def label(self) -> str:
        """``"miss"``, ``"hit"`` or ``"bypass"`` (see :class:`PlanCache`)."""
        if self.built:
            return "miss"
        if self.found:
            return "hit"
        return "bypass"


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a cache's counters.

    Attributes
    ----------
    hits:
        Queue requests answered from the cache.
    misses:
        Queue requests that triggered an Algorithm 2 run.
    entries:
        Queues currently stored.
    build_seconds:
        Total wall-clock time spent constructing queues on misses.
    evictions:
        Entries dropped by the backend's LRU bound (0 for unbounded stores).
    partial_hits:
        ``peek`` calls answered with an *incomplete* (truncated) frontier.
        The caller typically refines and publishes afterwards, so counting
        these as plain hits double-counted the request once the publish
        landed as a miss; they get their own counter instead.
    curve_seeds:
        Cold builds warm-started from a nearby threshold's cached frontier
        on the same bin menu (see :meth:`PlanCache.seed_for`).
    """

    hits: int
    misses: int
    entries: int
    build_seconds: float
    evictions: int = 0
    partial_hits: int = 0
    curve_seeds: int = 0

    @property
    def requests(self) -> int:
        """Total queue requests served (partial peeks are counted at publish)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered without construction (0.0 when idle)."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta between this snapshot and an ``earlier`` one.

        The batch planner brackets each batch with two snapshots so its
        statistics describe that batch alone even when the cache is reused.
        """
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            entries=self.entries,
            build_seconds=self.build_seconds - earlier.build_seconds,
            evictions=self.evictions - earlier.evictions,
            partial_hits=self.partial_hits - earlier.partial_hits,
            curve_seeds=self.curve_seeds - earlier.curve_seeds,
        )


class PlanCache:
    """Memoises optimal priority queues by ``(bin set, threshold)``.

    Parameters
    ----------
    max_entries:
        Optional LRU bound on the number of stored queues.  ``None`` (the
        default) keeps every queue, which is appropriate for sweeps whose
        distinct ``(bins, threshold)`` pairs number in the dozens.  Only
        valid with the default backend; bounded custom backends configure
        their own limit.
    backend:
        The storage to delegate to; a fresh unbounded
        :class:`~repro.engine.backends.memory.MemoryBackend` when omitted.
        Pass a :class:`~repro.engine.backends.sqlite.SQLiteBackend` to share
        queues across processes and restarts.
    telemetry:
        Optional :class:`~repro.engine.telemetry.Telemetry` registry; when
        set, the cache reports ``cache.hits`` / ``cache.misses`` /
        ``cache.partial_hits`` / ``cache.curve_seeds`` /
        ``cache.evictions`` counters and ``cache.build_seconds`` alongside
        its own :attr:`stats` (the service layer shares one registry across
        the cache, planner, and transport so ``/metrics`` is one snapshot).

    The cache is the one object solvers get queues from: calling it is
    :meth:`queue_for`, so it matches the
    :data:`~repro.algorithms.opq.QueueFactory` signature and the batch
    planner injects it as the ``queue_factory`` of every solver that takes
    one; the anytime ladder also uses its :meth:`peek`, :meth:`publish` and
    :meth:`seed_for`.

    It is also the only code that decides whether a lookup hit or missed.
    Inside :meth:`ledger`, each outcome is recorded for the calling thread,
    and the service labels a request's ``cache`` field from it:

    * ``miss`` if the request built a queue or published one;
    * else ``hit`` if any lookup returned a queue (a complete or partial
      :meth:`peek`, a backend hit, or a coalesced wait on another
      thread's build);
    * else ``bypass``.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        backend: Optional[CacheBackend] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if backend is None:
            backend = MemoryBackend(max_entries=max_entries)
        elif max_entries is not None:
            raise ValueError(
                "max_entries and backend are mutually exclusive; bound the "
                "backend itself instead"
            )
        self.backend = backend
        self.max_entries = getattr(backend, "max_entries", max_entries)
        self.telemetry = telemetry
        # Backends that report per-tier counters (remote, tiered) expose a
        # ``telemetry`` attribute; adopt this cache's registry when the
        # backend was built without one, so /metrics is one snapshot.
        if telemetry is not None and getattr(backend, "telemetry", _UNSET) is None:
            backend.telemetry = telemetry
        #: Guards the counters and the in-flight build table (never held
        #: across a backend call or a build).
        self._lock = threading.Lock()
        #: Serialises storage calls for backends that are not internally
        #: thread-safe; bypassed when the backend declares
        #: ``concurrent_safe = True`` (memory, sqlite, remote, sharded,
        #: tiered-over-safe-tiers all do).
        self._storage_lock = threading.Lock()
        self._backend_concurrent = bool(getattr(backend, "concurrent_safe", False))
        self._inflight: Dict[OPQKey, _InflightBuild] = {}
        self._hits = 0
        self._misses = 0
        self._partial_hits = 0
        self._curve_seeds = 0
        self._build_seconds = 0.0
        self._evictions_seen = getattr(backend, "evictions", 0)
        #: The plan curve: per bin-menu fingerprint, the thresholds whose
        #: complete frontiers this process has seen, mapped to their backend
        #: keys.  Purely an in-process index — the frontiers themselves stay
        #: in the backend, and a stale curve point (evicted entry) is
        #: dropped on the next lookup.
        self._curves: Dict[str, Dict[float, OPQKey]] = {}
        #: Per thread: the open :class:`CacheLedger`, if any.
        self._local = threading.local()

    # -- the hot path ----------------------------------------------------------

    def __call__(self, bins: TaskBinSet, threshold: float) -> OptimalPriorityQueue:
        """The queue-factory protocol: same as :meth:`queue_for`."""
        return self.queue_for(bins, threshold)

    def queue_for(self, bins: TaskBinSet, threshold: float) -> OptimalPriorityQueue:
        """Return the OPQ for ``(bins, threshold)``, building it on first use.

        Matches the :data:`~repro.algorithms.opq.QueueFactory` signature so it
        can be passed wherever a queue supplier is expected.

        Concurrent callers coalesce per key: one leader performs the single
        backend lookup and (on a miss) the single Algorithm 2 build; every
        other thread waits on the in-flight entry and shares the resulting
        queue object without its own backend round trip.  Distinct keys
        never wait on each other.
        """
        key = opq_key(bins, threshold)
        while True:
            with self._lock:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InflightBuild()
                    self._inflight[key] = flight
                    break  # this thread leads the lookup/build for `key`
            flight.done.wait()
            if flight.queue is not None:
                self._record_hit(coalesced=True)
                return flight.queue
            # The leader failed without a queue; retry as a new leader so a
            # transient error is not broadcast to every waiter.
        try:
            queue = self._guarded(lambda: self.backend.get(key))
            if queue is not None:
                flight.queue = queue
                self._register_curve_point(bins, threshold, key, queue)
                self._record_hit()
                return queue
            seed = self.seed_for(bins, threshold)
            watch = Stopwatch()
            with watch:
                queue = build_queue(bins, threshold, seed=seed)
            self._guarded(lambda: self.backend.put(key, queue))
            flight.queue = queue
            self._register_curve_point(bins, threshold, key, queue)
            self._note(built=True)
            self._record_miss(watch.elapsed, seeded=seed is not None)
            return queue
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.done.set()

    # -- anytime access --------------------------------------------------------

    def peek(
        self, bins: TaskBinSet, threshold: float
    ) -> Optional[OptimalPriorityQueue]:
        """Return the cached OPQ for ``(bins, threshold)`` without building.

        The anytime path: a deadline-bounded caller wants the queue *if it is
        already there* but must never pay for a cold Algorithm 2 run it cannot
        afford.  A found *complete* queue counts as a hit; an absent one
        records nothing (the caller decides whether to build, and
        :meth:`publish` accounts the build when it lands).  The returned
        queue may be *incomplete* (a truncated frontier published by an
        earlier budgeted build) — check
        :func:`~repro.algorithms.opq.queue_is_complete`.  An incomplete
        frontier is counted under ``cache.partial_hits`` instead of
        ``cache.hits``: the caller will refine and publish it, and counting
        the same request as both a hit and a (publish-time) miss skewed the
        warm-rate windows.
        """
        key = opq_key(bins, threshold)
        queue = self._guarded(lambda: self.backend.get(key))
        if queue is not None:
            if queue_is_complete(queue):
                self._register_curve_point(bins, threshold, key, queue)
                self._record_hit()
            else:
                self._record_partial_hit()
        return queue

    def publish(
        self,
        bins: TaskBinSet,
        threshold: float,
        queue: OptimalPriorityQueue,
        build_seconds: float = 0.0,
    ) -> bool:
        """Store a queue built outside the cache, refining coarse entries.

        A *complete* queue (full Pareto frontier) always lands, overwriting
        any truncated frontier a budget-starved request published earlier.  An
        *incomplete* queue only lands when nothing better is stored — it never
        downgrades a complete entry, and between two incomplete frontiers the
        larger one wins.  Returns whether the queue was stored; a stored build
        is accounted as a miss with ``build_seconds`` of construction time,
        mirroring :meth:`queue_for`'s bookkeeping.  The calling thread's
        ledger records a build either way: the caller built the queue.
        """
        self._note(built=True)
        key = opq_key(bins, threshold)

        def exchange() -> bool:
            existing = self.backend.get(key)
            if existing is not None:
                if queue_is_complete(existing) and not queue_is_complete(queue):
                    return False
                if (not queue_is_complete(queue)
                        and len(existing) >= len(queue)):
                    return False
            self.backend.put(key, queue)
            return True

        stored = self._guarded(exchange)
        if stored:
            self._register_curve_point(bins, threshold, key, queue)
            self._record_miss(build_seconds)
        return stored

    # -- cross-threshold plan-curve reuse --------------------------------------

    def seed_for(
        self, bins: TaskBinSet, threshold: float
    ) -> Optional[List[Combination]]:
        """Frontier elements of the nearest cached threshold on ``bins``'s menu.

        The paper's scalability experiments (and production sweeps) vary the
        threshold over a fixed bin menu; nearby thresholds share Pareto-
        frontier structure.  This walks the menu's *plan curve* — the
        thresholds whose complete frontiers this process has already seen —
        and returns the closest donor's elements to warm-start a cold build
        (:func:`~repro.algorithms.opq_vec.build_queue` re-validates each
        element, so donors below the requested threshold are safe too; the
        nearest donor *at or above* is preferred because its whole frontier
        is feasible here).  Returns ``None`` when the menu has no usable
        curve point; stale points (evicted entries) are dropped as they are
        discovered.
        """
        with self._lock:
            curve = dict(self._curves.get(bins.fingerprint, {}))
        if not curve:
            return None
        above = sorted(t for t in curve if t >= threshold)
        below = sorted((t for t in curve if t < threshold), reverse=True)
        # Probe without refreshing recency when the backend distinguishes
        # the two (the in-memory LRU does): an opportunistic donor read must
        # not keep the donor alive over entries requests actually asked for.
        probe = getattr(self.backend, "peek", self.backend.get)
        for donor in above + below:
            key = curve[donor]
            queue = self._guarded(lambda: probe(key))
            if queue is None:
                with self._lock:
                    menu_curve = self._curves.get(bins.fingerprint)
                    if menu_curve is not None and menu_curve.get(donor) == key:
                        del menu_curve[donor]
                continue
            elements = queue.elements()
            if elements:
                return elements
        return None

    def _register_curve_point(
        self,
        bins: TaskBinSet,
        threshold: float,
        key: OPQKey,
        queue: OptimalPriorityQueue,
    ) -> None:
        """Remember that the menu's curve has a complete frontier at ``threshold``."""
        if not queue_is_complete(queue):
            return
        with self._lock:
            self._curves.setdefault(bins.fingerprint, {})[float(threshold)] = key

    def _guarded(self, call: Callable[[], _T]) -> _T:
        """Run one backend storage call with the required serialisation."""
        if self._backend_concurrent:
            return call()
        with self._storage_lock:
            return call()

    @contextmanager
    def ledger(self) -> Iterator[CacheLedger]:
        """Record the calling thread's lookup outcomes for the block's duration.

        Other threads' lookups never reach this ledger, so the service can
        label each request even while concurrent requests share the cache.
        """
        ledger = CacheLedger()
        outer = getattr(self._local, "ledger", None)
        self._local.ledger = ledger
        try:
            yield ledger
        finally:
            self._local.ledger = outer

    def _note(self, built: bool) -> None:
        """Record one lookup outcome in the calling thread's open ledger."""
        ledger = getattr(self._local, "ledger", None)
        if ledger is None:
            return
        if built:
            ledger.built = True
        else:
            ledger.found = True

    def _record_hit(self, coalesced: bool = False) -> None:
        self._note(built=False)
        with self._lock:
            self._hits += 1
        if self.telemetry is not None:
            self.telemetry.increment("cache.hits")
            if coalesced:
                self.telemetry.increment("cache.coalesced_waits")

    def _record_partial_hit(self) -> None:
        self._note(built=False)
        with self._lock:
            self._partial_hits += 1
        if self.telemetry is not None:
            self.telemetry.increment("cache.partial_hits")

    def _record_miss(self, build_seconds: float, seeded: bool = False) -> None:
        with self._lock:
            self._misses += 1
            if seeded:
                self._curve_seeds += 1
            self._build_seconds += build_seconds
            # Attribute evictions through the monotone backend counter
            # instead of a before/after diff, which concurrent leaders on
            # other keys would corrupt.
            total_evictions = getattr(self.backend, "evictions", 0)
            evicted = total_evictions - self._evictions_seen
            self._evictions_seen = total_evictions
        if self.telemetry is not None:
            self.telemetry.increment("cache.misses")
            self.telemetry.increment("cache.build_seconds", build_seconds)
            if seeded:
                self.telemetry.increment("cache.curve_seeds")
            if evicted > 0:
                self.telemetry.increment("cache.evictions", evicted)

    def warm(self, bins: TaskBinSet, thresholds: Iterable[float]) -> None:
        """Pre-build the queues for every threshold in ``thresholds``.

        Used by the batch planner before dispatching to worker processes, so
        each expensive construction happens exactly once in the parent.
        """
        for threshold in thresholds:
            self.queue_for(bins, threshold)

    # -- bookkeeping -----------------------------------------------------------

    def __len__(self) -> int:
        return self._guarded(lambda: len(self.backend))

    def __contains__(self, key: OPQKey) -> bool:
        return self._guarded(lambda: key in self.backend)

    @property
    def persistent(self) -> bool:
        """Whether stored queues survive a process restart."""
        return bool(getattr(self.backend, "persistent", False))

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the cache counters."""
        with self._lock:
            hits = self._hits
            misses = self._misses
            partial_hits = self._partial_hits
            curve_seeds = self._curve_seeds
            build_seconds = self._build_seconds
            evictions = getattr(self.backend, "evictions", 0)
        # The entry count is read OUTSIDE the hot-path lock: remote/tiered
        # backends answer len() with a network STATS round trip, and a
        # /metrics scrape hitting a slow cache server must never stall
        # concurrent solves.  All backends answer len() safely without the
        # cache's serialisation (dict len is atomic, SQLite connections are
        # serialized, the remote client pools under its own lock).
        return CacheStats(
            hits=hits,
            misses=misses,
            entries=len(self.backend),
            build_seconds=build_seconds,
            evictions=evictions,
            partial_hits=partial_hits,
            curve_seeds=curve_seeds,
        )

    def backend_metrics(self) -> Dict[str, float]:
        """Point-in-time gauges the backend exposes for ``/metrics`` scrapes.

        Remote and tiered backends report tier sizes and server-side
        key/byte counts; plain stores report nothing.  Called *without* the
        cache lock — a slow cache-server STATS round trip (bounded by the
        client timeout, fail-open) must not stall concurrent solves — which
        is safe because the backends that implement ``extra_metrics`` are
        internally thread-safe for read-only probes.
        """
        probe = getattr(self.backend, "extra_metrics", None)
        if probe is None:
            return {}
        return dict(probe())

    def invalidate(
        self,
        bins: TaskBinSet,
        thresholds: Optional[Iterable[float]] = None,
    ) -> int:
        """Targeted per-key removal of a menu's cached plans.

        Drift-driven recalibration retires a menu epoch: its entries are no
        longer trustworthy, but the rest of the cache is.  This removes the
        menu's known entries key by key — the menu's in-process plan-curve
        points plus any explicitly supplied ``thresholds`` — through the
        backend's ``delete`` (both tiers of a tiered backend, all replicas
        of a sharded one), never a fleet-wide :meth:`clear`.

        The menu's plan-curve index is dropped first, so a concurrent
        :meth:`seed_for` cannot resurrect a deleted entry as a warm-start
        donor: by the time the backend deletes run, the curve no longer
        points at them.

        Returns the number of keys the backend reported actually removed
        (fail-open distributed backends may report fewer than targeted).
        """
        menu_fp = bins.fingerprint
        with self._lock:
            curve = self._curves.pop(menu_fp, {})
        candidates: Dict[OPQKey, None] = {key: None for key in curve.values()}
        if thresholds is not None:
            for threshold in thresholds:
                candidates[opq_key(bins, threshold)] = None
        delete = getattr(self.backend, "delete", None)
        if delete is None:  # third-party backend predating the delete contract
            return 0
        removed = 0
        for key in candidates:
            if self._guarded(lambda k=key: delete(k)):
                removed += 1
        if self.telemetry is not None and removed:
            self.telemetry.increment("cache.invalidations", removed)
        return removed

    def clear(self) -> None:
        """Drop every stored queue (counters are kept)."""
        self._guarded(self.backend.clear)

    def close(self) -> None:
        """Release backend resources (e.g. the SQLite connection)."""
        self._guarded(self.backend.close)

    # -- process-parallel support ----------------------------------------------

    def export_entries(self) -> Dict[OPQKey, OptimalPriorityQueue]:
        """A picklable snapshot of the stored queues for worker processes."""
        return self._guarded(self.backend.snapshot)

    def absorb(self, entries: Dict[OPQKey, OptimalPriorityQueue]) -> None:
        """Adopt queues exported by another cache (counted as neither hit nor miss)."""
        self._guarded(lambda: self.backend.merge(entries))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.stats
        return (
            f"PlanCache(entries={snapshot.entries}, hits={snapshot.hits}, "
            f"misses={snapshot.misses}, backend={type(self.backend).__name__})"
        )
