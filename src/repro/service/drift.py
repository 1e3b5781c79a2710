"""Drift-driven menu recalibration: the service side of the Section 3.1 loop.

The paper treats bin menus as living objects — marketplaces "use a set of
different task bins as real-time probes to monitor the quality of the current
work flow" and re-estimate the ``(l, r_l, c_l)`` triples "regularly".  The
serving stack, however, keys every cached plan on a menu fingerprint that
never expires: once worker accuracy drifts, each tier (memory, SQLite,
remote, sharded) keeps serving plans whose reliability guarantee is silently
void.

:class:`DriftController` closes the loop inside the service layer:

* every request's menu is **registered** (with the thresholds it was solved
  at), creating a per-menu :class:`~repro.crowd.monitoring.QualityMonitor`;
* execution outcomes — probe answers from the crowd simulator, or
  ``(cardinality, correct)`` observations posted to the ``/v2/feedback``
  route — are **observed** into the menu's monitor;
* when a menu's observed accuracy escapes the monitor's tolerance band, a
  background sweep **revalidates**: the corrected menu (one calibration
  epoch later, so its fingerprint can never alias a stale entry) is
  re-planned at every recorded threshold — warm-started from the stale
  plan's own frontier — published to the cache, atomically swapped in as
  the lineage's *active* menu, and only then are the stale epoch's entries
  removed with targeted per-key deletes.  Never a fleet-wide clear, and
  never an error on a request path: every failure inside the sweep is
  swallowed, counted, and retried on the next sweep (the fail-open
  contract the cache backends already follow).

Requests keep sending the menu they know.  :meth:`DriftController.resolve`
maps any registered ancestor fingerprint to the lineage's active menu, so
traffic transparently receives plans computed from the *calibrated*
confidences without clients learning about epochs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.algorithms.opq import Combination
from repro.algorithms.opq_vec import build_queue
from repro.core.bins import TaskBinSet
from repro.core.errors import SladeError
from repro.crowd.monitoring import QualityMonitor
from repro.engine.cache import PlanCache
from repro.engine.telemetry import Telemetry
from repro.io.serialization import bin_set_from_dict
from repro.service.api import RequestValidationError


@dataclass
class _MenuState:
    """One menu lineage: the active epoch, its monitor, and usage history."""

    active: TaskBinSet
    monitor: QualityMonitor
    #: Thresholds this lineage has been solved at (the re-plan worklist).
    thresholds: Set[float] = field(default_factory=set)
    recalibrations: int = 0


@dataclass(frozen=True)
class RevalidationReport:
    """Outcome of one drift sweep (:meth:`DriftController.revalidate_drifted`)."""

    recalibrated_menus: int
    revalidated_entries: int
    invalidated_keys: int
    failures: int

    @property
    def acted(self) -> bool:
        return self.recalibrated_menus > 0 or self.failures > 0


class DriftController:
    """Owns per-menu quality monitors and the drift-driven revalidation sweep.

    Parameters
    ----------
    cache:
        The service's shared :class:`~repro.engine.cache.PlanCache`; drift
        sweeps publish recalibrated plans into it and issue the targeted
        deletes against its backend.
    telemetry:
        Registry for the ``drift.*`` counters/series (shared with the rest
        of the service so ``/metrics`` is one snapshot).
    window / min_observations / tolerance / tolerance_above:
        Forwarded to each menu's :class:`QualityMonitor`.
    """

    def __init__(
        self,
        cache: PlanCache,
        telemetry: Optional[Telemetry] = None,
        window: int = 200,
        min_observations: int = 30,
        tolerance: float = 0.05,
        tolerance_above: Optional[float] = None,
    ) -> None:
        self.cache = cache
        self.telemetry = telemetry
        self.window = window
        self.min_observations = min_observations
        self.tolerance = tolerance
        self.tolerance_above = tolerance_above
        #: Guards the lineage tables; never held across a build or a
        #: backend round trip.
        self._lock = threading.Lock()
        #: Lineage root key -> state.  The root is the fingerprint the
        #: lineage was first registered under.
        self._states: Dict[str, _MenuState] = {}
        #: Any known fingerprint (root, or a later epoch) -> root key.
        self._alias: Dict[str, str] = {}
        #: Serialises sweeps so two tick loops cannot recalibrate one
        #: lineage twice from the same observations.
        self._sweep_lock = threading.Lock()

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.telemetry is not None:
            self.telemetry.increment(name, amount)

    # -- registration and request-path resolution ------------------------------

    def register(
        self, bins: TaskBinSet, thresholds: Sequence[float] = ()
    ) -> TaskBinSet:
        """Track ``bins``' lineage and return the lineage's active menu.

        Called on the request path, so it only takes the table lock briefly
        and never raises: an unregisterable menu is served as-is.
        """
        fingerprint = bins.fingerprint
        with self._lock:
            root = self._alias.get(fingerprint)
            if root is None:
                root = fingerprint
                self._alias[fingerprint] = root
                self._states[root] = _MenuState(
                    active=bins,
                    monitor=self._monitor_for(bins),
                )
            state = self._states[root]
            for threshold in thresholds:
                state.thresholds.add(float(threshold))
            return state.active

    def resolve(self, bins: TaskBinSet) -> TaskBinSet:
        """The active menu for ``bins``' lineage (``bins`` when unknown)."""
        with self._lock:
            root = self._alias.get(bins.fingerprint)
            if root is None:
                return bins
            return self._states[root].active

    def _monitor_for(self, bins: TaskBinSet) -> QualityMonitor:
        return QualityMonitor(
            bins,
            window=self.window,
            min_observations=self.min_observations,
            tolerance=self.tolerance,
            tolerance_above=self.tolerance_above,
        )

    # -- observation intake -----------------------------------------------------

    def observe(self, bins: TaskBinSet, cardinality: int, correct: bool) -> bool:
        """Record one probe outcome against ``bins``' lineage.

        Unknown menus are registered on the fly (feedback may arrive before
        the first solve).  Returns whether the observation was recorded; a
        cardinality the active menu does not offer is dropped, not an error.
        """
        self.register(bins)
        with self._lock:
            state = self._states[self._alias[bins.fingerprint]]
            monitor = state.monitor
        if cardinality not in monitor.bins:
            return False
        monitor.record(cardinality, correct)
        self._count("drift.observations")
        return True

    def ingest_feedback(self, payload: Mapping[str, Any]) -> int:
        """Apply one ``/v2/feedback`` document; returns observations recorded.

        Expected shape::

            {"bins": <bin-set dict or [[l, r, c], ...]>,
             "observations": [[cardinality, correct], ...]}

        Raises :class:`RequestValidationError` on malformed payloads (the
        transport maps it to a 400); recording itself never fails a request.
        """
        if not isinstance(payload, Mapping):
            raise RequestValidationError("feedback payload must be an object")
        bins = _bins_from_payload(payload.get("bins"))
        observations = payload.get("observations")
        if not isinstance(observations, (list, tuple)):
            raise RequestValidationError(
                "feedback 'observations' must be a list of "
                "[cardinality, correct] pairs"
            )
        recorded = 0
        for entry in observations:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or isinstance(entry[0], bool)
                or not isinstance(entry[0], int)
            ):
                raise RequestValidationError(
                    f"feedback observation must be a [cardinality, correct] "
                    f"pair; got {entry!r}"
                )
            if self.observe(bins, entry[0], bool(entry[1])):
                recorded += 1
        self._count("drift.feedback_requests")
        return recorded

    # -- the drift sweep --------------------------------------------------------

    def drifted_roots(self) -> List[str]:
        """Lineage roots whose monitors currently flag drift."""
        with self._lock:
            states = list(self._states.items())
        return [root for root, state in states if state.monitor.needs_recalibration]

    def revalidate_drifted(self) -> RevalidationReport:
        """One sweep: recalibrate every drifted lineage (fail-open).

        Per lineage, in the order the tentpole requires:

        1. build the corrected menu (next calibration epoch) from the
           monitor's observed accuracies;
        2. re-plan every recorded threshold at the new epoch, warm-started
           from the stale plan's own frontier, and publish into the cache;
        3. atomically swap the lineage's active menu (requests pick up the
           new epoch immediately);
        4. issue targeted per-key deletes for the stale epoch's entries —
           never a fleet-wide clear.

        Every exception is contained within the sweep: the lineage keeps
        its old menu, the failure is counted, and the next sweep retries.
        """
        menus = 0
        entries = 0
        invalidated = 0
        failures = 0
        with self._sweep_lock:
            for root in self.drifted_roots():
                try:
                    replanned, removed = self._revalidate_one(root)
                except Exception:
                    # Fail open: a broken sweep must never surface anywhere
                    # near a request path.  The monitor still flags drift,
                    # so the next sweep retries.
                    failures += 1
                    self._count("drift.failed_revalidations")
                    continue
                menus += 1
                entries += replanned
                invalidated += removed
        return RevalidationReport(
            recalibrated_menus=menus,
            revalidated_entries=entries,
            invalidated_keys=invalidated,
            failures=failures,
        )

    def _revalidate_one(self, root: str) -> Tuple[int, int]:
        with self._lock:
            state = self._states.get(root)
            if state is None:
                return 0, 0
            stale = state.active
            monitor = state.monitor
            thresholds = sorted(state.thresholds)
        if not monitor.needs_recalibration:
            return 0, 0
        corrected = monitor.corrected_bin_set()

        started = time.perf_counter()
        for threshold in thresholds:
            seed = self._seed_from_stale(stale, corrected, threshold)
            queue = build_queue(corrected, threshold, seed=seed)
            self.cache.publish(corrected, threshold, queue)
        replanned = len(thresholds)

        # Swap the active epoch before deleting the stale keys: from this
        # instant requests resolve to the corrected menu, whose entries are
        # already published, so no request can miss into a deleted key.
        with self._lock:
            state = self._states.get(root)
            if state is None or state.active.fingerprint != stale.fingerprint:
                # Another path already moved the lineage on; leave it alone.
                return replanned, 0
            state.active = corrected
            state.monitor = self._monitor_for(corrected)
            state.recalibrations += 1
            self._alias[corrected.fingerprint] = root

        removed = self.cache.invalidate(stale, thresholds=thresholds)
        elapsed = time.perf_counter() - started
        self._count("drift.recalibrations")
        self._count("drift.revalidated_entries", replanned)
        self._count("drift.invalidated_keys", removed)
        if self.telemetry is not None:
            self.telemetry.observe("drift.revalidation_seconds", elapsed)
        return replanned, removed

    def _seed_from_stale(
        self,
        stale: TaskBinSet,
        corrected: TaskBinSet,
        threshold: float,
    ) -> Optional[List[Combination]]:
        """Warm-start elements for the corrected build, from the stale curve.

        Frontier elements cache their residual/cost quantities against the
        menu they were built for, so the stale epoch's combinations are
        **rebuilt** against the corrected menu (recomputing reliabilities
        from the calibrated confidences) before they may seed the new
        build; the builder then re-validates each candidate, so a seed that
        is no longer feasible at the new confidences is simply dropped.
        """
        donors = self.cache.seed_for(stale, threshold)
        if donors is None:
            return None
        rebuilt: List[Combination] = []
        for donor in donors:
            counts = dict(donor.counts)
            if any(cardinality not in corrected for cardinality in counts):
                continue
            rebuilt.append(Combination.from_counts(counts, corrected))
        return rebuilt or None

    # -- observability ----------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """Point-in-time ``drift.*`` gauges for ``/metrics`` scrapes."""
        with self._lock:
            states = list(self._states.values())
        drifted = 0
        max_shortfall = 0.0
        for state in states:
            reports = state.monitor.reports()
            if any(report.drifted for report in reports):
                drifted += 1
            for report in reports:
                max_shortfall = max(max_shortfall, report.shortfall)
        return {
            "drift.monitored_menus": float(len(states)),
            "drift.drifted_menus": float(drifted),
            "drift.max_shortfall": max_shortfall,
        }

    def lineage(self, bins: TaskBinSet) -> Optional[Tuple[TaskBinSet, int]]:
        """(active menu, recalibration count) for ``bins``, if registered."""
        with self._lock:
            root = self._alias.get(bins.fingerprint)
            if root is None:
                return None
            state = self._states[root]
            return state.active, state.recalibrations


def _bins_from_payload(raw: Any) -> TaskBinSet:
    """Parse the ``bins`` field of a feedback document (dict or triples)."""
    if isinstance(raw, Mapping):
        try:
            return bin_set_from_dict(dict(raw))
        except (SladeError, KeyError, TypeError, ValueError) as exc:
            raise RequestValidationError(
                f"feedback 'bins' is not a valid bin-set document: {exc}"
            ) from None
    if isinstance(raw, (list, tuple)):
        try:
            return TaskBinSet.from_triples([tuple(entry) for entry in raw])
        except (SladeError, TypeError, ValueError) as exc:
            raise RequestValidationError(
                f"feedback 'bins' is not a valid triple list: {exc}"
            ) from None
    raise RequestValidationError(
        "feedback payload needs a 'bins' field (bin-set dict or "
        "[[cardinality, confidence, cost], ...] triples)"
    )


__all__ = [
    "DriftController",
    "RevalidationReport",
]
