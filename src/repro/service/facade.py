"""The synchronous service facade over the solver stack.

:class:`SladeService` is the single entry point a deployment talks to: it
validates and normalises :class:`~repro.service.api.SolveRequest` objects
(named solver, per-solver options, threshold clamping), dispatches them
through a shared :class:`~repro.engine.planner.BatchPlanner` so OPQ
construction is cached across requests, and returns structured
:class:`~repro.service.api.SolveResponse` objects with per-request timing,
cache provenance (hit/miss), and error envelopes instead of raised
exceptions.

Equivalence guarantee: for any request, the plan a :class:`SladeService`
returns is byte-identical to ``create_solver(name, **options).solve(problem)``
— normalisation only resolves defaults, and the cache only removes repeated
work.  ``tests/service/test_service_equivalence.py`` pins this across the
sync, async, and persistent-backend paths.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.algorithms.anytime import QUALITY_OPTIMAL
from repro.algorithms.registry import available_solvers, solver_accepts_budget
from repro.core.errors import SladeError
from repro.core.problem import SladeProblem
from repro.core.task import AtomicTask, CrowdsourcingTask
from repro.engine.backends import CacheBackend, open_backend
from repro.engine.cache import CacheStats, PlanCache
from repro.engine.planner import BatchPlanner
from repro.engine.telemetry import Telemetry
from repro.service.api import (
    CACHE_HIT,
    CACHE_MISS,
    CACHE_NONE,
    DeadlineExceededError,
    Provenance,
    RequestValidationError,
    ServiceConfig,
    SolveRequest,
    SolveResponse,
    TIER_BUILD,
    TIER_CACHE,
    TIER_SOLVER,
    envelope_from_error,
    solver_options_dict,
)
from repro.service.drift import DriftController
from repro.service.normalize import (
    check_not_expired,
    remaining_budget_seconds,
    stamp_deadline,
)
from repro.utils.timing import Stopwatch

#: Exceptions converted into response error envelopes.  Anything outside this
#: tuple is a programming error and propagates to the caller.
_ENVELOPED_ERRORS = (SladeError, KeyError, ValueError, TypeError)


class SladeService:
    """Validate, normalise, and dispatch solve requests through a shared planner.

    Parameters
    ----------
    config:
        Service tunables; defaults to :class:`~repro.service.api.ServiceConfig`.
    planner:
        An existing :class:`~repro.engine.planner.BatchPlanner` to dispatch
        through (e.g. to share a cache with batch jobs).  Mutually exclusive
        with ``backend``.
    backend:
        A pre-built cache backend instance; overrides
        ``config.cache_backend``.  When both are omitted the backend is
        resolved from the config spec (an in-memory store by default).
    telemetry:
        The :class:`~repro.engine.telemetry.Telemetry` registry shared with
        the planner and cache (request counters, cache hits/misses/evictions,
        batch sizes); a fresh registry is created when omitted.  When an
        existing ``planner`` is supplied its registry wins, so cache-level
        counters stay attached to the planner that owns the cache.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        planner: Optional[BatchPlanner] = None,
        backend: Optional[CacheBackend] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        if planner is not None:
            if backend is not None:
                raise ValueError("pass either planner or backend, not both")
            self.planner = planner
            self.telemetry = (
                planner.telemetry if planner.telemetry is not None
                else (telemetry if telemetry is not None else Telemetry())
            )
        else:
            self.telemetry = telemetry if telemetry is not None else Telemetry()
            if backend is None:
                backend = open_backend(
                    self.config.cache_backend,
                    max_entries=self.config.max_cache_entries,
                    telemetry=self.telemetry,
                )
            self.planner = BatchPlanner(
                cache=PlanCache(backend=backend, telemetry=self.telemetry),
                solver_options=solver_options_dict(self.config.solver_options),
                verify=self.config.verify,
                telemetry=self.telemetry,
            )
        self._request_ids = itertools.count(1)
        #: The drift-driven calibration loop: per-menu quality monitors plus
        #: the background revalidation sweep the HTTP server drives.
        self.drift = DriftController(
            cache=self.cache,
            telemetry=self.telemetry,
            window=self.config.drift_window,
            min_observations=self.config.drift_min_observations,
            tolerance=self.config.drift_tolerance,
            tolerance_above=self.config.drift_tolerance_above,
        )

    # -- public surface --------------------------------------------------------

    @property
    def cache(self) -> PlanCache:
        """The plan cache shared by every request this service handles."""
        return self.planner.cache

    @property
    def cache_stats(self) -> CacheStats:
        """Point-in-time counters of the shared plan cache."""
        return self.cache.stats

    def solve(self, request: SolveRequest) -> SolveResponse:
        """Handle one request, returning a structured response.

        Never raises for solver- or validation-level failures; those come
        back as ``ok=False`` responses carrying an error envelope.
        """
        return self._solve_one(request, batch_size=1)

    def solve_batch(self, requests: Iterable[SolveRequest]) -> List[SolveResponse]:
        """Handle a coalesced batch, one response per request in order.

        Failures are isolated: a request that cannot be solved yields its own
        ``ok=False`` response without affecting its batch-mates.  Every
        response records the batch size it rode in.
        """
        batch = list(requests)
        return [self._solve_one(request, batch_size=len(batch)) for request in batch]

    def close(self) -> None:
        """Release the plan cache's backend resources."""
        self.cache.close()

    def __enter__(self) -> "SladeService":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # -- request handling ------------------------------------------------------

    def _solve_one(self, request: SolveRequest, batch_size: int) -> SolveResponse:
        watch = Stopwatch()
        watch.start()
        self.telemetry.increment("service.requests")
        request_id = request.request_id or f"req-{next(self._request_ids)}"

        # Library callers may hand over a bare deadline_ms; the wire paths
        # arrive pre-stamped (at receipt) and this is a no-op for them.
        request = stamp_deadline(request)
        budgeted = request.deadline_at is not None
        if budgeted:
            self.telemetry.increment("deadline.requests")
            try:
                # The moment the budget counts: queue wait inside the async
                # frontend has already elapsed, and an expired request must
                # never reach the planner.
                check_not_expired(request)
            except DeadlineExceededError as exc:
                self.telemetry.increment("deadline.expired")
                return self._failure(
                    request_id, None, None, exc, watch, batch_size
                )

        try:
            solver_name, options, verify, problem = self._normalize(request)
        except _ENVELOPED_ERRORS as exc:
            return self._failure(
                request_id, None, None, exc, watch, batch_size
            )

        remaining = remaining_budget_seconds(request)
        if (budgeted and solver_accepts_budget(solver_name)
                and "budget_seconds" not in options):
            options["budget_seconds"] = remaining
        try:
            # The cache labels this request from this thread's lookups alone,
            # so concurrent requests sharing the cache cannot skew it.
            with self.cache.ledger() as ledger:
                result = self.planner.solve(
                    problem, solver=solver_name, options=options, verify=verify
                )
        except _ENVELOPED_ERRORS as exc:
            if budgeted:
                self.telemetry.increment("deadline.misses")
            return self._failure(
                request_id, solver_name, problem, exc, watch, batch_size
            )

        cache_label = ledger.label
        provenance = self._provenance(request, result, cache_label, remaining)
        if budgeted:
            met = remaining_budget_seconds(request)
            self.telemetry.increment(
                "deadline.hits" if met is not None and met > 0.0
                else "deadline.misses"
            )
            if provenance.quality != QUALITY_OPTIMAL:
                self.telemetry.increment("deadline.best_so_far")

        watch.stop()
        return SolveResponse(
            request_id=request_id,
            ok=True,
            solver=solver_name,
            plan=result.plan,
            total_cost=result.total_cost,
            feasible=result.feasible,
            cache=cache_label,
            elapsed_seconds=watch.elapsed,
            solve_seconds=result.elapsed_seconds,
            batch_size=batch_size,
            problem_fingerprint=problem.fingerprint,
            provenance=provenance,
        )

    def _provenance(
        self,
        request: SolveRequest,
        result: Any,
        cache_label: str,
        remaining_seconds: Optional[float],
    ) -> Provenance:
        """Assemble the response provenance block for a successful solve.

        The anytime solver records its own ``quality``/``tier`` metadata;
        for every other solver the computation ran to completion (quality
        ``"optimal"`` in the degradation sense) and the tier is derived from
        the request's cache traffic.
        """
        quality = result.metadata.get("quality") or QUALITY_OPTIMAL
        tier = result.metadata.get("tier")
        if tier is None:
            tier = {
                CACHE_HIT: TIER_CACHE,
                CACHE_MISS: TIER_BUILD,
            }.get(cache_label, TIER_SOLVER)
        return Provenance(
            quality=quality,
            tier=tier,
            deadline_ms=request.deadline_ms,
            remaining_budget_ms=(
                None if remaining_seconds is None
                else remaining_seconds * 1000.0
            ),
        )

    def _failure(
        self,
        request_id: str,
        solver_name: Optional[str],
        problem: Optional[SladeProblem],
        exc: BaseException,
        watch: Stopwatch,
        batch_size: int,
    ) -> SolveResponse:
        watch.stop()
        self.telemetry.increment("service.failures")
        return SolveResponse(
            request_id=request_id,
            ok=False,
            solver=solver_name,
            plan=None,
            total_cost=None,
            feasible=None,
            cache=CACHE_NONE,
            elapsed_seconds=watch.elapsed,
            solve_seconds=0.0,
            batch_size=batch_size,
            problem_fingerprint=problem.fingerprint if problem is not None else None,
            error=envelope_from_error(exc),
        )

    # -- normalisation ---------------------------------------------------------

    def _normalize(
        self, request: SolveRequest
    ) -> Tuple[str, Dict[str, Any], bool, SladeProblem]:
        """Resolve defaults and clamps into concrete dispatch arguments."""
        solver_name = request.solver
        if solver_name is None and request.deadline_ms is not None:
            # A budgeted request that does not pin a solver goes through the
            # anytime ladder: the OPQ plan if its queues are cached or built
            # in time, greedy otherwise.  Pinning a solver opts out (the facade still enforces
            # the pre-dispatch expiry check, but not mid-solve preemption).
            solver_name = "anytime"
        if solver_name is None:
            solver_name = self.config.solver
        if solver_name not in available_solvers():
            known = ", ".join(available_solvers())
            raise RequestValidationError(
                f"unknown solver {solver_name!r}; known solvers: {known}"
            )
        options = dict(request.options or {})
        for key in options:
            if not isinstance(key, str):
                raise RequestValidationError(
                    f"solver option names must be strings, got {key!r}"
                )
        if "queue_factory" in options or "prebuilt_queue" in options:
            raise RequestValidationError(
                "queue injection is managed by the service; remove "
                "'queue_factory'/'prebuilt_queue' from request options"
            )
        verify = self.config.verify if request.verify is None else request.verify
        problem = self._calibrated_problem(self._clamp_problem(request.problem))
        return solver_name, options, verify, problem

    def _clamp_problem(self, problem: SladeProblem) -> SladeProblem:
        """Apply the configured threshold floor/cap, rebuilding if needed."""
        if not self.config.clamps_thresholds:
            return problem
        clamp = self.config.clamp_threshold
        if all(clamp(t) == t for t in set(problem.task.thresholds)):
            return problem
        tasks = [
            AtomicTask(atomic.task_id, clamp(atomic.threshold), atomic.payload)
            for atomic in problem.task
        ]
        return SladeProblem(
            CrowdsourcingTask(tasks, name=problem.task.name),
            problem.bins,
            name=problem.name,
        )

    def _calibrated_problem(self, problem: SladeProblem) -> SladeProblem:
        """Serve the request against its menu lineage's *active* epoch.

        Registers the request's menu (and its thresholds, the drift sweep's
        re-plan worklist) with the drift controller; when the lineage has
        been recalibrated, the problem is rebuilt against the corrected
        menu so the plan honours the *calibrated* confidences while the
        client keeps sending the menu it knows.  Strictly fail-open: any
        problem here serves the request against the menu it sent.
        """
        try:
            thresholds = sorted(set(problem.task.thresholds))
            active = self.drift.register(problem.bins, thresholds)
            if active is problem.bins or active.fingerprint == problem.bins.fingerprint:
                return problem
            return SladeProblem(problem.task, active, name=problem.name)
        except Exception:
            return problem
