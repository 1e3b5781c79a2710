"""Typed request/response surface of the SLADE service layer.

The service layer turns the library-shaped solver stack into an *online
decomposition service*: callers describe what they want solved in a
:class:`SolveRequest`, the service normalises and dispatches it, and every
outcome — success or failure — comes back as a structured
:class:`SolveResponse` instead of a raised exception.  The shapes are plain
dataclasses so they serialise cleanly (see
:mod:`repro.io.serialization`) and survive transport boundaries
(JSON lines on the ``repro serve`` CLI, futures in the async frontend).

:class:`ServiceConfig` collects the tunables shared by the synchronous
facade and the async frontend: the default solver, per-solver options,
threshold clamping bounds, the flush bound, and the plan-cache backend spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.algorithms.anytime import (
    QUALITY_GREEDY,
    QUALITY_OPTIMAL,
    QUALITY_REFINED,
)
from repro.core.errors import SladeError
from repro.core.plan import DecompositionPlan
from repro.core.problem import SladeProblem

#: Cache provenance values carried by :attr:`SolveResponse.cache`.
CACHE_HIT = "hit"          #: the OPQ was served from the plan cache
CACHE_MISS = "miss"        #: the OPQ was built (and stored) for this request
CACHE_BYPASS = "bypass"    #: the solver does not consult the plan cache
CACHE_NONE = "none"        #: the request failed before/without touching the cache

#: Which ladder rung produced the winning plan (:attr:`Provenance.tier`).
TIER_CACHE = "cache"       #: an OPQ served from the plan cache answered
TIER_BUILD = "build"       #: a fresh (possibly budgeted) Algorithm 2 run answered
TIER_GREEDY = "greedy"     #: the immediate greedy floor answered
TIER_SOLVER = "solver"     #: a cache-bypassing solver answered directly

#: The degradation ladder, best first (:attr:`Provenance.quality` values).
QUALITIES = (QUALITY_OPTIMAL, QUALITY_REFINED, QUALITY_GREEDY)


class ServiceError(SladeError):
    """Base class for service-layer failures (validation, lifecycle)."""


class RequestValidationError(ServiceError):
    """A solve request failed normalisation (unknown solver, bad options)."""


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that has been shut down."""


class AdmissionError(ServiceError):
    """Base class for admission-control rejections (quota, overload)."""


class RateLimitedError(AdmissionError):
    """A tenant exceeded its token-bucket rate or max-inflight quota.

    ``retry_after`` (seconds) estimates when the tenant's bucket will hold
    enough tokens again; transports surface it as a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class OverloadedError(AdmissionError):
    """The service as a whole is at its global in-flight capacity."""


class DeadlineExceededError(ServiceError):
    """A request's latency budget expired before a plan could be produced.

    Raised only when there is *nothing* feasible to return: the budget was
    already blown when the request reached the front of the queue (so the
    planner never ran), or it expired before even the greedy floor finished.
    A request whose budget runs out mid-refinement is *not* an error — it gets
    its best-so-far plan with a degraded :attr:`Provenance.quality`.
    Transports surface this as a structured 503, counted separately from
    overload rejections via the ``deadline.expired`` counter.
    """


class AuthenticationError(ServiceError):
    """The request failed the transport's shared-secret check (HTTP 401)."""


@dataclass(frozen=True)
class ErrorEnvelope:
    """A transport-safe description of a request failure.

    Attributes
    ----------
    type:
        The exception class name (``"InfeasiblePlanError"``, ...), so clients
        can branch on failure kinds without importing the library.
    message:
        The human-readable error message.
    """

    type: str
    message: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorEnvelope":
        """Wrap a caught exception into an envelope."""
        return cls(type=type(exc).__name__, message=str(exc))

    def __str__(self) -> str:
        return f"{self.type}: {self.message}"


def envelope_from_error(exc: BaseException) -> ErrorEnvelope:
    """The one conversion from a caught exception to a transport envelope.

    Every transport — the HTTP server, the JSON-lines ``repro serve`` loop,
    the facade's internal failure path — builds envelopes through this
    helper, so a malformed request fails with the same shape everywhere.
    """
    return ErrorEnvelope.from_exception(exc)


@dataclass(frozen=True)
class Provenance:
    """How the answer on a successful response was produced.

    Attributes
    ----------
    quality:
        Degradation marker from the anytime ladder: ``"optimal"`` — the
        requested computation ran to completion, the answer is undegraded;
        ``"refined"`` — a deadline truncated the OPQ refinement and a
        better-than-greedy best-so-far plan was served; ``"greedy"`` — only
        the immediate greedy floor fit the budget.  Every value denotes a
        *feasible* plan.
    tier:
        Which ladder rung produced the winning plan: :data:`TIER_CACHE`,
        :data:`TIER_BUILD`, :data:`TIER_GREEDY`, or :data:`TIER_SOLVER`.
    deadline_ms:
        The latency budget the request asked for (``None`` when unbudgeted).
    remaining_budget_ms:
        Budget left when the planner was dispatched — the requested budget
        minus queue/coalescing wait.  ``None`` when unbudgeted; ``0.0`` never
        appears on a response (an exhausted budget fails before dispatch).
    """

    quality: str
    tier: str
    deadline_ms: Optional[float] = None
    remaining_budget_ms: Optional[float] = None


@dataclass(frozen=True)
class SolveRequest:
    """One decomposition request submitted to the service.

    Attributes
    ----------
    problem:
        The SLADE instance to decompose.
    solver:
        Registry name of the solver to use; ``None`` defers to the service's
        configured default (or the anytime ladder when ``deadline_ms`` is
        set).
    options:
        Extra solver keyword arguments, merged over the service's per-solver
        defaults.
    verify:
        Per-request override of plan feasibility verification; ``None``
        defers to the service configuration.
    request_id:
        Caller-chosen correlation id echoed on the response; the service
        assigns a sequential one when omitted.
    tenant:
        Admission-control identity the request is accounted under.  The HTTP
        transport fills it from the ``X-Tenant`` header (the request field
        wins when both are present); ``None`` falls into the transport's
        default tenant.  Note the transport charges the header/default
        identity provisionally *before* parsing the body (refunded if the
        field names someone else), so an exhausted header tenant is
        rejected without the body ever being read.  The facade itself
        ignores this field.
    deadline_ms:
        Optional end-to-end latency budget in milliseconds, measured from the
        moment the service *receives* the request (wire parse, or facade
        entry for library callers).  Time spent queueing counts against it;
        a request whose budget expires before dispatch is rejected with
        :class:`DeadlineExceededError` and never reaches the planner.
    deadline_at:
        Internal absolute form of the budget: the ``time.monotonic()``
        instant the budget expires, stamped once at receipt so queue wait
        subtracts naturally.  Never serialised; transports and the facade
        fill it via :func:`repro.service.normalize.stamp_deadline`.
    """

    problem: SladeProblem
    solver: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    verify: Optional[bool] = None
    request_id: Optional[str] = None
    tenant: Optional[str] = None
    deadline_ms: Optional[float] = None
    deadline_at: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.problem, SladeProblem):
            raise RequestValidationError(
                f"problem must be a SladeProblem, got {type(self.problem).__name__}"
            )
        if self.deadline_ms is not None:
            try:
                budget = float(self.deadline_ms)
            except (TypeError, ValueError):
                raise RequestValidationError(
                    f"deadline_ms must be a number, got {self.deadline_ms!r}"
                ) from None
            if budget <= 0:
                raise RequestValidationError(
                    f"deadline_ms must be > 0; got {self.deadline_ms}"
                )


@dataclass(frozen=True)
class SolveResponse:
    """The structured outcome of one solve request.

    Successful responses (``ok=True``) carry the plan and its headline
    numbers; failed ones (``ok=False``) carry an :class:`ErrorEnvelope` and
    ``None`` for the plan fields.  Either way the response records service
    timing, cache provenance, and the size of the micro-batch the request
    rode in (1 on the synchronous path).
    """

    request_id: str
    ok: bool
    solver: Optional[str]
    plan: Optional[DecompositionPlan]
    total_cost: Optional[float]
    feasible: Optional[bool]
    cache: str
    elapsed_seconds: float
    solve_seconds: float
    batch_size: int = 1
    problem_fingerprint: Optional[str] = None
    error: Optional[ErrorEnvelope] = None
    provenance: Optional[Provenance] = None

    def raise_for_error(self) -> "SolveResponse":
        """Raise :class:`ServiceError` if the request failed; else return self.

        Bridges back to exception-style control flow for callers that prefer
        it over inspecting the envelope.
        """
        if not self.ok:
            detail = str(self.error) if self.error is not None else "unknown error"
            raise ServiceError(f"request {self.request_id} failed: {detail}")
        return self


def failure_response(
    request_id: str,
    exc: BaseException,
    batch_size: int = 1,
    elapsed_seconds: float = 0.0,
) -> SolveResponse:
    """A uniform ``ok=False`` response for a request that never solved.

    Used for failures *outside* the facade (unparseable JSON, admission
    rejections, transport errors), so clients see the exact envelope shape a
    solver-level failure produces.
    """
    return SolveResponse(
        request_id=request_id,
        ok=False,
        solver=None,
        plan=None,
        total_cost=None,
        feasible=None,
        cache=CACHE_NONE,
        elapsed_seconds=elapsed_seconds,
        solve_seconds=0.0,
        batch_size=batch_size,
        error=envelope_from_error(exc),
    )


def http_status_for(exc: BaseException) -> int:
    """Map an exception to the HTTP status the transport should return.

    Admission rejections map to 429 (per-tenant quota) and 503 (global
    overload / shutting down / expired latency budget); failed shared-secret
    checks map to 401; every other library-level error is the caller's
    fault (400); anything unrecognised is a server error (500).
    """
    if isinstance(exc, RateLimitedError):
        return 429
    if isinstance(exc, (OverloadedError, ServiceClosedError, DeadlineExceededError)):
        return 503
    if isinstance(exc, AuthenticationError):
        return 401
    if isinstance(exc, (SladeError, KeyError, ValueError, TypeError)):
        return 400
    return 500


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables shared by :class:`~repro.service.facade.SladeService` and
    :class:`~repro.service.async_service.AsyncSladeService`.

    No tunable picks the Algorithm 2 core: cold OPQ builds use the
    vectorized core whenever the menu's LCM fits int64 and the pure-Python
    reference otherwise (see :func:`repro.algorithms.opq_vec.build_queue`).
    No tunable sizes a flush either: the async frontend takes at most
    :data:`~repro.service.async_service.MAX_BATCH_SIZE` queued requests.

    Attributes
    ----------
    solver:
        Default registry solver for requests that do not name one.
    solver_options:
        Default per-solver keyword arguments, keyed by registry name (the
        same shape :class:`~repro.engine.planner.BatchPlanner` takes).
    verify:
        Whether plans are feasibility-checked unless a request overrides it.
    threshold_floor / threshold_cap:
        Optional clamping bounds applied to every task threshold during
        normalisation.  A cap protects the service from pathological
        near-one thresholds whose OPQ construction is astronomically
        expensive; a floor enforces a minimum quality of service.  ``None``
        disables the respective bound.
    cache_backend:
        Plan-cache backend spec for :func:`repro.engine.backends.open_backend`
        (``"memory"``, ``"memory:<N>"``, ``"sqlite:<path>"``,
        ``"remote://host:port"`` for a shared ``repro cached`` server, or
        ``"tiered:memory:<N>+remote://host:port"`` for an in-process LRU in
        front of the shared tier); ``None`` means a fresh in-memory backend.
    max_cache_entries:
        Optional LRU bound forwarded to the backend.
    drift_window / drift_min_observations / drift_tolerance /
    drift_tolerance_above:
        Per-menu :class:`~repro.crowd.monitoring.QualityMonitor` tunables for
        the drift-driven calibration loop: sliding-window size, minimum
        observations before a cardinality can be flagged, and the tolerance
        band (``drift_tolerance_above`` defaults to ``drift_tolerance``,
        i.e. a symmetric band).
    drift_check_seconds:
        Interval of the HTTP server's background drift sweep; ``0`` disables
        the background worker (observations are still collected and a sweep
        can be driven manually).
    """

    solver: str = "opq"
    solver_options: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    verify: bool = True
    threshold_floor: Optional[float] = None
    threshold_cap: Optional[float] = None
    cache_backend: Optional[str] = None
    max_cache_entries: Optional[int] = None
    drift_window: int = 200
    drift_min_observations: int = 30
    drift_tolerance: float = 0.05
    drift_tolerance_above: Optional[float] = None
    drift_check_seconds: float = 1.0

    def __post_init__(self) -> None:
        for label, bound in (
            ("threshold_floor", self.threshold_floor),
            ("threshold_cap", self.threshold_cap),
        ):
            if bound is not None and not (0.0 <= bound < 1.0):
                raise ServiceError(f"{label} must lie in [0, 1); got {bound}")
        if (
            self.threshold_floor is not None
            and self.threshold_cap is not None
            and self.threshold_floor > self.threshold_cap
        ):
            raise ServiceError(
                f"threshold_floor {self.threshold_floor} exceeds "
                f"threshold_cap {self.threshold_cap}"
            )
        if self.drift_window < 1:
            raise ServiceError(
                f"drift_window must be >= 1; got {self.drift_window}"
            )
        if not 1 <= self.drift_min_observations <= self.drift_window:
            raise ServiceError(
                "drift_min_observations must lie in [1, drift_window]; "
                f"got {self.drift_min_observations}"
            )
        for label, bound in (
            ("drift_tolerance", self.drift_tolerance),
            ("drift_tolerance_above", self.drift_tolerance_above),
        ):
            if bound is not None and not (0.0 < bound < 1.0):
                raise ServiceError(
                    f"{label} must lie strictly between 0 and 1; got {bound}"
                )
        if self.drift_check_seconds < 0:
            raise ServiceError(
                f"drift_check_seconds must be >= 0; got {self.drift_check_seconds}"
            )

    def clamp_threshold(self, threshold: float) -> float:
        """Apply the configured floor/cap to one threshold value."""
        if self.threshold_floor is not None and threshold < self.threshold_floor:
            threshold = self.threshold_floor
        if self.threshold_cap is not None and threshold > self.threshold_cap:
            threshold = self.threshold_cap
        return threshold

    @property
    def clamps_thresholds(self) -> bool:
        """Whether any clamping bound is active."""
        return self.threshold_floor is not None or self.threshold_cap is not None


def solver_options_dict(
    options: Mapping[str, Mapping[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Deep-copy a per-solver options mapping into plain dicts."""
    return {name: dict(opts) for name, opts in options.items()}
