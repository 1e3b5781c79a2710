"""The batch planner: dispatch many SLADE instances through shared caches.

This is the engine's front door.  A :class:`BatchPlanner` owns a
:class:`~repro.engine.cache.PlanCache` and knows how to instantiate any
registry solver with the cache injected (for solvers that build optimal
priority queues) so that Algorithm 2 runs once per distinct
``(bin set, threshold)`` pair across the whole batch.  Every instance is
solved in submission order on the calling thread: the batch gains from the
shared cache, not from worker pools.

The produced plans are identical to solving each instance with a cold
solver — the equivalence is pinned by
``tests/engine/test_engine_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.algorithms.base import SolveResult, Solver
from repro.algorithms.registry import create_solver, solver_accepts_queue_factory
from repro.core.problem import SladeProblem
from repro.engine.cache import PlanCache
from repro.engine.specs import BatchSpec
from repro.engine.telemetry import Telemetry
from repro.utils.timing import Stopwatch


@dataclass(frozen=True)
class BatchItem:
    """One solved instance within a batch."""

    index: int
    problem: SladeProblem
    solver: str
    result: SolveResult

    @property
    def total_cost(self) -> float:
        """Total incentive cost of the instance's plan."""
        return self.result.total_cost

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock time spent inside the solver for this instance."""
        return self.result.elapsed_seconds


@dataclass(frozen=True)
class BatchStats:
    """Per-batch statistics: cache behaviour and solve-time breakdown.

    Attributes
    ----------
    instances:
        Number of problems solved.
    solver:
        Registry name of the solver used.
    wall_seconds:
        End-to-end batch wall-clock time.
    solve_seconds:
        Sum of per-instance solver time.
    build_seconds:
        Time spent constructing optimal priority queues (cache misses only).
    cache_hits / cache_misses:
        Queue requests served from / added to the cache during this batch.
    """

    instances: int
    solver: str
    wall_seconds: float
    solve_seconds: float
    build_seconds: float
    cache_hits: int
    cache_misses: int

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of queue requests answered without construction."""
        requests = self.cache_hits + self.cache_misses
        if requests == 0:
            return 0.0
        return self.cache_hits / requests

    def as_dict(self) -> Dict[str, Any]:
        """A flat dictionary for reports and JSON export."""
        return {
            "instances": self.instances,
            "solver": self.solver,
            "wall_seconds": self.wall_seconds,
            "solve_seconds": self.solve_seconds,
            "build_seconds": self.build_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
        }


@dataclass
class BatchResult:
    """Everything a batch run produced: solved items plus statistics."""

    items: List[BatchItem]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def results(self) -> List[SolveResult]:
        """The per-instance solve results, in submission order."""
        return [item.result for item in self.items]

    @property
    def total_cost(self) -> float:
        """Summed incentive cost across every instance in the batch."""
        return sum(item.total_cost for item in self.items)

    @property
    def all_feasible(self) -> bool:
        """Whether every produced plan satisfies its instance's thresholds."""
        return all(item.result.feasible for item in self.items)

    def as_dict(self, include_plans: bool = False) -> Dict[str, Any]:
        """A JSON-compatible summary of the batch: per-item rows plus stats.

        ``include_plans=True`` inlines each item's full decomposition plan
        (via :func:`repro.io.serialization.plan_to_dict`); the default keeps
        only the headline numbers, which is what reports and dashboards want.
        """
        # Imported here: repro.io.serialization sits above the engine in the
        # layering (it also serialises service types), so the engine must not
        # import it at module load time.
        from repro.io.serialization import plan_to_dict

        items = []
        for item in self.items:
            entry: Dict[str, Any] = {
                "index": item.index,
                "problem": item.problem.name,
                "n": item.problem.n,
                "solver": item.solver,
                "total_cost": item.total_cost,
                "elapsed_seconds": item.elapsed_seconds,
                "feasible": item.result.feasible,
            }
            if include_plans:
                entry["plan"] = plan_to_dict(item.result.plan)
            items.append(entry)
        return {"stats": self.stats.as_dict(), "items": items}


def _merge_options(
    base: Optional[Dict[str, Any]],
    override: Optional[Dict[str, Any]],
    verify: bool,
) -> Dict[str, Any]:
    options: Dict[str, Any] = dict(base or {})
    options.update(override or {})
    options.setdefault("verify", verify)
    return options


def _make_solver(cache: PlanCache, solver: str, options: Dict[str, Any]) -> Solver:
    """Instantiate ``solver``, injecting ``cache`` when it takes a queue factory.

    The one place a plan cache reaches a solver: the cache object itself is
    the ``queue_factory``, so the anytime ladder finds its ``peek`` /
    ``publish`` / ``seed_for`` too.  An explicit ``queue_factory`` option wins.
    """
    if solver_accepts_queue_factory(solver):
        options = dict(options)
        options.setdefault("queue_factory", cache)
    return create_solver(solver, **options)


class BatchPlanner:
    """Solve many SLADE instances through one shared plan cache.

    Parameters
    ----------
    cache:
        The :class:`~repro.engine.cache.PlanCache` to share; a fresh unbounded
        cache is created when omitted.  Pass an existing cache to share queue
        construction across multiple batches (e.g. a whole figure sweep).
    solver_options:
        Default per-solver keyword arguments, keyed by registry name —
        the same shape :class:`~repro.experiments.config.ExperimentConfig`
        uses.  Per-call options override these.
    verify:
        Whether solvers should assert plan feasibility (the default; matches
        :class:`~repro.algorithms.base.Solver`).
    telemetry:
        Optional :class:`~repro.engine.telemetry.Telemetry` registry; when
        set, every batch reports ``planner.batches`` / ``planner.instances``
        counters and a ``planner.batch_size`` series (and is also forwarded
        to the planner's cache when the planner constructs it).
    """

    def __init__(
        self,
        cache: Optional[PlanCache] = None,
        solver_options: Optional[Dict[str, Dict[str, Any]]] = None,
        verify: bool = True,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.cache = cache if cache is not None else PlanCache(telemetry=telemetry)
        self.solver_options = dict(solver_options or {})
        self.verify = verify
        self.telemetry = telemetry

    # -- single-instance path ----------------------------------------------------

    def solve(
        self,
        problem: SladeProblem,
        solver: str = "opq",
        options: Optional[Dict[str, Any]] = None,
        verify: Optional[bool] = None,
    ) -> SolveResult:
        """Solve one instance through the shared cache.

        This is the unit the experiment runner delegates to; it behaves like
        ``create_solver(solver, **options).solve(problem)`` except that OPQ
        construction is served from (and recorded in) the planner's cache.
        """
        effective = _merge_options(
            self.solver_options.get(solver),
            options,
            self.verify if verify is None else verify,
        )
        return _make_solver(self.cache, solver, effective).solve(problem)

    # -- batch path ----------------------------------------------------------------

    def solve_many(
        self,
        problems: Union[BatchSpec, Iterable[SladeProblem]],
        solver: str = "opq",
        options: Optional[Dict[str, Any]] = None,
        verify: Optional[bool] = None,
    ) -> BatchResult:
        """Solve every instance in ``problems`` and return items plus stats.

        ``problems`` may be a :class:`~repro.engine.specs.BatchSpec` (expanded
        lazily) or any iterable of problem instances.  Items come back in
        submission order.
        """
        instances: List[SladeProblem] = list(problems)
        effective = _merge_options(
            self.solver_options.get(solver),
            options,
            self.verify if verify is None else verify,
        )

        before = self.cache.stats
        watch = Stopwatch()
        with watch:
            results = [
                _make_solver(self.cache, solver, effective).solve(problem)
                for problem in instances
            ]
        delta = self.cache.stats.since(before)
        items = [
            BatchItem(index=i, problem=p, solver=solver, result=r)
            for i, (p, r) in enumerate(zip(instances, results))
        ]
        stats = BatchStats(
            instances=len(items),
            solver=solver,
            wall_seconds=watch.elapsed,
            solve_seconds=sum(r.elapsed_seconds for r in results),
            build_seconds=delta.build_seconds,
            cache_hits=delta.hits,
            cache_misses=delta.misses,
        )
        if self.telemetry is not None:
            self.telemetry.increment("planner.batches")
            self.telemetry.increment("planner.instances", len(items))
            self.telemetry.observe("planner.batch_size", len(items))
        return BatchResult(items=items, stats=stats)
