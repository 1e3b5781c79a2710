"""The batch planner: dispatch many SLADE instances through shared caches.

This is the engine's front door.  A :class:`BatchPlanner` owns a
:class:`~repro.engine.cache.PlanCache` and knows how to instantiate any
registry solver with the cache injected (for solvers that build optimal
priority queues) so that Algorithm 2 runs once per distinct
``(bin set, threshold)`` pair across the whole batch.  Three execution
strategies are supported:

``serial``
    Solve in submission order on the calling thread (the default).
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor` sharing one cache.
    Python threads only overlap during I/O, but the strategy exercises the
    exact code path a future async service frontend would use.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  The parent pre-warms
    its cache with every queue the batch needs, then ships the queues to the
    workers, so construction still happens once overall.

Whatever the strategy, the produced plans are identical to solving each
instance with a cold solver — the equivalence is pinned by
``tests/engine/test_engine_equivalence.py``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.algorithms.base import SolveResult, Solver
from repro.algorithms.opq_extended import group_thresholds
from repro.algorithms.registry import create_solver, solver_accepts_queue_factory
from repro.core.problem import SladeProblem
from repro.engine.cache import CacheStats, PlanCache
from repro.engine.specs import BatchSpec
from repro.engine.telemetry import Telemetry
from repro.utils.timing import Stopwatch

#: Execution strategies understood by :class:`BatchPlanner`.
EXECUTORS = ("serial", "thread", "process")


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
    executor:
        Execution strategy actually used (single-instance batches always
        report ``"serial"`` regardless of the configured strategy).
    workers:
        Worker count for parallel strategies (1 for serial).
    wall_seconds:
        End-to-end batch wall-clock time.
    solve_seconds:
        Sum of per-instance solver time (>= wall time under parallelism).
    build_seconds:
        Time spent constructing optimal priority queues (cache misses only).
    cache_hits / cache_misses:
        Queue requests served from / added to the cache during this batch,
        aggregated across worker processes when applicable.
    """

    instances: int
    solver: str
    executor: str
    workers: int
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
            "executor": self.executor,
            "workers": self.workers,
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


#: Per-worker-process cache, seeded once by :func:`_init_worker` so the
#: parent's pre-built queues are pickled per *worker*, not per instance.
_WORKER_CACHE: Optional[PlanCache] = None


def _init_worker(entries: Dict[Any, Any]) -> None:
    """Process-pool initializer: adopt the parent's pre-built queues."""
    global _WORKER_CACHE
    _WORKER_CACHE = PlanCache()
    _WORKER_CACHE.absorb(entries)


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


def _solve_job(
    payload: Tuple[SladeProblem, str, Dict[str, Any]],
) -> Tuple[SolveResult, CacheStats]:
    """Process-pool worker: solve one instance against the worker cache.

    Module-level so it is picklable; reports the cache counters *delta* of
    this job back so the batch statistics cover worker-side hits too.
    """
    problem, solver_name, options = payload
    cache = _WORKER_CACHE if _WORKER_CACHE is not None else PlanCache()
    before = cache.stats
    result = _make_solver(cache, solver_name, options).solve(problem)
    return result, cache.stats.since(before)


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
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``.
    max_workers:
        Worker count for the parallel strategies; ``None`` lets the pool
        choose.
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
        executor: str = "serial",
        max_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.cache = cache if cache is not None else PlanCache(telemetry=telemetry)
        self.solver_options = dict(solver_options or {})
        self.verify = verify
        self.executor = executor
        self.max_workers = max_workers
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
        submission order regardless of the execution strategy.
        """
        instances: List[SladeProblem] = list(problems)
        effective = _merge_options(
            self.solver_options.get(solver),
            options,
            self.verify if verify is None else verify,
        )

        before = self.cache.stats
        worker_stats: List[CacheStats] = []
        # Single-instance batches gain nothing from a pool; fall back to (and
        # report) serial execution.
        executor_used = (
            "serial" if len(instances) <= 1 else self.executor
        )
        watch = Stopwatch()
        with watch:
            if executor_used == "serial":
                results = self._run_serial(instances, solver, effective)
            elif executor_used == "thread":
                results = self._run_threads(instances, solver, effective)
            else:
                results = self._run_processes(
                    instances, solver, effective, worker_stats
                )
        after = self.cache.stats

        delta = after.since(before)
        hits = delta.hits + sum(s.hits for s in worker_stats)
        misses = delta.misses + sum(s.misses for s in worker_stats)
        build = delta.build_seconds + sum(s.build_seconds for s in worker_stats)
        items = [
            BatchItem(index=i, problem=p, solver=solver, result=r)
            for i, (p, r) in enumerate(zip(instances, results))
        ]
        stats = BatchStats(
            instances=len(items),
            solver=solver,
            executor=executor_used,
            workers=1 if executor_used == "serial" else self._worker_count(len(instances)),
            wall_seconds=watch.elapsed,
            solve_seconds=sum(r.elapsed_seconds for r in results),
            build_seconds=build,
            cache_hits=hits,
            cache_misses=misses,
        )
        if self.telemetry is not None:
            self.telemetry.increment("planner.batches")
            self.telemetry.increment("planner.instances", len(items))
            self.telemetry.observe("planner.batch_size", len(items))
        return BatchResult(items=items, stats=stats)

    # -- execution strategies -------------------------------------------------------

    def _worker_count(self, instances: int) -> int:
        if self.executor == "serial" or instances <= 1:
            return 1
        if self.max_workers is not None:
            return max(1, min(self.max_workers, instances))
        return min(8, instances)

    def _run_serial(
        self,
        instances: Sequence[SladeProblem],
        solver: str,
        options: Dict[str, Any],
    ) -> List[SolveResult]:
        return [
            _make_solver(self.cache, solver, options).solve(problem)
            for problem in instances
        ]

    def _run_threads(
        self,
        instances: Sequence[SladeProblem],
        solver: str,
        options: Dict[str, Any],
    ) -> List[SolveResult]:
        workers = self._worker_count(len(instances))

        def run(problem: SladeProblem) -> SolveResult:
            # One solver per task: Solver instances carry per-call metadata
            # and are not thread-safe; the cache underneath is.
            return _make_solver(self.cache, solver, options).solve(problem)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, instances))

    def _prewarm(self, instances: Sequence[SladeProblem], solver: str) -> None:
        """Build every queue the batch will need into the parent cache.

        A homogeneous instance is warmed under its common threshold (what
        :class:`~repro.algorithms.opq.OPQSolver` requests) *and* under its
        Algorithm 4 group thresholds, because
        :class:`~repro.algorithms.opq_extended.OPQExtendedSolver` requests
        the residual round-trip ``1 - e^{ln(1-t)}``, which is not always
        bit-identical to ``t`` — and cache keys are bit-exact.  Heterogeneous
        instances request one queue per Algorithm 4 group, whose thresholds
        :func:`~repro.algorithms.opq_extended.group_thresholds` reveals
        without paying for construction.
        """
        if not solver_accepts_queue_factory(solver):
            return
        for problem in instances:
            if problem.is_homogeneous:
                self.cache.warm(problem.bins, (problem.homogeneous_threshold,))
            self.cache.warm(
                problem.bins, group_thresholds(problem.task.thresholds)
            )

    def _run_processes(
        self,
        instances: Sequence[SladeProblem],
        solver: str,
        options: Dict[str, Any],
        worker_stats: List[CacheStats],
    ) -> List[SolveResult]:
        self._prewarm(instances, solver)
        entries = self.cache.export_entries()
        payloads = [(problem, solver, options) for problem in instances]
        workers = self._worker_count(len(instances))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(entries,)
        ) as pool:
            outcomes = list(pool.map(_solve_job, payloads))
        results = [result for result, _stats in outcomes]
        worker_stats.extend(stats for _result, stats in outcomes)
        return results
