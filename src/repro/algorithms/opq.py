"""Algorithms 2-3: the Optimal Priority Queue (OPQ) and the OPQ-Based solver.

The OPQ machinery answers the question "what is the cheapest way to satisfy the
reliability threshold for a *block* of atomic tasks at once?".

* A :class:`Combination` is a multiset of task bins ``{n_k x b_k}`` that one
  atomic task is assigned to.  Its ``LCM`` (least common multiple of the bin
  cardinalities) is the number of atomic tasks that the combination covers
  exactly when replicated across a block, and its unit cost ``UC`` is the
  per-task incentive cost of doing so (Example 6 in the paper).
* The :class:`OptimalPriorityQueue` (Definition 4) keeps only the Pareto
  frontier of feasible combinations — no element may be dominated in both LCM
  and UC — ordered by decreasing LCM.
* :func:`build_optimal_priority_queue` is Algorithm 2: a depth-first
  enumeration of combinations with the Lemma 1 domination pruning rule.
* :class:`OPQSolver` is Algorithm 3: it repeatedly covers
  ``floor(n / OPQ1.LCM)`` blocks with the head combination, then falls through
  to smaller combinations for the remainder, giving a ``log n`` approximation
  (Theorem 2) and the exact optimum whenever ``n`` is a multiple of
  ``OPQ1.LCM`` (Corollary 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.algorithms.base import Solver
from repro.core.bins import TaskBin, TaskBinSet
from repro.core.errors import InfeasiblePlanError, InvalidProblemError, SladeError
from repro.core.plan import DecompositionPlan
from repro.core.problem import SladeProblem
from repro.utils.logmath import lcm_of, residual_from_reliability


@dataclass(frozen=True)
class Combination:
    """A multiset of task bins assigned to a single atomic task.

    Attributes
    ----------
    counts:
        Mapping from bin cardinality to the number of times a task is assigned
        to a bin of that cardinality, stored as a sorted tuple of
        ``(cardinality, count)`` pairs so the combination is hashable.
    bins:
        The task bin set the cardinalities refer to.
    """

    counts: Tuple[Tuple[int, int], ...]
    bins: TaskBinSet

    @classmethod
    def from_counts(cls, counts: Dict[int, int], bins: TaskBinSet) -> "Combination":
        """Build a combination from a ``{cardinality: count}`` mapping."""
        items = tuple(sorted((l, c) for l, c in counts.items() if c > 0))
        if not items:
            raise InvalidProblemError("a combination must use at least one task bin")
        for cardinality, _count in items:
            if cardinality not in bins:
                raise KeyError(f"bin set has no cardinality {cardinality}")
        combination = cls(items, bins)
        combination._cache_quantities()
        return combination

    # -- core quantities -------------------------------------------------------

    def _cache_quantities(self) -> None:
        """Precompute the hot quantities once, at construction.

        ``insert``/``dominates`` read ``lcm`` and ``unit_cost`` for every
        frontier element on every enumeration node; recomputing them per
        access made Algorithm 2 superlinearly slower as the frontier grew.
        The dataclass is frozen, hence ``object.__setattr__``.
        """
        lcm = lcm_of(cardinality for cardinality, _count in self.counts)
        unit_cost = 0.0
        residual = 0.0
        for cardinality, count in self.counts:
            task_bin = self.bins[cardinality]
            unit_cost += (task_bin.cost / cardinality) * count
            residual += task_bin.residual_contribution * count
        object.__setattr__(self, "_lcm", lcm)
        object.__setattr__(self, "_unit_cost", unit_cost)
        object.__setattr__(self, "_residual", residual)

    def __getattr__(self, name: str):
        # Combinations built by the bare constructor, or unpickled from cache
        # payloads written before the cached quantities existed, lack the
        # precomputed attributes; materialise them on first touch.
        if name in ("_lcm", "_unit_cost", "_residual"):
            self._cache_quantities()
            return object.__getattribute__(self, name)
        raise AttributeError(name)

    @property
    def lcm(self) -> int:
        """Least common multiple of the member cardinalities (block size)."""
        return self._lcm

    @property
    def unit_cost(self) -> float:
        """Per-atomic-task cost ``UC = sum_k (c_k / k) * n_k``."""
        return self._unit_cost

    @property
    def residual(self) -> float:
        """Reliability (in residual space) granted to each covered task."""
        return self._residual

    def satisfies(self, threshold: float) -> bool:
        """Whether the combination meets a reliability threshold."""
        return self.residual >= residual_from_reliability(threshold) - 1e-12

    @property
    def block_cost(self) -> float:
        """Cost of covering one full block of ``lcm`` atomic tasks."""
        return self.lcm * self.unit_cost

    # -- plan expansion ---------------------------------------------------------

    def postings_for_block(self, task_ids: Sequence[int]) -> Iterator[Tuple[TaskBin, Tuple[int, ...]]]:
        """Yield the concrete bin postings covering a block of atomic tasks.

        ``task_ids`` may contain fewer tasks than ``lcm`` (the remainder block
        of Algorithm 3); the postings are then partially filled but still cost
        the full bin price, exactly as on a real platform.  Every task in the
        block receives each bin cardinality ``k`` exactly ``n_k`` times, so the
        reliability granted matches :attr:`residual`.
        """
        if not task_ids:
            return
        block = list(task_ids)
        lcm = self.lcm
        if len(block) > lcm:
            raise InvalidProblemError(
                f"block of {len(block)} tasks exceeds combination LCM {lcm}"
            )
        for cardinality, count in self.counts:
            task_bin = self.bins[cardinality]
            groups = lcm // cardinality
            for _round in range(count):
                for g in range(groups):
                    members = tuple(block[g * cardinality:(g + 1) * cardinality])
                    if members:
                        yield task_bin, members

    def __str__(self) -> str:
        parts = " + ".join(f"{count}xb{cardinality}" for cardinality, count in self.counts)
        return f"{{{parts}}} (LCM={self.lcm}, UC={self.unit_cost:.4f})"


class OptimalPriorityQueue:
    """The Pareto frontier of feasible combinations, ordered by decreasing LCM.

    Definition 4 of the paper: (1) elements are ranked by descending LCM,
    (2) no element is dominated by another in both LCM and UC, and (3) every
    element satisfies the reliability threshold it was built for.
    """

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self._elements: List[Combination] = []
        #: Enumeration counters of the build that produced the queue.
        self.stats: Dict[str, int] = {}

    # -- maintenance -----------------------------------------------------------

    def insert(self, combination: Combination) -> bool:
        """Insert ``combination`` unless it is dominated; drop newly dominated ones.

        Definition 4(2): an element is dominated when another element has both
        a smaller-or-equal LCM and a smaller-or-equal unit cost — a smaller
        block that is also cheaper per task is strictly preferable.  Returns
        ``True`` when the combination was kept.
        """
        lcm, uc = combination.lcm, combination.unit_cost
        for existing in self._elements:
            if existing.lcm <= lcm and existing.unit_cost <= uc + 1e-15:
                return False
        self._elements = [
            existing
            for existing in self._elements
            if not (lcm <= existing.lcm and uc <= existing.unit_cost + 1e-15)
        ]
        self._elements.append(combination)
        self._elements.sort(key=lambda comb: (-comb.lcm, comb.unit_cost))
        return True

    def dominates(self, lcm: int, unit_cost: float) -> bool:
        """Lemma 1 check: is a (partial) combination already dominated?

        A candidate is dominated when some existing element has
        ``LCM <= candidate.LCM`` and ``UC <= candidate.UC``; the candidate and
        all of its supersets can then be pruned, because extending it only
        increases the unit cost and never decreases the LCM.
        """
        for existing in self._elements:
            if existing.lcm <= lcm and existing.unit_cost <= unit_cost + 1e-15:
                return True
        return False

    # -- access ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Combination]:
        return iter(self._elements)

    def __getitem__(self, index: int) -> Combination:
        return self._elements[index]

    @property
    def head(self) -> Combination:
        """The first element ``OPQ_1`` (largest LCM, hence lowest UC)."""
        if not self._elements:
            raise InfeasiblePlanError("the optimal priority queue is empty")
        return self._elements[0]

    def elements(self) -> List[Combination]:
        """The Pareto-optimal combinations, best (largest LCM) first."""
        return list(self._elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OptimalPriorityQueue(threshold={self.threshold}, size={len(self)})"


class BuildAbandoned(SladeError):
    """Algorithm 2 reached its deadline before it finished the frontier.

    A build either returns the full Pareto frontier or raises this, so no
    partial frontier ever reaches Algorithm 3 or the plan cache.  It is not
    an :class:`~repro.core.errors.InfeasiblePlanError`: a timeout never
    reads as an infeasible menu.
    """


def build_optimal_priority_queue(
    bins: TaskBinSet,
    threshold: float,
    use_pruning: bool = True,
    deadline: Optional[float] = None,
    seed: Optional[Iterable[Combination]] = None,
) -> OptimalPriorityQueue:
    """Algorithm 2: enumerate combinations and keep the Pareto frontier.

    Parameters
    ----------
    bins:
        The task bin set ``B``.
    threshold:
        The reliability threshold ``t`` every combination must satisfy.
    use_pruning:
        Apply the Lemma 1 domination pruning during enumeration (the default).
        Disabling it yields the same queue while visiting many more nodes; the
        flag exists for the ablation benchmark that quantifies the pruning
        rule's benefit.
    deadline:
        Optional ``time.monotonic()`` instant at which to give up.  A build
        still enumerating then raises :class:`BuildAbandoned` and returns
        nothing; the anytime ladder answers with greedy instead.
    seed:
        Optional combinations (from the *same* bin menu) to warm-start the
        frontier with — typically the cached frontier of a nearby threshold
        on the menu's plan curve.  Every seed is re-validated against this
        build's threshold and dropped when it falls short, so donors from
        either direction along the curve are safe; a donor from a *higher*
        threshold is fully feasible by construction.  Seeding never changes
        the result (a non-minimal seed is strictly dominated by a
        combination the enumeration finds), it only strengthens the Lemma 1
        pruning from the first node onward.

    Returns
    -------
    OptimalPriorityQueue
        The full Pareto frontier of threshold-satisfying combinations.
    """
    demand = residual_from_reliability(threshold)
    queue = OptimalPriorityQueue(threshold)
    ordered_bins = bins.bins()
    contributions = [task_bin.residual_contribution for task_bin in ordered_bins]
    positive = [c for c in contributions if c > 0.0]
    if not positive:
        raise InfeasiblePlanError(
            "no task bin has positive confidence; the OPQ would be empty"
        )
    # One more assignment than this can never be needed on the Pareto
    # frontier: the smallest positive contribution alone reaches the demand.
    assignment_bound = int(demand / min(positive)) + 1

    counts: Dict[int, int] = {}
    stats = {"nodes": 0, "pruned": 0, "inserted": 0, "seeded": 0}

    if seed is not None:
        for donated in seed:
            if donated.residual >= demand - 1e-12 and queue.insert(donated):
                stats["seeded"] += 1

    def enumerate_from(start_index: int, accumulated: float, used: int) -> None:
        """Depth-first enumeration (SubFunction Enumerate of Algorithm 2)."""
        for index in range(start_index, len(ordered_bins)):
            task_bin = ordered_bins[index]
            contribution = contributions[index]
            if contribution <= 0.0:
                continue
            cardinality = task_bin.cardinality
            counts[cardinality] = counts.get(cardinality, 0) + 1
            stats["nodes"] += 1
            # Check the budget on a stride so the clock read never dominates
            # the per-node work.
            if (deadline is not None and stats["nodes"] % 64 == 0
                    and time.monotonic() >= deadline):
                raise BuildAbandoned(f"Algorithm 2 deadline passed at t={threshold}")
            candidate = Combination.from_counts(counts, bins)

            if use_pruning and queue.dominates(candidate.lcm, candidate.unit_cost):
                # Lemma 1: the candidate and all of its supersets are dominated.
                stats["pruned"] += 1
            elif accumulated + contribution >= demand - 1e-12:
                if queue.insert(candidate):
                    stats["inserted"] += 1
            elif used + 1 < assignment_bound:
                enumerate_from(index, accumulated + contribution, used + 1)

            counts[cardinality] -= 1
            if counts[cardinality] == 0:
                del counts[cardinality]

    # The stride check can't fire on tiny menus whose whole enumeration fits
    # inside one stride; an already-blown budget is refused here, as the
    # vectorized core refuses it before its first level.
    if deadline is not None and time.monotonic() >= deadline:
        raise BuildAbandoned(f"Algorithm 2 deadline passed at t={threshold}")
    enumerate_from(0, 0.0, 0)
    if len(queue) == 0:
        raise InfeasiblePlanError(
            f"no combination of at most {assignment_bound} bin assignments "
            f"reaches reliability threshold {threshold}"
        )
    queue.stats = stats
    return queue


#: Signature of a queue supplier: ``(bins, threshold) -> OptimalPriorityQueue``.
#: :func:`build_optimal_priority_queue` satisfies it, and so does a
#: :class:`repro.engine.cache.PlanCache` instance, which is how the batch
#: planning engine shares one OPQ construction across instances.
QueueFactory = Callable[[TaskBinSet, float], OptimalPriorityQueue]


class OPQSolver(Solver):
    """Algorithm 3: the OPQ-Based approximation for the homogeneous problem.

    Parameters
    ----------
    verify:
        See :class:`~repro.algorithms.base.Solver`.
    prebuilt_queue:
        An already-constructed OPQ to reuse (the heterogeneous solver passes
        one per threshold group).  When ``None`` the queue is built from the
        problem's bin set and common threshold.
    queue_factory:
        Optional supplier used to obtain the queue when no ``prebuilt_queue``
        is given.  The batch planning engine injects its
        :class:`~repro.engine.cache.PlanCache` here so Algorithm 2 runs once
        per ``(bin set, threshold)`` pair across a whole batch.  Defaults to
        :func:`build_optimal_priority_queue` (a cold build).

    Raises
    ------
    InvalidProblemError
        If the instance is heterogeneous and no prebuilt queue is supplied —
        use :class:`~repro.algorithms.opq_extended.OPQExtendedSolver` instead.
    """

    name = "opq"

    #: The batch planning engine injects its cache into solvers advertising
    #: this flag (see :func:`repro.algorithms.registry.solver_accepts_queue_factory`).
    accepts_queue_factory = True

    def __init__(
        self,
        verify: bool = True,
        prebuilt_queue: Optional[OptimalPriorityQueue] = None,
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(verify=verify)
        self._prebuilt_queue = prebuilt_queue
        # ``is None``, not truthiness: an empty PlanCache has len() 0.
        self._queue_factory = (
            build_optimal_priority_queue if queue_factory is None
            else queue_factory
        )

    def _solve(self, problem: SladeProblem) -> DecompositionPlan:
        if self._prebuilt_queue is not None:
            queue = self._prebuilt_queue
        else:
            if not problem.is_homogeneous:
                raise InvalidProblemError(
                    "OPQSolver handles the homogeneous SLADE problem; use "
                    "OPQExtendedSolver for heterogeneous thresholds"
                )
            queue = self._queue_factory(
                problem.bins, problem.homogeneous_threshold
            )
            self.record("opq_size", len(queue))
            self.record("opq_nodes", getattr(queue, "stats", {}).get("nodes"))

        plan = DecompositionPlan(solver=self.name)
        pending = [atomic.task_id for atomic in problem.task]
        elements = queue.elements()
        if not elements:
            raise InfeasiblePlanError("the optimal priority queue is empty")

        previous: Optional[Combination] = None
        previous_block_cost = float("inf")
        iterations = 0

        while pending:
            iterations += 1
            remaining = len(pending)

            # Drop head elements whose block is larger than the remaining task
            # count (Algorithm 3, lines 4-5).
            while elements and elements[0].lcm > remaining:
                elements.pop(0)

            if not elements:
                # Only combinations larger than the remainder are left; reuse
                # the previous combination once, paying for a partially filled
                # block (Algorithm 3, lines 7-10 degenerate case).  When there
                # is no previous combination (n is smaller than every block
                # size), a single partially filled application of the cheapest
                # block covers everything.
                fallback = previous
                if fallback is None:
                    fallback = min(queue.elements(), key=lambda comb: comb.block_cost)
                self._assign_block(plan, fallback, pending)
                pending = []
                break

            head = elements[0]
            blocks = remaining // head.lcm
            chunk_cost = blocks * head.block_cost

            if previous is not None and chunk_cost > previous_block_cost:
                # Covering the remainder with several head blocks would cost
                # more than one extra application of the previous combination,
                # so reuse the previous one (Algorithm 3, lines 7-10).
                self._assign_block(plan, previous, pending)
                pending = []
                break

            for _block in range(blocks):
                block_ids, pending = pending[: head.lcm], pending[head.lcm:]
                self._assign_block(plan, head, block_ids)

            previous = head
            previous_block_cost = head.block_cost

        self.record("iterations", iterations)
        return plan

    @staticmethod
    def _assign_block(
        plan: DecompositionPlan,
        combination: Combination,
        task_ids: Sequence[int],
    ) -> None:
        """Materialise one (possibly partial) block of a combination."""
        for task_bin, members in combination.postings_for_block(task_ids):
            plan.add(task_bin, members)
