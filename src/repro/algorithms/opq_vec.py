"""Vectorized Algorithm 2: the OPQ construction core on flat numpy arrays.

:func:`repro.algorithms.opq.build_optimal_priority_queue` walks the
combination tree one Python object at a time — a ``Combination`` dataclass,
an LCM reduction, and an O(frontier) domination scan *per node*.  On the
evaluation menus that object code is the entire cold-build tail.  This module
re-implements the same enumeration breadth-first over flat arrays: one level
of the tree is a batch of partial combinations held as

* a ``(states, bins)`` int16 count matrix,
* parallel float vectors of accumulated residual and unit cost,
* an int64 vector of running LCMs, and
* the per-state start index that keeps multisets canonical (children only
  extend with bin indices ``>= start``, so each multiset is generated once).

Per level, child generation, feasibility, and the Lemma 1 domination prune
are single numpy expressions over the whole batch.

**Exact-equivalence contract.**  The vectorized core returns queues
*byte-identical* to the pure-Python reference (same elements, same order,
bit-equal floats), which the equivalence suite asserts across the golden
grid and under hypothesis-generated menus.  Three details make that hold:

1. *Float parity.*  Residual and unit cost are accumulated path-
   incrementally — one elementwise add per tree level — which replays the
   reference's exact FP operation sequence, instead of a dot product whose
   reassociation could flip low bits.
2. *Sound pruning only.*  During the sweep, candidates are filtered with a
   strictly-order-independent test (dropped iff some kept candidate has
   ``lcm <= lcm_i`` **and** ``uc < uc_i - 1e-15``).  Anything the reference
   would reject under its tolerance-bearing, order-*dependent* insertion is
   left in the pool.  Partial states are pruned with a lower bound on any
   completion's unit cost (``uc + remaining_demand * best_remaining_ratio``),
   which can only drop states whose every completion the reference would
   also reject.
3. *Reference replay for ties.*  Survivors are replayed through the real
   ``OptimalPriorityQueue.insert`` in depth-first order (derivable from the
   count vector alone: index ``j`` repeated ``count_j`` times, ascending),
   so exact-tie survivors match the reference's first-wins behaviour.

**Core selection.**  :func:`build_queue`, the entry point the plan cache,
the anytime ladder and the drift sweep call, runs this core whenever numpy
imports and the menu's LCMs fit int64, and the pure-Python reference
otherwise.  The reference stays the equivalence suite's oracle.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, List, Optional, Tuple

from repro.algorithms.opq import (
    Combination,
    OptimalPriorityQueue,
    build_optimal_priority_queue,
)
from repro.core.bins import TaskBinSet
from repro.core.errors import InfeasiblePlanError
from repro.utils.logmath import residual_from_reliability

try:  # pragma: no cover - exercised via the fallback tests' monkeypatching
    import numpy as np
except ImportError:  # pragma: no cover - the CI image ships numpy
    np = None  # type: ignore[assignment]

#: Whether the vectorized core can run in this interpreter.
NUMPY_AVAILABLE = np is not None

#: Running LCMs are tracked in int64; a menu whose distinct cardinalities
#: could multiply past this bound is routed to the arbitrary-precision
#: Python core instead (the product bounds every reachable LCM).
_LCM_SAFE_LIMIT = 2 ** 62


def _lcm_fits_int64(bins: TaskBinSet) -> bool:
    """Whether every reachable LCM of the menu fits the int64 sweep arrays."""
    product = math.prod({task_bin.cardinality for task_bin in bins.bins()})
    return product < _LCM_SAFE_LIMIT


def build_queue(
    bins: TaskBinSet,
    threshold: float,
    max_assignments: Optional[int] = None,
    use_pruning: bool = True,
    deadline: Optional[float] = None,
    seed: Optional[Iterable[Combination]] = None,
) -> OptimalPriorityQueue:
    """Build the OPQ with the vectorized core, or the reference when it can't run.

    The parameters are those of
    :func:`~repro.algorithms.opq.build_optimal_priority_queue`, and both
    cores return byte-identical queues, so the choice is invisible to callers.
    """
    if NUMPY_AVAILABLE and _lcm_fits_int64(bins):
        return build_optimal_priority_queue_vec(
            bins, threshold,
            max_assignments=max_assignments,
            use_pruning=use_pruning,
            deadline=deadline,
            seed=seed,
        )
    return build_optimal_priority_queue(
        bins, threshold,
        max_assignments=max_assignments,
        use_pruning=use_pruning,
        deadline=deadline,
        seed=seed,
    )


def _strict_survivors(lcm, uc):
    """Mask of candidates no other candidate *strictly* dominates.

    Candidate ``i`` is dropped iff some ``j`` has ``lcm_j <= lcm_i`` and
    ``uc_j < uc_i - 1e-15`` — deliberately *stricter* than the reference's
    insertion test, so every element the reference might keep (including
    exact ties within tolerance) survives to the replay stage, and the
    outcome is independent of array order.  Sort by LCM; then the cheapest
    unit cost over the LCM-prefix decides, in O(n log n) instead of the
    O(n^2) pairwise mask a frontier-sized batch cannot afford.
    """
    order = np.argsort(lcm, kind="stable")
    sorted_lcm = lcm[order]
    sorted_uc = uc[order]
    prefix_min = np.minimum.accumulate(sorted_uc)
    # Ties in LCM all qualify as dominators of each other, so compare
    # against the prefix minimum through the *last* position sharing the
    # LCM value (self-inclusion is harmless under the strict margin).
    last_same = np.searchsorted(sorted_lcm, sorted_lcm, side="right") - 1
    dominated = prefix_min[last_same] < sorted_uc - 1e-15
    keep = np.ones(len(lcm), dtype=bool)
    keep[order] = ~dominated
    return keep


def build_optimal_priority_queue_vec(
    bins: TaskBinSet,
    threshold: float,
    max_assignments: Optional[int] = None,
    use_pruning: bool = True,
    deadline: Optional[float] = None,
    seed: Optional[Iterable[Combination]] = None,
) -> OptimalPriorityQueue:
    """Algorithm 2 on flat numpy arrays; byte-identical to the reference.

    Parameters mirror
    :func:`~repro.algorithms.opq.build_optimal_priority_queue`.  The
    ``deadline`` is checked once per tree level (the batch analogue of the
    reference's per-64-nodes stride); a truncated queue carries whatever
    satisfying combinations complete levels produced, every one of which
    individually satisfies the threshold.  ``stats`` counts generated child
    states as ``nodes`` and lower-bound-pruned states as ``pruned`` — the
    breadth-first analogues of the reference's depth-first counters, not
    equal to them.
    """
    if np is None:  # pragma: no cover - callers dispatch via build_queue
        raise RuntimeError(
            "the vectorized OPQ core needs numpy; use build_queue() for "
            "automatic fallback"
        )
    demand = residual_from_reliability(threshold)
    ordered_bins = bins.bins()
    bin_count = len(ordered_bins)
    contrib = np.array([b.residual_contribution for b in ordered_bins])
    cards = np.array([b.cardinality for b in ordered_bins], dtype=np.int64)
    unit_costs = np.array([b.cost / b.cardinality for b in ordered_bins])
    usable = np.flatnonzero(contrib > 0.0)
    if usable.size == 0:
        raise InfeasiblePlanError(
            "no task bin has positive confidence; the OPQ would be empty"
        )
    natural_bound = max(1, int(demand / contrib[usable].min()) + 1)
    if max_assignments is None:
        max_assignments = natural_bound

    # Cheapest way to buy one unit of residual from bin index j upward: the
    # lower-bound prune charges every unfinished state for its remaining
    # demand at this rate, which no completion can beat.
    ratio = np.full(bin_count, np.inf)
    ratio[usable] = unit_costs[usable] / contrib[usable]
    suffix_best_ratio = np.minimum.accumulate(ratio[::-1])[::-1]

    # The current level: one row/slot per partial combination.
    counts = np.zeros((1, bin_count), dtype=np.int16)
    acc = np.zeros(1)
    uc = np.zeros(1)
    lcm = np.ones(1, dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)

    # Coarse frontier of satisfying candidates seen so far (strict Pareto).
    frontier_lcm = np.zeros(0, dtype=np.int64)
    frontier_uc = np.zeros(0)

    # Satisfying candidates kept for the replay stage.
    pool_counts: List = []
    pool_lcm: List = []
    pool_uc: List = []

    stats = {"nodes": 0, "pruned": 0, "inserted": 0, "seeded": 0}
    truncated = False

    seed_pool: List[Combination] = []
    if seed is not None:
        for donated in seed:
            if donated.residual < demand - 1e-12:
                continue  # the donor threshold was lower; not feasible here
            if any(card not in bins for card, _count in donated.counts):
                continue  # foreign menu; cannot participate in this build
            seed_pool.append(donated)
        if seed_pool:
            seed_lcm = np.array([c.lcm for c in seed_pool], dtype=np.int64)
            seed_uc = np.array([c.unit_cost for c in seed_pool])
            merged_lcm = np.concatenate([frontier_lcm, seed_lcm])
            merged_uc = np.concatenate([frontier_uc, seed_uc])
            kept = _strict_survivors(merged_lcm, merged_uc)
            frontier_lcm = merged_lcm[kept]
            frontier_uc = merged_uc[kept]

    # The reference visits the first level unconditionally (its recursion
    # guard is `used + 1 < max_assignments`), so a cap below one still
    # yields the single-assignment candidates.
    levels = max(1, max_assignments)
    for depth in range(levels):
        if deadline is not None and time.monotonic() >= deadline:
            truncated = True
            break
        if counts.shape[0] == 0:
            break
        # Ragged child expansion: each state spawns one child per bin index
        # in [start, bin_count) — a flat arange minus per-parent offsets.
        reps = bin_count - start
        parent = np.repeat(np.arange(counts.shape[0]), reps)
        offsets = np.concatenate([np.zeros(1, dtype=np.int64),
                                  np.cumsum(reps)[:-1]])
        child_bin = (np.arange(reps.sum()) - np.repeat(offsets, reps)
                     + np.repeat(start, reps))
        viable = contrib[child_bin] > 0.0
        parent = parent[viable]
        child_bin = child_bin[viable]
        stats["nodes"] += int(child_bin.size)
        child_acc = acc[parent] + contrib[child_bin]
        child_uc = uc[parent] + unit_costs[child_bin]
        child_lcm = np.lcm(lcm[parent], cards[child_bin])
        satisfied = child_acc >= demand - 1e-12

        if satisfied.any():
            sat_index = np.flatnonzero(satisfied)
            merged_lcm = np.concatenate([frontier_lcm, child_lcm[sat_index]])
            merged_uc = np.concatenate([frontier_uc, child_uc[sat_index]])
            kept = _strict_survivors(merged_lcm, merged_uc)
            prior = frontier_lcm.size
            frontier_lcm = merged_lcm[kept]
            frontier_uc = merged_uc[kept]
            selected = sat_index[kept[prior:]]
            if selected.size:
                kept_counts = counts[parent[selected]].copy()
                kept_counts[np.arange(selected.size), child_bin[selected]] += 1
                pool_counts.append(kept_counts)
                pool_lcm.append(child_lcm[selected])
                pool_uc.append(child_uc[selected])

        if depth + 1 >= levels:
            break
        open_index = np.flatnonzero(~satisfied)
        if open_index.size == 0:
            break
        if use_pruning and frontier_lcm.size:
            # Lemma 1, batched: a partial state dies when some frontier
            # element has lcm <= the state's running lcm (which every
            # completion's lcm is a multiple of) and uc <= the cheapest
            # conceivable completion cost.
            open_lcm = child_lcm[open_index]
            completion_floor = (
                child_uc[open_index]
                + (demand - child_acc[open_index])
                * suffix_best_ratio[child_bin[open_index]]
            )
            dominated = (
                (frontier_lcm[None, :] <= open_lcm[:, None])
                & (frontier_uc[None, :] <= completion_floor[:, None] + 1e-15)
            ).any(axis=1)
            stats["pruned"] += int(dominated.sum())
            open_index = open_index[~dominated]
            if open_index.size == 0:
                break
        next_counts = counts[parent[open_index]].copy()
        next_counts[np.arange(open_index.size), child_bin[open_index]] += 1
        counts = next_counts
        acc = child_acc[open_index]
        uc = child_uc[open_index]
        lcm = child_lcm[open_index]
        start = child_bin[open_index]

    queue = OptimalPriorityQueue(threshold)
    replay: List[Tuple[Tuple[int, ...], Combination]] = []
    if pool_counts:
        all_counts = np.concatenate(pool_counts)
        all_lcm = np.concatenate(pool_lcm)
        all_uc = np.concatenate(pool_uc)
        for row_index in np.flatnonzero(_strict_survivors(all_lcm, all_uc)):
            row = all_counts[row_index]
            combination = Combination.from_counts(
                {int(cards[j]): int(row[j])
                 for j in range(bin_count) if row[j] > 0},
                bins,
            )
            replay.append((_dfs_key(row), combination))
    index_of = {int(card): j for j, card in enumerate(cards)}
    for combination in seed_pool:
        row = np.zeros(bin_count, dtype=np.int16)
        for card, count in combination.counts:
            row[index_of[card]] = count
        replay.append((_dfs_key(row), combination))
    # Reference replay: insert in depth-first order so exact-tie survivors
    # match the recursive enumeration's first-wins insertion.  A seed that
    # the enumeration would have found sorts into exactly its cold-build
    # position (duplicates are rejected by insert); one it would not have
    # found is strictly dominated and cannot survive.
    replay.sort(key=lambda entry: entry[0])
    for _key, combination in replay:
        if queue.insert(combination):
            stats["inserted"] += 1
    stats["seeded"] = len(seed_pool)

    if len(queue) == 0:
        raise InfeasiblePlanError(
            f"no combination of at most {max_assignments} bin assignments "
            f"reaches reliability threshold {threshold}"
            + (" within the enumeration deadline" if truncated else "")
        )
    queue.stats = stats
    queue.complete = not truncated and max_assignments >= natural_bound
    return queue


def _dfs_key(count_row) -> Tuple[int, ...]:
    """The reference enumeration's visit order, recovered from the counts.

    The recursive core extends combinations with nondecreasing bin indices,
    so a multiset's index sequence (index ``j`` repeated ``count_j`` times,
    ascending) is exactly its depth-first path; tuple comparison of these
    sequences reproduces the visit order without tracking paths.
    """
    return tuple(
        int(j) for j in range(len(count_row)) for _ in range(int(count_row[j]))
    )
