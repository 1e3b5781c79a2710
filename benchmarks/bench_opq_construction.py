"""Tables 3-5 and Algorithm 2: optimal priority queue construction.

Benchmarks the OPQ construction cost as a function of the reliability
threshold and the menu size, verifies the paper's worked queue contents
(Tables 3, 4 and 5), and cross-checks Lemma 2 (the head element has the lowest
unit cost) on the evaluation menus.

Two cold-build quality gates ride along:

* ``test_vectorized_core_speedup_gate`` times the pure-Python reference
  against the vectorized core over the full evaluation grid and fails unless
  the vectorized core is at least ``SLADE_OPQ_SPEEDUP_GATE``x (default 10x)
  faster in aggregate *and* every cell's frontier is byte-identical;
* ``test_cold_build_profile_breakdown`` prints a cProfile cumulative-time
  table of where cold-build time goes, so a future regression in the
  enumeration helpers is visible in the benchmark log, not just the totals.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import record_result, report
from repro.algorithms.opq import build_optimal_priority_queue
from repro.algorithms.opq_vec import (
    NUMPY_AVAILABLE,
    build_optimal_priority_queue_vec,
)
from repro.core.bins import TaskBinSet
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set

#: The evaluation grid both cold-build gates sweep: every dataset menu at
#: every Table 6 threshold (the same cells as ``test_opq_construction_time``).
GRID = [
    (name, bins, threshold)
    for name, bins in (("jelly", jelly_bin_set(20)), ("smic", smic_bin_set(20)))
    for threshold in (0.87, 0.9, 0.95, 0.97, 0.99)
]

TABLE1 = TaskBinSet.from_triples(
    [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)], name="table1"
)


@pytest.mark.parametrize("threshold", (0.87, 0.9, 0.95, 0.97, 0.99))
@pytest.mark.parametrize(
    "bins", (jelly_bin_set(20), smic_bin_set(20)), ids=("jelly", "smic")
)
def test_opq_construction_time(benchmark, bins, threshold):
    """Time Algorithm 2 on the evaluation menus across thresholds."""
    queue = benchmark(build_optimal_priority_queue, bins, threshold)
    benchmark.extra_info["queue_size"] = len(queue)
    benchmark.extra_info["nodes"] = queue.stats["nodes"]
    # Lemma 2: the head has the lowest unit cost on the frontier.
    head_uc = queue.head.unit_cost
    assert all(comb.unit_cost >= head_uc - 1e-12 for comb in queue)


def _frontier_bytes(queue) -> list:
    """The exact frontier content: counts, LCM, and bit-exact floats."""
    return [
        (tuple(sorted(c.counts)), c.lcm,
         c.unit_cost.hex(), c.residual.hex())
        for c in queue
    ]


def _best_of(builder, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        builder()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy core not importable")
def test_vectorized_core_speedup_gate():
    """The vectorized core must be >= 10x faster cold with identical plans.

    Ratio gate, not an absolute-time gate, so it is robust to slow CI
    runners; the threshold can be tuned for a pathological machine via
    ``SLADE_OPQ_SPEEDUP_GATE``.  Byte-identity is asserted per cell first —
    a fast core that builds different frontiers is a bug, not a speedup.
    """
    gate = float(os.environ.get("SLADE_OPQ_SPEEDUP_GATE", "10"))
    rows = []
    python_total = 0.0
    numpy_total = 0.0
    for name, bins, threshold in GRID:
        reference = build_optimal_priority_queue(bins, threshold)
        vectorized = build_optimal_priority_queue_vec(bins, threshold)
        assert _frontier_bytes(vectorized) == _frontier_bytes(reference), (
            f"vectorized frontier diverges from the reference on "
            f"{name} t={threshold}"
        )
        assert vectorized.complete == reference.complete

        python_best = _best_of(
            lambda: build_optimal_priority_queue(bins, threshold)
        )
        numpy_best = _best_of(
            lambda: build_optimal_priority_queue_vec(bins, threshold)
        )
        python_total += python_best
        numpy_total += numpy_best
        rows.append((name, threshold, len(reference), python_best, numpy_best))

    ratio = python_total / numpy_total if numpy_total else float("inf")
    report(
        "Algorithm 2 cold build — python vs numpy core (best of 3)",
        "\n".join(
            [f"  {'menu':<6} {'t':>6} {'size':>5} {'python (ms)':>12} "
             f"{'numpy (ms)':>11} {'speedup':>8}"]
            + [
                f"  {name:<6} {threshold:>6.2f} {size:>5} "
                f"{py * 1e3:>12.3f} {np_ * 1e3:>11.3f} {py / np_:>7.1f}x"
                for name, threshold, size, py, np_ in rows
            ]
            + [f"  grid total: python {python_total * 1e3:.1f}ms, "
               f"numpy {numpy_total * 1e3:.1f}ms -> {ratio:.1f}x "
               f"(gate: >= {gate:g}x)"]
        ),
    )
    record_result(
        "opq_vectorized_core_speedup",
        python_grid_seconds=python_total,
        numpy_grid_seconds=numpy_total,
        speedup=ratio,
        gate=gate,
    )
    assert ratio >= gate, (
        f"vectorized core is only {ratio:.1f}x faster over the grid; "
        f"the gate requires >= {gate:g}x (override via SLADE_OPQ_SPEEDUP_GATE)"
    )


def test_cold_build_profile_breakdown():
    """Where cold-build time goes: cProfile top-10 cumulative functions.

    Informational (no timing assertion — profiling overhead would make one
    meaningless), but it pins the structural claim behind the Combination
    quantity-caching fix: the quantities are computed once per node in
    ``from_counts``/``_cache_quantities``, so the ``residual``/``unit_cost``
    property accessors must no longer appear as hot rows of their own.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    for _name, bins, threshold in GRID:
        build_optimal_priority_queue(bins, threshold)
    profiler.disable()

    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(
        pstats.SortKey.CUMULATIVE
    ).print_stats(10)
    report("Algorithm 2 cold build — cProfile cumulative top 10 (python core)",
           buffer.getvalue().rstrip())

    stats = pstats.Stats(profiler)
    # (file, line, name) -> (ncalls, primitive, tottime, cumtime, callers)
    per_function = {key[2]: value for key, value in stats.stats.items()}
    assert "_cache_quantities" in per_function, (
        "quantity caching no longer runs during enumeration — did "
        "from_counts stop precomputing?"
    )
    calls = per_function["_cache_quantities"][0]
    nodes = sum(
        build_optimal_priority_queue(bins, threshold).stats["nodes"]
        for _name, bins, threshold in GRID
    )
    # One cache fill per constructed Combination: visited nodes plus the
    # frontier-insert copies; anything superlinear means recomputation crept
    # back in.
    assert calls <= nodes * 3, (
        f"_cache_quantities ran {calls} times for {nodes} enumerated nodes; "
        "quantities are being recomputed instead of cached"
    )


def test_table3_contents(benchmark):
    """Table 3: the OPQ of the Table 1 menu at t = 0.95."""
    queue = benchmark(build_optimal_priority_queue, TABLE1, 0.95)
    rows = [(dict(c.counts), c.lcm, round(c.unit_cost, 4)) for c in queue]
    report("Table 3 — OPQ of the Table 1 menu (t = 0.95)",
           "\n".join(f"  Comb {counts}  LCM={lcm}  UC={uc}" for counts, lcm, uc in rows))
    assert rows == [({3: 2}, 3, 0.16), ({2: 2}, 2, 0.18), ({1: 2}, 1, 0.20)]


def test_table4_and_table5_contents(benchmark):
    """Tables 4-5: the OPQ set of the heterogeneous running example."""
    table4 = benchmark.pedantic(
        build_optimal_priority_queue, args=(TABLE1, 0.632), rounds=1, iterations=1
    )
    table5 = build_optimal_priority_queue(TABLE1, 0.86)
    report(
        "Tables 4-5 — OPQ set of the heterogeneous running example",
        "\n".join(
            [
                "  OPQ0 (t=0.632): " + ", ".join(str(c) for c in table4),
                "  OPQ1 (t=0.86):  " + ", ".join(str(c) for c in table5),
            ]
        ),
    )
    assert [dict(c.counts) for c in table4] == [{3: 1}, {2: 1}, {1: 1}]
    assert [dict(c.counts) for c in table5] == [{1: 1}]
