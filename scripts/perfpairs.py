#!/usr/bin/env python
"""Paired perfbench runs of the parent and this tree, with the statistics a
speed claim needs.

Usage, from the repository root::

    python scripts/perfpairs.py BASE_DIR --workload W --pairs N --seconds S \\
        [--claim METRIC] [--first-seed K]

``BASE_DIR`` is a checkout of the parent commit.  Pair ``i`` runs this
checkout's ``perfbench/run.py`` with seed ``K + i`` once from ``BASE_DIR``
and once from this tree (see :func:`ci_perfbench.run`).  The parent runs
first in even pairs and second in odd ones, and ``N`` must be even, so each
tree runs first equally often: a run reads slower when it follows another.

For every end-to-end metric it prints both trees' medians and quartiles and
the pairs the change won, ``k/N``; a tie counts for neither side.  Each
metric gets a verdict:

* the claimed ``METRIC``, if any: an exact two-sided sign test over the pairs that
  were not tied, a 95% Clopper-Pearson interval on P(change better), and
  ``better`` when the change won at least 9 of every 10 pairs and its median
  beats the parent's by more than the parent's quartile distance, ``not
  shown`` otherwise;
* every other metric: ``ok``, ``worse`` when the change's median is worse
  than the parent's by more than the metric's ``BENCHMARK.json`` bound, or
  ``unresolved`` when the parent's own quartile spread is wider than that
  bound, unless every change run reads better than every parent run.

Quartiles use linear interpolation between order statistics
(``statistics.quantiles(method="inclusive")``).  The output ends with a
Markdown table row for CHANGES.md and one JSON line.  Exits 1 when a run
printed no result line, a change run was not ``correct``, or the change
failed more calls than the parent; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ci_perfbench  # noqa: E402

REPO_ROOT = ci_perfbench.REPO_ROOT
#: Share of pairs the change must win for a claim to read ``better``.
CLAIM_WIN_SHARE = 0.9
#: Two-sided level of the Clopper-Pearson interval.
ALPHA = 0.05


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``."""
    trials = wins + losses
    if trials == 0:
        return 1.0
    extreme = max(wins, losses)
    tail = sum(math.comb(trials, k) for k in range(extreme, trials + 1))
    return min(1.0, tail / 2 ** (trials - 1))


def _binomial_cdf(k: int, trials: int, p: float) -> float:
    return sum(
        math.comb(trials, i) * p ** i * (1.0 - p) ** (trials - i) for i in range(k + 1)
    )


def _bisect(f, target: float) -> float:
    """The ``p`` in [0, 1] where the decreasing ``f`` crosses ``target``."""
    low, high = 0.0, 1.0
    for _ in range(200):
        mid = (low + high) / 2
        if f(mid) > target:
            low = mid
        else:
            high = mid
    return (low + high) / 2


def clopper_pearson(successes: int, trials: int, alpha: float = ALPHA) -> Tuple[float, float]:
    """Exact ``1 - alpha`` interval for a binomial proportion.

    The bounds solve ``P(X >= successes | p) = alpha / 2`` and
    ``P(X <= successes | p) = alpha / 2``, as the beta-quantile form does.
    """
    if trials == 0:
        return 0.0, 1.0
    lower = 0.0 if successes == 0 else _bisect(
        lambda p: -(1.0 - _binomial_cdf(successes - 1, trials, p)), -alpha / 2
    )
    upper = 1.0 if successes == trials else _bisect(
        lambda p: _binomial_cdf(successes, trials, p), alpha / 2
    )
    return lower, upper


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(
    parent: List[float], change: List[float], better: str, bound: float, claimed: bool
) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over the pairs."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = p_q3 - p_q1
    entry = {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
    }
    gain = sign * (c_med - p_med)
    if claimed:
        entry["p_value"] = sign_test(wins, losses)
        entry["interval"] = list(clopper_pearson(wins, wins + losses))
        shown = wins >= CLAIM_WIN_SHARE * len(parent) and gain > spread
        entry["verdict"] = "better" if shown else "not shown"
    elif p_med and spread / abs(p_med) > bound and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        entry["verdict"] = "unresolved"
    elif p_med and -gain / abs(p_med) > bound:
        entry["verdict"] = "worse"
    else:
        entry["verdict"] = "ok"
    return entry


def fmt(value: float) -> str:
    """Three significant digits, thousands separated, no exponent."""
    if value == 0 or not math.isfinite(value):
        return f"{value:g}"
    decimals = max(0, 2 - math.floor(math.log10(abs(value))))
    return f"{value:,.{decimals}f}"


def run_pairs(
    base_dir: Path, workload: str, pairs: int, seconds: float, first_seed: int
) -> List[Tuple[int, Optional[dict], Optional[dict]]]:
    """``(seed, parent result, change result)`` per pair, alternating sides."""
    results = []
    for index in range(pairs):
        seed = first_seed + index
        args = ("--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0")
        sides = [("parent", base_dir), ("change", REPO_ROOT)]
        if index % 2:
            sides.reverse()
        docs = {side: ci_perfbench.run(workload, cwd, args) for side, cwd in sides}
        results.append((seed, docs["parent"], docs["change"]))
    return results


def summarise(
    workload: str,
    results: List[Tuple[int, Optional[dict], Optional[dict]]],
    claim: Optional[str],
    declared: Dict[str, dict],
) -> dict:
    """The JSON summary of a set of pairs (see the module docstring)."""
    complete = [(seed, p, c) for seed, p, c in results if p is not None and c is not None]
    summary: dict = {
        "workload": workload,
        "pairs": len(complete),
        "incomplete": len(results) - len(complete),
        "seeds": [results[0][0], results[-1][0]],
        "claim": claim,
        "correct": all(c["correct"] is True for _, _, c in complete),
        "failed": {
            "parent": sum(p["failed"] for _, p, _ in complete),
            "change": sum(c["failed"] for _, _, c in complete),
        },
        "metrics": {},
    }
    if not complete:
        return summary
    for name, spec in declared.items():
        if name not in complete[0][2]["metrics"]:
            continue
        summary["metrics"][name] = compare(
            [p["metrics"][name]["value"] for _, p, _ in complete],
            [c["metrics"][name]["value"] for _, _, c in complete],
            spec["better"], spec["bound"], claimed=name == claim,
        )
    return summary


def report(summary: dict) -> List[str]:
    """The printed table, then the CHANGES.md row, then the JSON line."""
    pairs = summary["pairs"]
    first, last = summary["seeds"]
    label = f"{summary['workload']}, {pairs} pairs, seeds {first}-{last}"
    lines = [
        f"\n{label}",
        f"{'metric':<16} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} "
        f"{'wins':>6}  verdict",
    ]
    for name, entry in summary["metrics"].items():
        p, c = entry["parent"], entry["change"]
        verdict = entry["verdict"]
        if "p_value" in entry:
            low, high = entry["interval"]
            verdict += (f" (sign test p = {entry['p_value']:.4g}, "
                        f"95% CI [{low:.4f}, {high:.4f}])")
        lines.append(
            f"{name:<16} {fmt(p['q1']):>8} {fmt(p['median']):>9} {fmt(p['q3']):>9} "
            f"{fmt(c['q1']):>8} {fmt(c['median']):>9} {fmt(c['q3']):>9} "
            f"{entry['wins']:>3}/{pairs:<2}  {verdict}"
        )
    lines.append(
        f"correct {summary['correct']}, failed calls parent "
        f"{summary['failed']['parent']} change {summary['failed']['change']}, "
        f"incomplete pairs {summary['incomplete']}"
    )
    names = list(summary["metrics"])
    lines.append("| pairs: parent -> change median (change better) | "
                 + " | ".join(names) + " |")
    lines.append(
        f"| {label} | "
        + " | ".join(
            f"{fmt(entry['parent']['median'])} -> {fmt(entry['change']['median'])} "
            f"({entry['wins']}/{pairs})"
            for entry in summary["metrics"].values()
        )
        + " |"
    )
    lines.append(json.dumps(summary))
    return lines


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2:
        parser.error("--pairs must be even (and at least 2) so each tree runs "
                     "first equally often")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {workloads}",
              file=sys.stderr)
        return 2
    if args.claim is not None and args.claim not in declared:
        print(f"error: unknown metric {args.claim!r}; one of {list(declared)}",
              file=sys.stderr)
        return 2
    results = run_pairs(args.base_dir.resolve(), args.workload, args.pairs,
                        args.seconds, args.first_seed)
    summary = summarise(args.workload, results, args.claim, declared)
    for line in report(summary):
        print(line)
    failing = (
        summary["incomplete"]
        or not summary["correct"]
        or summary["failed"]["change"] > summary["failed"]["parent"]
    )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
