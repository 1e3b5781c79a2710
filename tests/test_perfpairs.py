"""The paired perfbench harness: its statistics and its run order."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perfpairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("perfpairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = load_pairs()

RESULT = {
    "correct": True,
    "attempted": 400,
    "failed": 0,
    "metrics": {
        "setup_s": {"value": 1.0, "unit": "s"},
        "latency_p50_ms": {"value": 40.0, "unit": "ms"},
        "latency_tail_ms": {"value": 50.0, "unit": "ms"},
        "capacity_rps": {"value": 10.0, "unit": "1/s"},
        "tasks_per_s": {"value": 100_000.0, "unit": "1/s"},
        "plans_per_s": {"value": 5.0, "unit": "1/s"},
        "server_rss_mb": {"value": 80.0, "unit": "MB"},
    },
}


def test_sign_test_is_exact():
    assert pairs.sign_test(9, 1) == 0.021484375
    assert pairs.sign_test(1, 9) == 0.021484375
    assert pairs.sign_test(10, 0) == 0.001953125
    assert pairs.sign_test(5, 5) == 1.0
    assert pairs.sign_test(0, 0) == 1.0


def test_clopper_pearson_interval():
    low, high = pairs.clopper_pearson(8, 10)
    assert (round(low, 4), round(high, 4)) == (0.4439, 0.9748)
    assert pairs.clopper_pearson(10, 10)[1] == 1.0
    assert pairs.clopper_pearson(0, 10)[0] == 0.0
    assert round(pairs.clopper_pearson(10, 10)[0], 4) == 0.6915


def fake_runs(monkeypatch, tmp_path, values):
    """perfbench runs whose ``latency_p50_ms`` is ``values[side][seed]``.

    Returns the base dir and the ``(side, seed)`` log in run order."""
    calls = []
    base_dir = (tmp_path / "parent").resolve()

    def run(workload, cwd, args):
        side = "parent" if cwd == base_dir else "change"
        seed = int(args[args.index("--seed") + 1])
        calls.append((side, seed))
        doc = copy.deepcopy(RESULT)
        doc["metrics"]["latency_p50_ms"]["value"] = values[side][seed]
        return doc

    monkeypatch.setattr(pairs.ci_perfbench, "run", run)
    return base_dir, calls


def test_seeds_are_consecutive_and_the_first_side_alternates(
        tmp_path, monkeypatch, capsys):
    values = {side: {seed: 40.0 for seed in range(5, 9)} for side in ("parent", "change")}
    base_dir, calls = fake_runs(monkeypatch, tmp_path, values)
    assert pairs.main([str(base_dir), "--workload", "large-n", "--pairs", "4",
                       "--seconds", "6", "--claim", "latency_p50_ms",
                       "--first-seed", "5"]) == 0
    assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
                     ("parent", 7), ("change", 7), ("change", 8), ("parent", 8)]


def test_ties_count_for_neither_side():
    parent = [40.0, 40.0, 40.0, 40.0]
    change = [30.0, 40.0, 50.0, 40.0]
    entry = pairs.compare(parent, change, "lower", 0.25, claimed=True)
    assert (entry["wins"], entry["losses"], entry["ties"]) == (1, 1, 2)
    assert entry["p_value"] == 1.0
    higher = pairs.compare(parent, change, "higher", 0.25, claimed=False)
    assert (higher["wins"], higher["losses"], higher["ties"]) == (1, 1, 2)


def test_a_claim_needs_nine_of_ten_and_a_gap_wider_than_the_quartiles():
    parent = [40.0 + k for k in range(10)]
    better = pairs.compare(parent, [p - 20.0 for p in parent], "lower", 0.25, True)
    assert better["verdict"] == "better"
    assert better["p_value"] == 0.001953125
    # Better in every pair, but by less than the parent's quartile distance.
    narrow = pairs.compare(parent, [p - 1.0 for p in parent], "lower", 0.25, True)
    assert narrow["verdict"] == "not shown"
    eight = pairs.compare(parent, [p - 20.0 for p in parent[:8]] + parent[8:],
                          "lower", 0.25, True)
    assert (eight["wins"], eight["verdict"]) == (8, "not shown")


def test_other_metrics_are_judged_against_their_bound():
    steady = [80.0] * 9 + [81.0]
    assert pairs.compare(steady, [90.0] * 10, "lower", 0.15, False)["verdict"] == "ok"
    assert pairs.compare(steady, [95.0] * 10, "lower", 0.15, False)["verdict"] == "worse"
    assert pairs.compare([10.0] * 10, [7.0] * 10, "higher", 0.25, False)["verdict"] == "worse"
    # The parent's own spread is wider than the bound: nothing can be told.
    noisy = [50.0, 60.0, 80.0, 100.0, 120.0, 130.0]
    assert pairs.compare(noisy, [200.0] * 6, "lower", 0.25, False)["verdict"] == "unresolved"
    # ... unless every change run reads better than every parent run.
    assert pairs.compare(noisy, [49.0] * 6, "lower", 0.25, False)["verdict"] == "ok"


def test_the_report_ends_with_the_changes_row_and_one_json_line(
        tmp_path, monkeypatch, capsys):
    values = {
        "parent": {seed: 40.0 + seed for seed in range(1, 11)},
        "change": {seed: 12.0 + seed / 10 for seed in range(1, 11)},
    }
    base_dir, _ = fake_runs(monkeypatch, tmp_path, values)
    assert pairs.main([str(base_dir), "--workload", "large-n", "--pairs", "10",
                       "--seconds", "18", "--claim", "latency_p50_ms"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["pairs"] == 10 and summary["seeds"] == [1, 10]
    claim = summary["metrics"]["latency_p50_ms"]
    assert (claim["wins"], claim["verdict"]) == (10, "better")
    assert claim["parent"]["median"] == 45.5
    assert summary["metrics"]["setup_s"]["verdict"] == "ok"
    assert "p_value" not in summary["metrics"]["setup_s"]
    assert lines[-2].startswith("| large-n, 10 pairs, seeds 1-10 | 1.00 -> 1.00 (0/10) | "
                                "45.5 -> 12.6 (10/10) |")


def test_an_odd_number_of_pairs_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        pairs.main([str(tmp_path), "--workload", "large-n", "--pairs", "3",
                    "--seconds", "6", "--claim", "latency_p50_ms"])
    assert exit_info.value.code == 2
    assert "--pairs must be even" in capsys.readouterr().err


def test_a_missing_result_line_fails_the_run(tmp_path, monkeypatch):
    base_dir = (tmp_path / "parent").resolve()
    monkeypatch.setattr(pairs.ci_perfbench, "run", lambda workload, cwd, args: (
        None if cwd == base_dir and "2" in args else copy.deepcopy(RESULT)))
    assert pairs.main([str(base_dir), "--workload", "hot-mix", "--pairs", "2",
                       "--seconds", "6", "--claim", "latency_p50_ms"]) == 1


def test_an_incorrect_change_run_fails_the_run(tmp_path, monkeypatch):
    base_dir = (tmp_path / "parent").resolve()
    wrong = dict(copy.deepcopy(RESULT), correct=False)
    monkeypatch.setattr(pairs.ci_perfbench, "run", lambda workload, cwd, args: (
        copy.deepcopy(RESULT) if cwd == base_dir else wrong))
    assert pairs.main([str(base_dir), "--workload", "hot-mix", "--pairs", "2",
                       "--seconds", "6", "--claim", "latency_p50_ms"]) == 1


def test_without_a_claim_every_metric_is_judged_against_its_bound(
        tmp_path, monkeypatch, capsys):
    values = {side: {seed: 40.0 for seed in (1, 2)} for side in ("parent", "change")}
    base_dir, _ = fake_runs(monkeypatch, tmp_path, values)
    assert pairs.main([str(base_dir), "--workload", "cold-menus", "--pairs", "2",
                       "--seconds", "6"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["claim"] is None
    assert {entry["verdict"] for entry in summary["metrics"].values()} == {"ok"}
