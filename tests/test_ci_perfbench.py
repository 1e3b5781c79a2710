"""The CI perfbench gate's verdict on a pair of perfbench result lines."""

from __future__ import annotations

import copy
import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ci_perfbench.py"


def load_gate():
    spec = importlib.util.spec_from_file_location("ci_perfbench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = load_gate()

PARENT = {
    "correct": True,
    "attempted": 400,
    "failed": 0,
    "metrics": {
        "setup_s": {"value": 1.2, "unit": "s"},
        "latency_p50_ms": {"value": 4.0, "unit": "ms"},
        "latency_tail_ms": {"value": 10.0, "unit": "ms"},
        "capacity_rps": {"value": 300.0, "unit": "1/s"},
        "tasks_per_s": {"value": 50_000.0, "unit": "1/s"},
        "plans_per_s": {"value": 600.0, "unit": "1/s"},
        "server_rss_mb": {"value": 80.0, "unit": "MB"},
    },
}


def changed(**values):
    """PARENT with some metric values, or top-level fields, replaced."""
    doc = copy.deepcopy(PARENT)
    for name, value in values.items():
        if name in doc["metrics"]:
            doc["metrics"][name]["value"] = value
        else:
            doc[name] = value
    return doc


def test_identical_result_lines_pass():
    assert gate.violations(PARENT, copy.deepcopy(PARENT)) == []


def test_exactly_on_the_band_passes():
    change = changed(latency_p50_ms=12.0, latency_tail_ms=30.0, capacity_rps=120.0,
                     tasks_per_s=20_000.0, plans_per_s=240.0)
    assert gate.violations(PARENT, change) == []


@pytest.mark.parametrize(
    "fields, needle",
    [
        ({"latency_p50_ms": 12.04}, "latency_p50_ms"),
        ({"tasks_per_s": 19_500.0}, "tasks_per_s"),
        ({"correct": False}, '"correct": false'),
        ({"failed": 1}, "1 of 400 calls failed"),
    ],
    ids=["p50-3.01x", "tasks-0.39x", "incorrect", "one-failed-call"],
)
def test_each_breach_is_one_finding(fields, needle):
    findings = gate.violations(PARENT, changed(**fields))
    assert len(findings) == 1
    assert needle in findings[0]


@pytest.mark.parametrize(
    "fields, needle",
    [
        ({"latency_tail_ms": 30.1}, "latency_tail_ms"),
        ({"capacity_rps": 117.0}, "capacity_rps"),
        ({"plans_per_s": 234.0}, "plans_per_s"),
    ],
    ids=["tail-3.01x", "capacity-0.39x", "plans-0.39x"],
)
def test_every_banded_metric_is_checked(fields, needle):
    findings = gate.violations(PARENT, changed(**fields))
    assert len(findings) == 1
    assert needle in findings[0]


def test_unbanded_metrics_never_fail_the_gate():
    # setup_s and server_rss_mb are the per-PR benchmark bounds' business.
    assert gate.violations(PARENT, changed(setup_s=12.0, server_rss_mb=800.0)) == []


def test_improvements_never_fail_the_gate():
    change = changed(latency_p50_ms=0.4, latency_tail_ms=1.0, capacity_rps=3000.0,
                     tasks_per_s=500_000.0, plans_per_s=6000.0)
    assert gate.violations(PARENT, change) == []


def test_every_breach_is_reported():
    change = changed(correct=False, failed=3, latency_p50_ms=40.0,
                     latency_tail_ms=100.0, capacity_rps=30.0,
                     tasks_per_s=5000.0, plans_per_s=60.0)
    assert len(gate.violations(PARENT, change)) == 7


def fake_perfbench(tmp_path, monkeypatch, body):
    """Point the gate at a stand-in ``run.py`` made of ``body``."""
    script = tmp_path / "run.py"
    script.write_text(body)
    monkeypatch.setattr(gate, "RUN", script)


def test_run_passes_fixed_arguments_and_returns_the_last_result_line(
        tmp_path, monkeypatch):
    fake_perfbench(tmp_path, monkeypatch, (
        "import json, os, sys\n"
        "print('warming up')\n"
        "print(json.dumps({'partial': True}))\n"
        "print(json.dumps({'argv': sys.argv[1:], 'cwd': os.getcwd()}))\n"
    ))
    doc = gate.run("hot-mix", tmp_path)
    assert doc["argv"] == ["--workload", "hot-mix", "--seed", "1",
                           "--seconds", "6", "--trace", "0"]
    assert os.path.samefile(doc["cwd"], tmp_path)


def test_run_without_a_result_line_gives_none(tmp_path, monkeypatch, capsys):
    fake_perfbench(tmp_path, monkeypatch,
                   "import sys\nprint('starting')\nsys.exit('server died')\n")
    assert gate.run("hot-mix", tmp_path) is None
    out = capsys.readouterr().out
    assert "no result line (exit 1)" in out
    assert "server died" in out


def test_run_that_hangs_is_cut_at_the_timeout(tmp_path, monkeypatch, capsys):
    fake_perfbench(tmp_path, monkeypatch, "import time\ntime.sleep(60)\n")
    monkeypatch.setattr(gate, "RUN_TIMEOUT_S", 0.5)
    assert gate.run("hot-mix", tmp_path) is None
    assert "timed out" in capsys.readouterr().out


DECLARED = [workload["name"] for workload in json.loads(
    (SCRIPT.parents[1] / "BENCHMARK.json").read_text())["workloads"]]


def fake_runs(monkeypatch, tmp_path, change_doc=None):
    """Replace perfbench runs: the parent side returns PARENT, the change side
    ``change_doc`` (PARENT when omitted).  Returns the ``(workload, side)`` log."""
    calls = []
    base_dir = tmp_path / "parent"

    def run(workload, cwd):
        side = "parent" if cwd == base_dir.resolve() else "change"
        calls.append((workload, side))
        if side == "parent":
            return copy.deepcopy(PARENT)
        return copy.deepcopy(PARENT if change_doc is None else change_doc)

    monkeypatch.setattr(gate, "run", run)
    monkeypatch.setattr(gate, "REPORT_PATH", tmp_path / "perfbench-ci.json")
    return base_dir, calls


def test_main_passes_and_reports_every_declared_workload(tmp_path, monkeypatch):
    base_dir, calls = fake_runs(monkeypatch, tmp_path)
    assert gate.main([str(base_dir)]) == 0
    report = json.loads((tmp_path / "perfbench-ci.json").read_text())
    assert list(report) == DECLARED
    for workload in DECLARED:
        assert report[workload] == {"parent": PARENT, "change": PARENT}
    assert len(calls) == 2 * len(DECLARED)


def test_main_alternates_which_side_runs_first(tmp_path, monkeypatch):
    base_dir, calls = fake_runs(monkeypatch, tmp_path)
    gate.main([str(base_dir)])
    firsts = [side for _, side in calls[::2]]
    assert firsts == [("parent", "change")[index % 2] for index in range(len(DECLARED))]


def test_main_fails_when_a_run_prints_no_result_line(tmp_path, monkeypatch, capsys):
    base_dir, _ = fake_runs(monkeypatch, tmp_path)
    real_run = gate.run
    monkeypatch.setattr(gate, "run", lambda workload, cwd: (
        None if workload == DECLARED[-1] and cwd != base_dir.resolve()
        else real_run(workload, cwd)))
    assert gate.main([str(base_dir)]) == 1
    assert f"FAIL {DECLARED[-1]}: a run printed no result line" in \
        capsys.readouterr().err
    report = json.loads((tmp_path / "perfbench-ci.json").read_text())
    assert report[DECLARED[-1]]["change"] is None


def test_main_fails_on_a_breach_and_names_the_workload(tmp_path, monkeypatch, capsys):
    base_dir, _ = fake_runs(monkeypatch, tmp_path, changed(failed=2))
    assert gate.main([str(base_dir)]) == 1
    err = capsys.readouterr().err
    for workload in DECLARED:
        assert f"FAIL {workload}: 2 of 400 calls failed" in err


def test_main_without_exactly_one_base_dir_is_a_usage_error(capsys):
    assert gate.main([]) == 2
    assert gate.main(["a", "b"]) == 2
    assert "usage:" in capsys.readouterr().err
