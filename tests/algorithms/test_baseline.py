"""Tests for the CIP baseline solver (Section 4.3)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms.baseline import CIPBaselineSolver
from repro.algorithms.opq import OPQSolver
from repro.core.problem import SladeProblem


class TestBaselineFeasibility:
    def test_running_example_is_feasible(self, example4_problem):
        result = CIPBaselineSolver(seed=0).solve(example4_problem)
        assert result.feasible

    def test_homogeneous_medium_instance(self, table1_bins):
        problem = SladeProblem.homogeneous(60, 0.9, table1_bins)
        result = CIPBaselineSolver(chunk_size=32, seed=1).solve(problem)
        assert result.feasible

    def test_heterogeneous_instance(self, table1_bins):
        thresholds = [0.6, 0.7, 0.8, 0.9, 0.95] * 6
        problem = SladeProblem.heterogeneous(thresholds, table1_bins)
        result = CIPBaselineSolver(chunk_size=16, seed=2).solve(problem)
        assert result.feasible

    def test_jelly_menu_instance(self, small_jelly_problem):
        result = CIPBaselineSolver(chunk_size=25, seed=3).solve(small_jelly_problem)
        assert result.feasible


class TestBaselineBehaviour:
    def test_deterministic_for_fixed_seed(self, table1_bins):
        problem = SladeProblem.homogeneous(30, 0.9, table1_bins)
        first = CIPBaselineSolver(chunk_size=16, seed=7).solve(problem).total_cost
        second = CIPBaselineSolver(chunk_size=16, seed=7).solve(problem).total_cost
        assert first == pytest.approx(second)

    def test_not_cheaper_than_opq_on_homogeneous_instance(self, table1_bins):
        # The paper's headline: the baseline is the least effective solver.
        # Randomized rounding over-covers, so it should not beat OPQ.
        problem = SladeProblem.homogeneous(90, 0.9, table1_bins)
        baseline = CIPBaselineSolver(chunk_size=32, seed=5).solve(problem).total_cost
        opq = OPQSolver().solve(problem).total_cost
        assert baseline >= opq - 1e-9

    def test_metadata_reports_lp_calls(self, table1_bins):
        problem = SladeProblem.homogeneous(40, 0.9, table1_bins)
        result = CIPBaselineSolver(chunk_size=10, seed=0).solve(problem)
        assert result.metadata["lp_calls"] == 4
        assert result.metadata["columns_generated"] > 0

    def test_chunking_covers_every_task(self, table1_bins):
        problem = SladeProblem.homogeneous(23, 0.9, table1_bins)
        result = CIPBaselineSolver(chunk_size=10, seed=0).solve(problem)
        covered = set(result.plan.reliabilities())
        assert covered == set(range(23))

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            CIPBaselineSolver(chunk_size=0)

    def test_zero_random_columns_still_feasible(self, table1_bins):
        problem = SladeProblem.homogeneous(20, 0.9, table1_bins)
        solver = CIPBaselineSolver(chunk_size=10, random_columns_per_task=0, seed=0)
        assert solver.solve(problem).feasible

    def test_explicit_rounding_boost(self, table1_bins):
        problem = SladeProblem.homogeneous(20, 0.9, table1_bins)
        solver = CIPBaselineSolver(chunk_size=10, rounding_boost=1.0, seed=0)
        assert solver.solve(problem).feasible


class TestScipyStaysOffTheServingPath:
    def test_cli_and_server_import_without_scipy(self):
        """Only the baseline's LP solve imports scipy; a server never pays."""
        src_root = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
        probe = (
            "import sys, repro.cli, repro.service.transport.server; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert completed.stdout.strip() == "[]"
