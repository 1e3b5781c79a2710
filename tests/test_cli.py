"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.io.serialization import solve_request_to_dict
from repro.service import SolveRequest

#: Starts four allocating threads, optionally after the HTTP server's arena
#: setting, then prints glibc's per-arena statistics to stderr.
_ARENA_PROBE = """
import ctypes, sys, threading
from repro.cli import _share_one_malloc_arena
if sys.argv[1] == "share":
    _share_one_malloc_arena()
def churn():
    for _ in range(20):
        [list(range(1000)) for _ in range(8)]
threads = [threading.Thread(target=churn) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
ctypes.CDLL(None).malloc_stats()
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


class TestSolveCommand:
    def test_homogeneous_solve(self, capsys):
        exit_code = main([
            "solve", "--solver", "opq", "--dataset", "jelly",
            "--n", "200", "--threshold", "0.9", "--max-cardinality", "10",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "total cost" in out
        assert "feasible          : True" in out

    def test_heterogeneous_solve(self, capsys):
        exit_code = main([
            "solve", "--solver", "opq-extended", "--dataset", "jelly",
            "--n", "150", "--heterogeneous", "--mu", "0.9", "--sigma", "0.02",
            "--max-cardinality", "8",
        ])
        assert exit_code == 0
        assert "heterogeneous" in capsys.readouterr().out

    def test_greedy_on_smic(self, capsys):
        exit_code = main([
            "solve", "--solver", "greedy", "--dataset", "smic",
            "--n", "100", "--max-cardinality", "6",
        ])
        assert exit_code == 0
        assert "greedy" in capsys.readouterr().out

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--solver", "magic"])


class TestFigureCommand:
    def test_cost_figure(self, capsys):
        exit_code = main(["figure", "fig6e", "--n", "100"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "|B|" in out
        assert "opq" in out

    def test_motivation_figure(self, capsys):
        exit_code = main(["figure", "fig3c"])
        assert exit_code == 0
        assert "difficulty" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestBatchCommand:
    def test_batch_grid_with_cache_stats(self, capsys):
        exit_code = main([
            "batch", "--dataset", "jelly", "--solver", "opq",
            "--n-values", "50,100", "--thresholds", "0.9,0.95",
            "--max-cardinality", "8", "--repeat", "2",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "8 instance(s)" in out
        assert "cache hits/misses" in out
        # 8 instances over 2 distinct thresholds -> 6 hits, 2 misses.
        assert "6/2" in out
        assert "all feasible       : True" in out

    def test_batch_invalid_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["batch", "--n-values", "ten"])
        with pytest.raises(SystemExit):
            main(["batch", "--thresholds", ""])
        with pytest.raises(SystemExit):
            main(["batch", "--n-values", "10", "--repeat", "0"])


class TestServeCommand:
    @staticmethod
    def _write_requests(path, lines):
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_serves_requests_from_file(self, tmp_path, capsys, example4_problem):
        request_line = json.dumps(
            solve_request_to_dict(SolveRequest(problem=example4_problem))
        )
        input_path = self._write_requests(
            tmp_path / "requests.jsonl", [request_line, request_line]
        )
        exit_code = main(["serve", "--input", input_path])
        assert exit_code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        responses = [json.loads(line) for line in lines]
        assert len(responses) == 2
        assert all(r["kind"] == "solve_response" for r in responses)
        assert all(r["ok"] for r in responses)
        assert responses[0]["cache"] == "miss"
        assert responses[1]["cache"] == "hit"
        assert responses[0]["plan"] is not None

    def test_inline_request_form_and_no_plans(self, tmp_path, capsys):
        line = json.dumps({
            "kind": "solve_request", "version": 1,
            "n": 20, "threshold": 0.9,
            "bins": [[1, 0.9, 0.10], [2, 0.85, 0.18], [3, 0.8, 0.24]],
        })
        input_path = self._write_requests(tmp_path / "requests.jsonl", [line])
        exit_code = main(["serve", "--input", input_path, "--no-plans"])
        assert exit_code == 0
        (response,) = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert response["ok"]
        assert response["plan"] is None
        assert response["total_cost"] > 0

    def test_bad_lines_answered_with_error_envelopes(self, tmp_path, capsys,
                                                     example4_problem):
        good = json.dumps(
            solve_request_to_dict(SolveRequest(problem=example4_problem))
        )
        input_path = self._write_requests(
            tmp_path / "requests.jsonl",
            ["not json", '{"kind": "wrong", "version": 1}', good],
        )
        exit_code = main(["serve", "--input", input_path])
        assert exit_code == 0
        responses = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [r["ok"] for r in responses] == [False, False, True]
        assert responses[0]["error"]["type"] == "JSONDecodeError"
        assert responses[1]["error"]["type"] == "SerializationError"
        assert responses[0]["request_id"] == "line-1"

    def test_sqlite_cache_warm_across_invocations(self, tmp_path, capsys,
                                                  example4_problem):
        request_line = json.dumps(
            solve_request_to_dict(SolveRequest(problem=example4_problem))
        )
        input_path = self._write_requests(tmp_path / "requests.jsonl", [request_line])
        cache_spec = f"sqlite:{tmp_path / 'plans.db'}"

        assert main(["serve", "--input", input_path, "--cache", cache_spec]) == 0
        first = json.loads(capsys.readouterr().out.strip())
        assert first["cache"] == "miss"

        assert main(["serve", "--input", input_path, "--cache", cache_spec]) == 0
        second = json.loads(capsys.readouterr().out.strip())
        assert second["cache"] == "hit"

    def test_stats_flag_reports_to_stderr(self, tmp_path, capsys, example4_problem):
        request_line = json.dumps(
            solve_request_to_dict(SolveRequest(problem=example4_problem))
        )
        input_path = self._write_requests(tmp_path / "requests.jsonl", [request_line])
        exit_code = main(["serve", "--input", input_path, "--stats"])
        assert exit_code == 0
        assert "cache hits/misses" in capsys.readouterr().err

    @pytest.mark.skipif(not _glibc(), reason="malloc arenas are a glibc feature")
    def test_http_serve_threads_share_one_malloc_arena(self):
        # Which worker thread serves a request must not decide whether its
        # memory is faulted in afresh, so the HTTP server's threads all
        # allocate from the main arena.  Without the setting the same
        # threads get arenas of their own.
        env = dict(os.environ)
        env.pop("MALLOC_ARENA_MAX", None)
        src_root = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"

        def arenas(mode: str) -> int:
            completed = subprocess.run(
                [sys.executable, "-c", _ARENA_PROBE, mode], env=env,
                capture_output=True, text=True, timeout=60, check=True,
            )
            return sum(line.startswith("Arena ") for line in completed.stderr.splitlines())

        assert arenas("share") == 1
        assert arenas("default") > 1


class TestProfileCommand:
    def test_profile_prints_timing_and_cumulative_table(self, capsys):
        exit_code = main([
            "profile", "--dataset", "jelly", "--thresholds", "0.9,0.95",
            "--max-cardinality", "8", "--repeat", "1", "--top", "5",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "threshold" in out and "build (ms)" in out
        assert "cumtime" in out
        assert "core               :" in out

    def test_profile_with_explicit_python_core(self, capsys):
        exit_code = main([
            "profile", "--core", "python", "--thresholds", "0.9",
            "--max-cardinality", "6", "--repeat", "1", "--top", "3",
        ])
        assert exit_code == 0
        assert "core               : python" in capsys.readouterr().out

    def test_profile_rejects_bad_repeat(self):
        exit_code = main([
            "profile", "--thresholds", "0.9", "--repeat", "0",
        ])
        assert exit_code == 2

    def test_profile_rejects_bad_threshold_grid(self):
        with pytest.raises(SystemExit):
            main(["profile", "--thresholds", "not-a-number"])


class TestErrorHandling:
    """Library-level failures exit with code 2 and a one-line message."""

    def test_slade_error_exits_2_without_traceback(self, capsys):
        exit_code = main(["solve", "--max-cardinality", "0"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_bad_cache_spec_exits_2(self, capsys):
        exit_code = main(["serve", "--cache", "bogus", "--input", "/dev/null"])
        assert exit_code == 2
        assert "cache backend spec" in capsys.readouterr().err

    def test_non_positive_cache_bound_exits_2(self, capsys):
        exit_code = main(["serve", "--cache", "memory:0", "--input", "/dev/null"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        exit_code = main(["serve", "--input", str(tmp_path / "missing.jsonl")])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "cannot open --input file" in captured.err
        assert "Traceback" not in captured.err


class TestCalibrateCommand:
    def test_jelly_calibration(self, capsys):
        exit_code = main(["calibrate", "--dataset", "jelly", "--max-cardinality", "4"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "probe spend" in out
        assert "cardinality" in out

    def test_smic_calibration(self, capsys):
        exit_code = main(["calibrate", "--dataset", "smic", "--max-cardinality", "3"])
        assert exit_code == 0
        assert "confidence" in capsys.readouterr().out


class TestArgumentParsing:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
