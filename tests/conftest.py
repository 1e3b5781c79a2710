"""Shared fixtures for the SLADE reproduction test suite."""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from repro.core.bins import TaskBinSet
from repro.core.problem import SladeProblem

def pytest_configure(config: pytest.Config) -> None:
    """Fail the test that leaks a file or socket instead of only warning.

    Python reports an unclosed resource as a ``ResourceWarning`` from the
    object's finaliser, which pytest surfaces as an unraisable-exception
    warning; both become errors so a leak cannot pass silently.
    """
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line(
        "filterwarnings", "error::pytest.PytestUnraisableExceptionWarning"
    )


#: The paper's Table 1 bin set, reused across many tests.
TABLE1_TRIPLES = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]


@pytest.fixture
def table1_bins() -> TaskBinSet:
    """The three-bin menu from Table 1 of the paper."""
    return TaskBinSet.from_triples(TABLE1_TRIPLES, name="table1")


@pytest.fixture
def example4_problem(table1_bins: TaskBinSet) -> SladeProblem:
    """The running example (Example 4): four tasks, t=0.95, Table 1 bins."""
    return SladeProblem.homogeneous(4, 0.95, table1_bins, name="example4")


@pytest.fixture
def heterogeneous_example_problem(table1_bins: TaskBinSet) -> SladeProblem:
    """Examples 10-11: thresholds 0.5/0.6/0.7/0.86 over the Table 1 bins."""
    return SladeProblem.heterogeneous(
        [0.5, 0.6, 0.7, 0.86], table1_bins, name="example10"
    )


@pytest.fixture
def small_jelly_problem() -> SladeProblem:
    """A small homogeneous instance on the Jelly menu for quick solver checks."""
    from repro.datasets.jelly import jelly_bin_set

    return SladeProblem.homogeneous(50, 0.9, jelly_bin_set(10), name="jelly-small")


class CutClock:
    """A ``time`` module stand-in: reads after the first ``reads`` are past any deadline."""

    def __init__(self, reads: int) -> None:
        self.left = reads

    def monotonic(self) -> float:
        self.left -= 1
        return time.monotonic() if self.left >= 0 else float("inf")


@pytest.fixture
def cut_clock(monkeypatch):
    """``with cut_clock(module, reads):`` — ``module``'s deadline passes mid-build.

    Replaces ``module.time`` with a :class:`CutClock` inside the block, so an
    Algorithm 2 core in ``module`` sees its deadline pass after exactly
    ``reads`` clock reads, whatever the machine's speed.
    """

    @contextmanager
    def install(module, reads: int):
        with monkeypatch.context() as patch:
            patch.setattr(module, "time", CutClock(reads))
            yield

    return install
