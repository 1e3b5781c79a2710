"""SLADE problem instances (Definition 3 of the paper).

A :class:`SladeProblem` bundles the three ingredients every solver needs:

* the large-scale crowdsourcing task ``T`` (atomic tasks with thresholds),
* the task bin set ``B``, and
* convenience views (homogeneity, the relaxed-variant test of Section 4.2).

The class is deliberately thin — it validates the combination and exposes
read-only views, leaving optimisation entirely to :mod:`repro.algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.bins import TaskBinSet
from repro.core.errors import InvalidProblemError
from repro.core.task import AtomicTask, CrowdsourcingTask
from repro.utils.hashing import stable_digest


@dataclass(frozen=True)
class SladeProblem:
    """An instance of the SLADE optimisation problem.

    Attributes
    ----------
    task:
        The large-scale crowdsourcing task ``T`` whose atomic tasks carry
        their reliability thresholds ``t_i``.
    bins:
        The menu of task bins ``B`` the decomposer may use.
    name:
        Optional label used in experiment reports.
    """

    task: CrowdsourcingTask
    bins: TaskBinSet
    name: str = "slade"

    def __post_init__(self) -> None:
        if len(self.task) == 0:
            raise InvalidProblemError("problem has no atomic tasks")
        if len(self.bins) == 0:
            raise InvalidProblemError("problem has no task bins")
        if self.bins.max_confidence <= 0.0:
            raise InvalidProblemError(
                "every task bin has zero confidence; no reliability threshold "
                "can ever be satisfied"
            )

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def homogeneous(
        cls,
        n: int,
        threshold: float,
        bins: TaskBinSet,
        name: str = "slade-homogeneous",
    ) -> "SladeProblem":
        """Build a homogeneous instance with ``n`` tasks sharing ``threshold``."""
        return cls(CrowdsourcingTask.homogeneous(n, threshold), bins, name)

    @classmethod
    def heterogeneous(
        cls,
        thresholds: Sequence[float],
        bins: TaskBinSet,
        name: str = "slade-heterogeneous",
    ) -> "SladeProblem":
        """Build a heterogeneous instance from explicit per-task thresholds."""
        return cls(CrowdsourcingTask.heterogeneous(thresholds), bins, name)

    # -- derived views ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of atomic tasks ``n = |T|``."""
        return len(self.task)

    @property
    def m(self) -> int:
        """Number of task bins ``m = |B|``."""
        return len(self.bins)

    @property
    def is_homogeneous(self) -> bool:
        """Whether all atomic tasks share one reliability threshold."""
        return self.task.is_homogeneous

    @property
    def homogeneous_threshold(self) -> float:
        """The common threshold of a homogeneous instance.

        Raises
        ------
        InvalidProblemError
            If the instance is heterogeneous.
        """
        if not self.is_homogeneous:
            raise InvalidProblemError(
                "instance is heterogeneous; there is no single threshold"
            )
        return self.task.min_threshold

    @property
    def atomic_tasks(self) -> List[AtomicTask]:
        """The atomic tasks in declaration order."""
        return list(self.task)

    @property
    def fingerprint(self) -> str:
        """Stable content digest of the instance (tasks + bins, not the name).

        Problems with equal fingerprints are solved identically by every
        deterministic solver, which is what lets the batch planning engine
        reuse work across instances.
        """
        return stable_digest(
            ("slade_problem", self.task.fingerprint, self.bins.fingerprint)
        )

    def is_relaxed_variant(self) -> bool:
        """Test the polynomial-time relaxed variant of Section 4.2.

        The relaxed variant requires every bin confidence to be at least the
        maximum reliability threshold (``r_j >= t_max`` for all ``j``), so a
        single posting of any bin already satisfies any atomic task.  The
        rod-cutting dynamic program in
        :class:`repro.algorithms.dp_relaxed.RelaxedDPSolver` solves such
        instances exactly in ``O(n m)`` time.
        """
        return self.bins.min_confidence >= self.task.max_threshold

    def restricted_to_bins(self, max_cardinality: int, name: Optional[str] = None) -> "SladeProblem":
        """Return a copy of the problem using only bins up to ``max_cardinality``."""
        return SladeProblem(
            self.task,
            self.bins.restrict_max_cardinality(max_cardinality),
            name or f"{self.name}|B<={max_cardinality}",
        )

    def describe(self) -> str:
        """A one-line human-readable description for logs and reports."""
        kind = "homogeneous" if self.is_homogeneous else "heterogeneous"
        thresholds = (
            f"t={self.homogeneous_threshold:.3f}"
            if self.is_homogeneous
            else f"t in [{self.task.min_threshold:.3f}, {self.task.max_threshold:.3f}]"
        )
        return (
            f"{self.name}: {kind}, n={self.n}, m={self.m} "
            f"(max cardinality {self.bins.max_cardinality}), {thresholds}"
        )
