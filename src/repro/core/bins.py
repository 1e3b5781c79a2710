"""Task bins: the unit of work handed to a single crowd worker.

Definition 1 of the paper: an ``l``-cardinality task bin is a triple
``b_l = <l, r_l, c_l>`` where ``l`` is the maximum number of distinct atomic
tasks packed into the bin, ``r_l`` is the *confidence* (average probability a
worker answers each atomic task in the bin correctly), and ``c_l`` is the
incentive cost paid for completing the whole bin.

A :class:`TaskBinSet` is the menu ``B = {b_1, ..., b_m}`` the decomposer can
draw from.  Following the paper's experiments we index bins by their
cardinality; a set therefore holds at most one bin per cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import InvalidBinError
from repro.utils.hashing import float_token, stable_digest
from repro.utils.logmath import residual_from_reliability
from repro.utils.validation import require_positive, require_probability_open


@dataclass(frozen=True, order=True)
class TaskBin:
    """An ``l``-cardinality task bin ``<l, r_l, c_l>``.

    Attributes
    ----------
    cardinality:
        Maximum number of distinct atomic tasks in the bin (``l >= 1``).
    confidence:
        Probability ``r_l`` in ``[0, 1)`` that a worker answers each atomic
        task in the bin correctly.
    cost:
        Incentive cost ``c_l > 0`` paid per posted bin.
    """

    cardinality: int
    confidence: float
    cost: float

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise InvalidBinError(
                f"cardinality must be at least 1; got {self.cardinality}"
            )
        require_probability_open(self.confidence, "confidence")
        require_positive(self.cost, "cost")

    @property
    def residual_contribution(self) -> float:
        """Reliability contributed per assignment: ``-ln(1 - r_l)``."""
        return residual_from_reliability(self.confidence)

    @property
    def cost_per_task(self) -> float:
        """Average incentive cost per atomic task when the bin is full."""
        return self.cost / self.cardinality

    @property
    def fingerprint_token(self) -> str:
        """The bin's contribution to a :class:`TaskBinSet` fingerprint."""
        return (
            f"{self.cardinality}:{float_token(self.confidence)}:"
            f"{float_token(self.cost)}"
        )

    def __str__(self) -> str:
        return (
            f"b{self.cardinality}(r={self.confidence:.3f}, c={self.cost:.3f})"
        )


class TaskBinSet:
    """The menu of task bins available to the decomposer.

    The set is keyed by cardinality.  Iteration yields bins in increasing
    cardinality order, matching the paper's ``b_1, ..., b_m`` notation.

    Parameters
    ----------
    bins:
        The task bins.  Cardinalities must be distinct.
    name:
        Optional label (e.g. ``"jelly-cost0.1"``) used in reports.
    calibration_epoch:
        Monotonically increasing recalibration counter (Section 3.1: menus
        are re-estimated "regularly").  Epoch 0 is the as-published menu;
        every recalibration bumps it.  A non-zero epoch participates in
        :attr:`fingerprint`, so a recalibrated menu can never alias a plan
        cached for an ancestor menu — even when the corrected confidences
        happen to round back to the originals.
    """

    #: :attr:`fingerprint`, once computed (set on the instance).
    _fingerprint: Optional[str] = None

    def __init__(
        self,
        bins: Iterable[TaskBin],
        name: str = "bins",
        calibration_epoch: int = 0,
    ) -> None:
        if calibration_epoch < 0:
            raise InvalidBinError(
                f"calibration_epoch must be non-negative; got {calibration_epoch}"
            )
        self.name = name
        self.calibration_epoch = calibration_epoch
        self._by_cardinality: Dict[int, TaskBin] = {}
        for task_bin in bins:
            if task_bin.cardinality in self._by_cardinality:
                raise InvalidBinError(
                    f"duplicate cardinality {task_bin.cardinality} in task bin set"
                )
            self._by_cardinality[task_bin.cardinality] = task_bin
        if not self._by_cardinality:
            raise InvalidBinError("a task bin set needs at least one bin")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_triples(
        cls,
        triples: Sequence[Tuple[int, float, float]],
        name: str = "bins",
    ) -> "TaskBinSet":
        """Build a bin set from ``(cardinality, confidence, cost)`` triples.

        Examples
        --------
        The paper's Table 1 bin set:

        >>> bins = TaskBinSet.from_triples([(1, 0.9, 0.1), (2, 0.85, 0.18), (3, 0.8, 0.24)])
        >>> len(bins)
        3
        """
        return cls((TaskBin(l, r, c) for l, r, c in triples), name=name)

    @classmethod
    def from_profile(
        cls,
        confidences: Mapping[int, float],
        costs: Mapping[int, float],
        name: str = "bins",
    ) -> "TaskBinSet":
        """Build a bin set from aligned cardinality→confidence/cost mappings."""
        if set(confidences) != set(costs):
            raise InvalidBinError(
                "confidence and cost mappings must cover the same cardinalities"
            )
        return cls(
            (TaskBin(l, confidences[l], costs[l]) for l in sorted(confidences)),
            name=name,
        )

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_cardinality)

    def __iter__(self) -> Iterator[TaskBin]:
        for cardinality in sorted(self._by_cardinality):
            yield self._by_cardinality[cardinality]

    def __contains__(self, cardinality: int) -> bool:
        return cardinality in self._by_cardinality

    def __getitem__(self, cardinality: int) -> TaskBin:
        try:
            return self._by_cardinality[cardinality]
        except KeyError:
            raise KeyError(f"no task bin with cardinality {cardinality}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskBinSet(name={self.name!r}, m={len(self)})"

    # -- derived views ----------------------------------------------------------

    @property
    def cardinalities(self) -> List[int]:
        """Available bin cardinalities in increasing order."""
        return sorted(self._by_cardinality)

    @property
    def max_cardinality(self) -> int:
        """The largest cardinality in the set (the paper's ``|B|`` knob)."""
        return max(self._by_cardinality)

    @property
    def max_confidence(self) -> float:
        """The highest confidence of any bin in the set."""
        return max(task_bin.confidence for task_bin in self)

    @property
    def min_confidence(self) -> float:
        """The lowest confidence of any bin in the set."""
        return min(task_bin.confidence for task_bin in self)

    @property
    def fingerprint(self) -> str:
        """Stable content digest of the menu, usable as a cache key.

        Two bin sets share a fingerprint exactly when they offer the same
        ``(cardinality, confidence, cost)`` triples at the same calibration
        epoch; the display ``name`` is deliberately excluded because it never
        influences a solver's output.  The digest is stable across processes
        (unlike ``hash()``), so the batch planning engine can key shared OPQ
        caches with it.  Epoch 0 contributes no token, keeping fingerprints
        (and persisted cache files) byte-identical to pre-epoch builds.
        Computed on first use and kept: a warm request reads it six times
        (drift registry, calibration check twice, cache key, plan curve,
        problem digest), and no code changes a menu after construction.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            tokens: Tuple[str, ...] = ("task_bin_set",)
            if self.calibration_epoch:
                tokens += (f"epoch={self.calibration_epoch}",)
            fingerprint = self._fingerprint = stable_digest(
                tokens + tuple(b.fingerprint_token for b in self)
            )
        return fingerprint

    def bins(self) -> List[TaskBin]:
        """Return the bins as a list ordered by cardinality."""
        return list(self)

    def restrict_max_cardinality(self, max_cardinality: int, name: Optional[str] = None) -> "TaskBinSet":
        """Return a bin set containing only bins of cardinality <= ``max_cardinality``.

        Used by the Figure 6e-h sweep that varies the maximum cardinality.
        """
        kept = [b for b in self if b.cardinality <= max_cardinality]
        if not kept:
            raise InvalidBinError(
                f"no bins remain with cardinality <= {max_cardinality}"
            )
        return TaskBinSet(
            kept,
            name=name or f"{self.name}<= {max_cardinality}",
            calibration_epoch=self.calibration_epoch,
        )

    def with_epoch(self, calibration_epoch: int, name: Optional[str] = None) -> "TaskBinSet":
        """Return the same menu stamped with a different calibration epoch."""
        return TaskBinSet(
            self.bins(),
            name=name or self.name,
            calibration_epoch=calibration_epoch,
        )

    def next_epoch(
        self,
        bins: Optional[Iterable[TaskBin]] = None,
        name: Optional[str] = None,
    ) -> "TaskBinSet":
        """Derive the successor menu one calibration epoch later.

        ``bins`` defaults to the current bins; recalibration passes the
        corrected triples.  The successor always carries ``epoch + 1`` so its
        fingerprint differs from every ancestor, even if the corrected
        confidences are numerically identical.
        """
        return TaskBinSet(
            self.bins() if bins is None else bins,
            name=name or self.name,
            calibration_epoch=self.calibration_epoch + 1,
        )

    def is_monotone(self) -> bool:
        """Check the paper's Section 2 observation on this bin set.

        Returns ``True`` when confidence is non-increasing and per-task cost is
        non-increasing as cardinality grows.  Solvers do not require
        monotonicity, but the datasets in :mod:`repro.datasets` satisfy it and
        a violation usually signals a calibration problem.
        """
        ordered = self.bins()
        for previous, current in zip(ordered, ordered[1:]):
            if current.confidence > previous.confidence + 1e-12:
                return False
            if current.cost_per_task > previous.cost_per_task + 1e-12:
                return False
        return True
