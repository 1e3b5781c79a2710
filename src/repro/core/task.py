"""Atomic tasks and large-scale crowdsourcing tasks.

The paper models a large-scale crowdsourcing task ``T`` as a set of ``n``
independent *atomic* tasks, each a binary-choice question of trivial cognitive
load (Section 3.1).  Atomic tasks carry an identifier, an optional payload (for
the simulator: the question and its ground truth), and a reliability threshold
``t_i`` — the minimum acceptable probability of no false negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Set

from repro.core.errors import InvalidProblemError
from repro.utils.hashing import DIGEST_LENGTH, float_token, stable_digest, stable_hasher
from repro.utils.logmath import residual_from_reliability
from repro.utils.validation import require_probability_open


@dataclass(frozen=True)
class AtomicTask:
    """A single binary-choice question posed to the crowd.

    Attributes
    ----------
    task_id:
        Unique identifier within a :class:`CrowdsourcingTask`.
    threshold:
        Reliability threshold ``t_i`` in ``[0, 1)``: the decomposition plan
        must give this task at least this probability of being answered
        correctly by at least one assigned task bin.
    payload:
        Optional application data, e.g. a reference to the satellite image to
        screen.  The decomposition algorithms never look at it; the crowd
        simulator uses ``payload.get("truth")`` as the ground-truth label.
    """

    task_id: int
    threshold: float = 0.9
    payload: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_probability_open(self.threshold, "threshold")
        if self.task_id < 0:
            raise InvalidProblemError(
                f"task_id must be non-negative; got {self.task_id}"
            )

    @property
    def required_residual(self) -> float:
        """The threshold expressed in residual (log) space: ``-ln(1 - t_i)``."""
        return residual_from_reliability(self.threshold)

    def with_threshold(self, threshold: float) -> "AtomicTask":
        """Return a copy of this task with a different reliability threshold."""
        return AtomicTask(self.task_id, threshold, self.payload)


class CrowdsourcingTask:
    """A large-scale crowdsourcing task: an ordered collection of atomic tasks.

    The class behaves like an immutable sequence of :class:`AtomicTask`.  Task
    identifiers must be unique; they are usually ``0..n-1`` but any distinct
    non-negative integers are accepted (the simulator reuses upstream IDs).

    The task's state is two columns, the ids and the thresholds.  The
    solvers, the feasibility check and the fingerprint read only those, so
    :meth:`homogeneous` and :meth:`heterogeneous` never build an
    :class:`AtomicTask`: one object per atomic task took longer to build
    than Algorithm 3 takes to answer a warm request.  The atomic tasks are
    built once, on the first iteration or index, unless the constructor was
    handed them (payloads included).

    Parameters
    ----------
    tasks:
        The atomic tasks making up the large-scale task.
    name:
        Optional human-readable label used in experiment reports.
    """

    def __init__(self, tasks: Iterable[AtomicTask], name: str = "task") -> None:
        atomic = list(tasks)
        task_ids = [task.task_id for task in atomic]
        self._adopt(task_ids, [task.threshold for task in atomic], name)
        if len(set(task_ids)) != len(task_ids):
            seen: Set[int] = set()
            for task_id in task_ids:
                if task_id in seen:
                    raise InvalidProblemError(
                        f"duplicate atomic task id {task_id} in crowdsourcing task"
                    )
                seen.add(task_id)
        self._atomic = atomic

    def _adopt(
        self, task_ids: Sequence[int], thresholds: List[float], name: str
    ) -> None:
        """Take ownership of validated, aligned id and threshold columns."""
        if not task_ids:
            raise InvalidProblemError("a crowdsourcing task needs at least one atomic task")
        self._ids = task_ids
        self._thresholds = thresholds
        self.name = name
        self._atomic: Optional[List[AtomicTask]] = None

    @classmethod
    def _from_columns(
        cls, task_ids: Sequence[int], thresholds: List[float], name: str
    ) -> "CrowdsourcingTask":
        task = cls.__new__(cls)
        task._adopt(task_ids, thresholds, name)
        return task

    # -- construction helpers -------------------------------------------------

    @classmethod
    def homogeneous(
        cls,
        n: int,
        threshold: float,
        name: str = "task",
    ) -> "CrowdsourcingTask":
        """Build a task of ``n`` atomic tasks sharing one reliability threshold.

        This is the homogeneous SLADE setting (Section 5).
        """
        if n <= 0:
            raise InvalidProblemError(f"n must be positive; got {n}")
        require_probability_open(threshold, "threshold")
        return cls._from_columns(range(n), [threshold] * n, name)

    @classmethod
    def heterogeneous(
        cls,
        thresholds: Sequence[float],
        name: str = "task",
    ) -> "CrowdsourcingTask":
        """Build a task whose atomic tasks carry per-task thresholds.

        This is the heterogeneous SLADE setting (Section 6).
        """
        if len(thresholds) == 0:
            raise InvalidProblemError("thresholds must not be empty")
        values = [float(t) for t in thresholds]
        # Each distinct value once, in first-seen order: the first bad
        # threshold is the one reported, as when each task checked its own.
        for value in dict.fromkeys(values):
            require_probability_open(value, "threshold")
        return cls._from_columns(list(range(len(values))), values, name)

    # -- sequence protocol ----------------------------------------------------

    def _atomic_tasks(self) -> List[AtomicTask]:
        if self._atomic is None:
            self._atomic = [
                AtomicTask(task_id, threshold)
                for task_id, threshold in zip(self._ids, self._thresholds)
            ]
        return self._atomic

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[AtomicTask]:
        return iter(self._atomic_tasks())

    def __getitem__(self, index: int) -> AtomicTask:
        return self._atomic_tasks()[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrowdsourcingTask(name={self.name!r}, n={len(self)})"

    # -- derived views ----------------------------------------------------------

    @property
    def task_ids(self) -> List[int]:
        """The atomic task identifiers, in declaration order."""
        return list(self._ids)

    @property
    def thresholds(self) -> List[float]:
        """Reliability thresholds aligned with :attr:`task_ids`."""
        return list(self._thresholds)

    @property
    def is_homogeneous(self) -> bool:
        """Whether every atomic task shares the same reliability threshold."""
        return self._thresholds.count(self._thresholds[0]) == len(self._thresholds)

    @property
    def max_threshold(self) -> float:
        """The largest reliability threshold among the atomic tasks."""
        return max(self._thresholds)

    @property
    def min_threshold(self) -> float:
        """The smallest reliability threshold among the atomic tasks."""
        return min(self._thresholds)

    @property
    def fingerprint(self) -> str:
        """Stable content digest of the task ids and thresholds.

        Payloads and the display ``name`` are excluded: the decomposition
        algorithms never read them, so two tasks with the same ids and
        thresholds are interchangeable for planning purposes.
        """
        common = self._common_token()
        if common is None:
            return stable_digest(
                ("crowdsourcing_task",)
                + tuple(
                    f"{task_id}:{token}"
                    for task_id, token in zip(self._ids, _float_tokens(self._thresholds))
                )
            )
        hasher = stable_hasher(("crowdsourcing_task",))
        for chunk in _range_parts(len(self._ids), common):
            hasher.update(chunk.encode("ascii"))
        return hasher.hexdigest()[:DIGEST_LENGTH]

    def _common_token(self) -> Optional[str]:
        """The :func:`float_token` of every threshold when the ids are
        ``0..n-1`` (the homogeneous builder's range) and all thresholds share
        one token; ``None`` otherwise."""
        if self._ids != range(len(self._ids)):
            return None
        first = self._thresholds[0]
        # Equal non-zero floats are bit-identical, hence share a token; but
        # 0.0 == -0.0 with different tokens, so zeros take the general path.
        if first == 0.0 or self._thresholds.count(first) != len(self._thresholds):
            return None
        return float_token(first)

    def by_id(self, task_id: int) -> AtomicTask:
        """Return the atomic task with the given identifier.

        Raises
        ------
        KeyError
            If no atomic task has that identifier.
        """
        try:
            index = self._ids.index(task_id)
        except ValueError:
            raise KeyError(f"no atomic task with id {task_id}") from None
        return self._atomic_tasks()[index]

    def subset(self, task_ids: Iterable[int], name: Optional[str] = None) -> "CrowdsourcingTask":
        """Return a new crowdsourcing task restricted to ``task_ids``.

        Used by the heterogeneous solver to carve the task set into threshold
        groups (Algorithm 5, lines 5-7).  The subset keeps this task's order
        and, when it holds atomic tasks, those very objects (payloads
        included).
        """
        wanted = set(task_ids)
        positions = [
            index for index, task_id in enumerate(self._ids) if task_id in wanted
        ]
        if len(positions) != len(wanted):
            missing = wanted - {self._ids[index] for index in positions}
            raise KeyError(f"unknown atomic task ids: {sorted(missing)}")
        name = name or f"{self.name}-subset"
        if self._atomic is not None:
            return CrowdsourcingTask(
                [self._atomic[index] for index in positions], name=name
            )
        return CrowdsourcingTask._from_columns(
            [self._ids[index] for index in positions],
            [self._thresholds[index] for index in positions],
            name,
        )


#: ``000`` to ``999``: the ids of one thousand-block of ids are its prefix
#: followed by each of these.
_SUFFIXES = tuple(f"{suffix:03d}" for suffix in range(1000))


def _range_parts(n: int, token: str) -> Iterator[str]:
    """The length-prefixed parts ``f"{id}:{token}"`` of ids ``0..n-1``, as
    :func:`~repro.utils.hashing.stable_digest` writes them, a block at a time.

    Within a block every id has the same number of digits, so every part has
    the same length and the block is one join, with no per-task string: a
    full thousand-block joins the shared suffixes under its prefix, and the
    rest (ids below 1000 and the last partial thousand) joins the ids.
    """
    low = 0
    while low < n:
        digits = len(str(low))
        length = digits + 1 + len(token)
        if digits > 3 and low + 1000 <= n:
            prefix = f"{length}:{low // 1000}"
            yield prefix + f":{token}{prefix}".join(_SUFFIXES) + f":{token}"
            low += 1000
        else:
            high = min(10 ** digits, n, low - low % 1000 + 1000)
            yield (f"{length}:" + f":{token}{length}:".join(map(str, range(low, high)))
                   + f":{token}")
            low = high


def _float_tokens(values: Sequence[float]) -> List[str]:
    """:func:`float_token` of each value, computed once per distinct value."""
    tokens = {value: float_token(value) for value in set(values)}
    if 0.0 in tokens:
        # 0.0 and -0.0 are one dictionary key but two different tokens.
        return [float_token(value) for value in values]
    return [tokens[value] for value in values]
