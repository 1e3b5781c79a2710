"""Tests for atomic tasks and large-scale crowdsourcing tasks."""

import hashlib
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import InvalidProblemError
from repro.core.task import AtomicTask, CrowdsourcingTask


class TestAtomicTask:
    def test_basic_construction(self):
        task = AtomicTask(3, 0.9)
        assert task.task_id == 3
        assert task.threshold == 0.9

    def test_required_residual_matches_log_transform(self):
        task = AtomicTask(0, 0.95)
        assert task.required_residual == pytest.approx(-math.log(0.05))

    def test_payload_defaults_to_empty_mapping(self):
        assert dict(AtomicTask(0).payload) == {}

    def test_payload_is_carried(self):
        task = AtomicTask(0, 0.9, payload={"truth": True})
        assert task.payload["truth"] is True

    def test_with_threshold_returns_new_task(self):
        task = AtomicTask(0, 0.9, payload={"truth": False})
        updated = task.with_threshold(0.99)
        assert updated.threshold == 0.99
        assert updated.task_id == 0
        assert task.threshold == 0.9

    def test_threshold_of_one_rejected(self):
        with pytest.raises(ValueError):
            AtomicTask(0, 1.0)

    def test_negative_id_rejected(self):
        with pytest.raises(InvalidProblemError):
            AtomicTask(-1, 0.9)


class TestCrowdsourcingTaskConstruction:
    def test_homogeneous_builder(self):
        task = CrowdsourcingTask.homogeneous(10, 0.9)
        assert len(task) == 10
        assert task.is_homogeneous
        assert task.thresholds == [0.9] * 10

    def test_heterogeneous_builder(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9, 0.95])
        assert len(task) == 3
        assert not task.is_homogeneous
        assert task.max_threshold == 0.95
        assert task.min_threshold == 0.8

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidProblemError):
            CrowdsourcingTask([AtomicTask(1, 0.9), AtomicTask(1, 0.9)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidProblemError):
            CrowdsourcingTask([])

    def test_zero_n_rejected(self):
        with pytest.raises(InvalidProblemError):
            CrowdsourcingTask.homogeneous(0, 0.9)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(InvalidProblemError):
            CrowdsourcingTask.heterogeneous([])


class TestCrowdsourcingTaskViews:
    def test_iteration_preserves_order(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9, 0.7])
        assert [t.task_id for t in task] == [0, 1, 2]

    def test_indexing(self):
        task = CrowdsourcingTask.homogeneous(3, 0.9)
        assert task[1].task_id == 1

    def test_by_id_returns_matching_task(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9])
        assert task.by_id(1).threshold == 0.9

    def test_by_id_unknown_raises(self):
        task = CrowdsourcingTask.homogeneous(2, 0.9)
        with pytest.raises(KeyError):
            task.by_id(99)

    def test_single_task_is_homogeneous(self):
        assert CrowdsourcingTask.homogeneous(1, 0.9).is_homogeneous

    def test_subset_keeps_thresholds(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9, 0.95, 0.7])
        subset = task.subset([1, 3])
        assert sorted(t.task_id for t in subset) == [1, 3]
        assert subset.by_id(3).threshold == 0.7

    def test_subset_unknown_id_raises(self):
        task = CrowdsourcingTask.homogeneous(3, 0.9)
        with pytest.raises(KeyError):
            task.subset([0, 5])

    @given(st.lists(st.floats(min_value=0.5, max_value=0.99), min_size=1, max_size=50))
    def test_threshold_extremes_match_python_min_max(self, thresholds):
        task = CrowdsourcingTask.heterogeneous(thresholds)
        assert task.max_threshold == max(thresholds)
        assert task.min_threshold == min(thresholds)


def atomic_tasks(task_ids, thresholds):
    """The atomic tasks the constructors used to build one by one."""
    return [AtomicTask(i, t) for i, t in zip(task_ids, thresholds)]


def error_of(call):
    """``(type, message)`` of the exception ``call`` raises."""
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


class TestColumnBackedTask:
    """The column-backed builders behave like a list of atomic tasks."""

    def test_homogeneous_iterates_as_atomic_tasks(self):
        task = CrowdsourcingTask.homogeneous(5, 0.9)
        assert list(task) == atomic_tasks(range(5), [0.9] * 5)

    def test_heterogeneous_iterates_as_atomic_tasks(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.95, 0.8])
        assert list(task) == atomic_tasks(range(3), [0.8, 0.95, 0.8])
        assert all(type(t) is float for t in task.thresholds)

    def test_negative_indexing(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9, 0.7])
        assert task[-1] == AtomicTask(2, 0.7)
        assert task[-3] == AtomicTask(0, 0.8)
        with pytest.raises(IndexError):
            task[3]

    def test_atomic_tasks_are_built_once(self):
        task = CrowdsourcingTask.homogeneous(3, 0.9)
        assert task[0] is task[0]
        assert next(iter(task)) is task.by_id(0)

    def test_by_id(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9])
        assert task.by_id(1) == AtomicTask(1, 0.9)
        with pytest.raises(KeyError, match="no atomic task with id 2"):
            task.by_id(2)

    def test_subset_keeps_order_and_columns(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9, 0.95, 0.7], name="t")
        subset = task.subset([3, 1])
        assert subset.task_ids == [1, 3]
        assert subset.thresholds == [0.9, 0.7]
        assert subset.name == "t-subset"
        assert list(subset) == atomic_tasks([1, 3], [0.9, 0.7])

    def test_views_are_copies(self):
        task = CrowdsourcingTask.homogeneous(3, 0.9)
        task.task_ids.append(99)
        task.thresholds[0] = 0.1
        assert task.task_ids == [0, 1, 2]
        assert task.thresholds == [0.9] * 3

    def test_duplicate_id_error_is_unchanged(self):
        assert error_of(
            lambda: CrowdsourcingTask([AtomicTask(4, 0.9), AtomicTask(2, 0.9),
                                       AtomicTask(4, 0.8), AtomicTask(2, 0.8)])
        ) == (InvalidProblemError, "duplicate atomic task id 4 in crowdsourcing task")

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.1, float("nan")])
    def test_bad_threshold_errors_match_the_atomic_task(self, bad):
        expected = error_of(lambda: AtomicTask(0, bad))
        assert expected[0] is ValueError
        assert error_of(lambda: CrowdsourcingTask.homogeneous(4, bad)) == expected
        assert error_of(
            lambda: CrowdsourcingTask.heterogeneous([0.9, bad, 0.5, bad])
        ) == expected

    def test_first_bad_threshold_is_reported(self):
        assert error_of(
            lambda: CrowdsourcingTask.heterogeneous([0.9, 1.5, 2.0])
        ) == error_of(lambda: AtomicTask(1, 1.5))

    def test_general_constructor_keeps_atomic_tasks_and_payloads(self):
        given = [AtomicTask(7, 0.9, {"truth": True}), AtomicTask(3, 0.8, {"truth": False})]
        task = CrowdsourcingTask(given)
        assert task[0] is given[0]
        assert task.by_id(3).payload == {"truth": False}
        assert task.task_ids == [7, 3]
        assert task.thresholds == [0.9, 0.8]
        subset = task.subset([3])
        assert subset[0] is given[1]

    @pytest.mark.parametrize("make", [
        lambda: CrowdsourcingTask.homogeneous(4, 0.9, name="h"),
        lambda: CrowdsourcingTask.heterogeneous([0.8, 0.9], name="x"),
        lambda: CrowdsourcingTask([AtomicTask(5, 0.9, {"truth": True})], name="a"),
    ])
    def test_pickle_round_trip(self, make):
        task = make()
        fingerprint = task.fingerprint
        restored = pickle.loads(pickle.dumps(task))
        assert restored.name == task.name
        assert restored.task_ids == task.task_ids
        assert restored.thresholds == task.thresholds
        assert restored.fingerprint == fingerprint
        assert list(restored) == list(task)
        assert [dict(t.payload) for t in restored] == [dict(t.payload) for t in task]


class TestHomogeneousFingerprint:
    """The homogeneous builder hashes its ids a block at a time; the digest
    must be the per-task token stream's, byte for byte."""

    @staticmethod
    def per_task_digest(n, threshold):
        hasher = hashlib.sha256()
        for token in ["crowdsourcing_task"] + [
            f"{task_id}:{float(threshold).hex()}" for task_id in range(n)
        ]:
            hasher.update(f"{len(token)}:{token}".encode("ascii"))
        return hasher.hexdigest()[:16]

    @pytest.mark.parametrize("n", [
        1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1999, 2000, 2001,
        9999, 10_000, 10_001, 12_345,
    ])
    @pytest.mark.parametrize("threshold", [0.9, 0.95, 1e-300, 0.0, -0.0])
    def test_band_digest_equals_the_per_task_stream(self, n, threshold):
        task = CrowdsourcingTask.homogeneous(n, threshold)
        expected = self.per_task_digest(n, threshold)
        assert task.fingerprint == expected
        general = CrowdsourcingTask([AtomicTask(i, threshold) for i in range(n)])
        assert general.fingerprint == expected

    @pytest.mark.parametrize("n", [100_000, 100_999])
    def test_six_digit_ids(self, n):
        task = CrowdsourcingTask.homogeneous(n, 0.9)
        assert task.fingerprint == self.per_task_digest(n, 0.9)

    def test_signed_zero_thresholds_keep_their_tokens(self):
        # 0.0 == -0.0, but their tokens differ: equal values are not enough.
        mixed = CrowdsourcingTask._from_columns(range(3), [0.0, -0.0, 0.0], "task")
        assert mixed.fingerprint != CrowdsourcingTask.homogeneous(3, 0.0).fingerprint
        assert mixed.fingerprint == CrowdsourcingTask.heterogeneous(
            [0.0, -0.0, 0.0]).fingerprint

    def test_ids_stay_a_range_and_task_ids_a_new_list(self):
        task = CrowdsourcingTask.homogeneous(5, 0.9)
        assert task._ids == range(5)
        ids = task.task_ids
        assert ids == [0, 1, 2, 3, 4] and type(ids) is list
        ids.append(5)
        assert task.task_ids == [0, 1, 2, 3, 4]
        assert task.by_id(3).task_id == 3
        assert task.subset([4, 1]).task_ids == [1, 4]
