"""Tests for task bins and task bin sets."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.bins import TaskBin, TaskBinSet
from repro.core.errors import InvalidBinError


class TestTaskBin:
    def test_basic_construction(self):
        task_bin = TaskBin(2, 0.85, 0.18)
        assert task_bin.cardinality == 2
        assert task_bin.confidence == 0.85
        assert task_bin.cost == 0.18

    def test_residual_contribution(self):
        task_bin = TaskBin(1, 0.9, 0.1)
        assert task_bin.residual_contribution == pytest.approx(-math.log(0.1))

    def test_cost_per_task(self):
        assert TaskBin(3, 0.8, 0.24).cost_per_task == pytest.approx(0.08)

    def test_zero_cardinality_rejected(self):
        with pytest.raises(InvalidBinError):
            TaskBin(0, 0.9, 0.1)

    def test_confidence_of_one_rejected(self):
        with pytest.raises(ValueError):
            TaskBin(1, 1.0, 0.1)

    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError):
            TaskBin(1, 0.9, 0.0)

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, cost):
        with pytest.raises(ValueError, match="finite"):
            TaskBin(1, 0.9, cost)

    def test_str_mentions_cardinality(self):
        assert "b2" in str(TaskBin(2, 0.85, 0.18))


class TestTaskBinSet:
    def test_from_triples_table1(self, table1_bins):
        assert len(table1_bins) == 3
        assert table1_bins.cardinalities == [1, 2, 3]
        assert table1_bins[2].confidence == 0.85

    def test_iteration_orders_by_cardinality(self):
        bins = TaskBinSet([TaskBin(3, 0.8, 0.3), TaskBin(1, 0.9, 0.1)])
        assert [b.cardinality for b in bins] == [1, 3]

    def test_duplicate_cardinality_rejected(self):
        with pytest.raises(InvalidBinError):
            TaskBinSet([TaskBin(2, 0.8, 0.1), TaskBin(2, 0.9, 0.2)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidBinError):
            TaskBinSet([])

    def test_contains_and_getitem(self, table1_bins):
        assert 2 in table1_bins
        assert 7 not in table1_bins
        with pytest.raises(KeyError):
            table1_bins[7]

    def test_max_and_min_confidence(self, table1_bins):
        assert table1_bins.max_confidence == 0.9
        assert table1_bins.min_confidence == 0.8

    def test_max_cardinality(self, table1_bins):
        assert table1_bins.max_cardinality == 3

    def test_from_profile_requires_aligned_keys(self):
        with pytest.raises(InvalidBinError):
            TaskBinSet.from_profile({1: 0.9}, {1: 0.1, 2: 0.2})

    def test_from_profile_builds_bins(self):
        bins = TaskBinSet.from_profile({1: 0.9, 2: 0.8}, {1: 0.1, 2: 0.15})
        assert bins[2].cost == 0.15

    def test_restrict_max_cardinality(self, table1_bins):
        restricted = table1_bins.restrict_max_cardinality(2)
        assert restricted.cardinalities == [1, 2]

    def test_restrict_below_minimum_rejected(self, table1_bins):
        bins = TaskBinSet([TaskBin(5, 0.8, 0.1)])
        with pytest.raises(InvalidBinError):
            bins.restrict_max_cardinality(2)

    def test_table1_is_monotone(self, table1_bins):
        assert table1_bins.is_monotone()

    def test_non_monotone_detected(self):
        bins = TaskBinSet([TaskBin(1, 0.7, 0.1), TaskBin(2, 0.9, 0.5)])
        assert not bins.is_monotone()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),
                st.floats(min_value=0.5, max_value=0.99),
                st.floats(min_value=0.01, max_value=1.0),
            ),
            min_size=1,
            max_size=15,
            unique_by=lambda t: t[0],
        )
    )
    def test_round_trip_via_triples(self, triples):
        bins = TaskBinSet.from_triples(triples)
        assert len(bins) == len(triples)
        for cardinality, confidence, cost in triples:
            assert bins[cardinality].confidence == confidence
            assert bins[cardinality].cost == cost


class TestCalibrationEpoch:
    def test_default_epoch_is_zero(self, table1_bins):
        assert table1_bins.calibration_epoch == 0

    def test_negative_epoch_rejected(self):
        with pytest.raises(InvalidBinError):
            TaskBinSet([TaskBin(1, 0.9, 0.1)], calibration_epoch=-1)

    def test_with_epoch_keeps_bins_and_name(self, table1_bins):
        bumped = table1_bins.with_epoch(3)
        assert bumped.calibration_epoch == 3
        assert bumped.name == table1_bins.name
        assert bumped.bins() == table1_bins.bins()

    def test_next_epoch_increments(self, table1_bins):
        child = table1_bins.next_epoch()
        grandchild = child.next_epoch()
        assert child.calibration_epoch == 1
        assert grandchild.calibration_epoch == 2

    def test_next_epoch_can_replace_bins(self, table1_bins):
        corrected = [TaskBin(b.cardinality, 0.6, b.cost) for b in table1_bins]
        child = table1_bins.next_epoch(corrected, name="recal")
        assert child.calibration_epoch == 1
        assert child.name == "recal"
        assert all(b.confidence == 0.6 for b in child)

    def test_restrict_preserves_epoch(self, table1_bins):
        bumped = table1_bins.with_epoch(2)
        assert bumped.restrict_max_cardinality(2).calibration_epoch == 2
