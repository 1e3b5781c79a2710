"""Tests for Combination and OptimalPriorityQueue (Definition 4, Algorithm 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.opq import (
    Combination,
    OptimalPriorityQueue,
    build_optimal_priority_queue,
)
from repro.core.bins import TaskBin, TaskBinSet
from repro.core.errors import InfeasiblePlanError, InvalidProblemError
from repro.utils.logmath import residual_from_reliability


class TestCombination:
    def test_example6_quantities(self, table1_bins):
        # Comb = {3 x b1, 2 x b2, 1 x b3}: LCM = 6, UC = 0.56.
        comb = Combination.from_counts({1: 3, 2: 2, 3: 1}, table1_bins)
        assert comb.lcm == 6
        assert comb.unit_cost == pytest.approx(0.56)
        assert comb.block_cost == pytest.approx(3.36)

    def test_residual_sums_member_contributions(self, table1_bins):
        comb = Combination.from_counts({3: 2}, table1_bins)
        assert comb.residual == pytest.approx(2 * residual_from_reliability(0.8))

    def test_satisfies_threshold(self, table1_bins):
        comb = Combination.from_counts({3: 2}, table1_bins)
        assert comb.satisfies(0.95)
        assert not comb.satisfies(0.97)

    def test_empty_counts_rejected(self, table1_bins):
        with pytest.raises(InvalidProblemError):
            Combination.from_counts({}, table1_bins)

    def test_unknown_cardinality_rejected(self, table1_bins):
        with pytest.raises(KeyError):
            Combination.from_counts({9: 1}, table1_bins)

    def test_postings_for_full_block(self, table1_bins):
        comb = Combination.from_counts({1: 3, 2: 2, 3: 1}, table1_bins)
        postings = list(comb.postings_for_block(list(range(6))))
        # 3 rounds of six 1-bins + 2 rounds of three 2-bins + 1 round of two
        # 3-bins = 18 + 6 + 2 = 26 postings.
        assert len(postings) == 26
        # Every task appears in 3 + 2 + 1 = 6 postings (Figure 5).
        counts = {i: 0 for i in range(6)}
        for _bin, members in postings:
            for task_id in members:
                counts[task_id] += 1
        assert all(count == 6 for count in counts.values())

    def test_postings_cost_matches_block_cost(self, table1_bins):
        comb = Combination.from_counts({1: 3, 2: 2, 3: 1}, table1_bins)
        postings = list(comb.postings_for_block(list(range(6))))
        total = sum(task_bin.cost for task_bin, _members in postings)
        assert total == pytest.approx(comb.block_cost)

    def test_partial_block_posts_fewer_bins(self, table1_bins):
        comb = Combination.from_counts({3: 2}, table1_bins)
        postings = list(comb.postings_for_block([0]))
        assert len(postings) == 2
        assert all(members == (0,) for _bin, members in postings)

    def test_oversized_block_rejected(self, table1_bins):
        comb = Combination.from_counts({2: 1}, table1_bins)
        with pytest.raises(InvalidProblemError):
            list(comb.postings_for_block([0, 1, 2]))

    def test_quantities_are_cached_at_construction(self, table1_bins):
        comb = Combination.from_counts({1: 3, 2: 2, 3: 1}, table1_bins)
        assert comb.__dict__["_lcm"] == comb.lcm
        assert comb.__dict__["_unit_cost"] == comb.unit_cost
        assert comb.__dict__["_residual"] == comb.residual

    def test_bare_constructor_computes_the_same_quantities(self, table1_bins):
        counts = {1: 3, 2: 2, 3: 1}
        bare = Combination(tuple(sorted(counts.items())), table1_bins)
        built = Combination.from_counts(counts, table1_bins)
        assert bare == built
        assert (bare.lcm, bare.unit_cost, bare.residual) == (
            built.lcm, built.unit_cost, built.residual
        )
        assert bare.__dict__["_lcm"] == 6

    def test_unknown_attribute_still_raises(self, table1_bins):
        comb = Combination.from_counts({3: 2}, table1_bins)
        with pytest.raises(AttributeError):
            _ = comb.nonexistent


class TestOptimalPriorityQueueInvariants:
    def test_insert_keeps_pareto_frontier(self, table1_bins):
        queue = OptimalPriorityQueue(0.95)
        better = Combination.from_counts({3: 2}, table1_bins)   # LCM 3, UC 0.16
        worse = Combination.from_counts({2: 1, 3: 1}, table1_bins)  # LCM 6, UC 0.17
        assert queue.insert(worse)
        assert queue.insert(better)
        # The smaller-LCM, cheaper combination dominates the larger one.
        assert len(queue) == 1
        assert queue.head is better

    def test_dominated_insert_rejected(self, table1_bins):
        queue = OptimalPriorityQueue(0.95)
        queue.insert(Combination.from_counts({3: 2}, table1_bins))
        rejected = Combination.from_counts({2: 1, 3: 1}, table1_bins)
        assert not queue.insert(rejected)

    def test_head_of_empty_queue_raises(self):
        with pytest.raises(InfeasiblePlanError):
            _ = OptimalPriorityQueue(0.9).head

    def test_fresh_queue_is_complete_with_empty_stats(self):
        queue = OptimalPriorityQueue(0.9)
        assert queue.stats == {}


class TestBuildOptimalPriorityQueue:
    def test_table3_contents(self, table1_bins):
        # Table 3 of the paper: {2xb3}, {2xb2}, {2xb1} with UC 0.16/0.18/0.2.
        queue = build_optimal_priority_queue(table1_bins, 0.95)
        elements = queue.elements()
        assert [comb.lcm for comb in elements] == [3, 2, 1]
        assert [comb.unit_cost for comb in elements] == pytest.approx([0.16, 0.18, 0.2])
        assert [dict(comb.counts) for comb in elements] == [{3: 2}, {2: 2}, {1: 2}]

    def test_table4_contents_for_lower_threshold(self, table1_bins):
        # Table 4 (t = 0.632): single bins of every cardinality.
        queue = build_optimal_priority_queue(table1_bins, 0.632)
        elements = queue.elements()
        assert [dict(comb.counts) for comb in elements] == [{3: 1}, {2: 1}, {1: 1}]
        assert [comb.unit_cost for comb in elements] == pytest.approx([0.08, 0.09, 0.1])

    def test_table5_contents_for_high_threshold(self, table1_bins):
        # Table 5 (t = 0.86): only {1 x b1} survives.
        queue = build_optimal_priority_queue(table1_bins, 0.86)
        elements = queue.elements()
        assert [dict(comb.counts) for comb in elements] == [{1: 1}]
        assert elements[0].unit_cost == pytest.approx(0.1)

    def test_every_element_satisfies_threshold(self, table1_bins):
        queue = build_optimal_priority_queue(table1_bins, 0.97)
        for comb in queue:
            assert comb.satisfies(0.97)

    def test_descending_lcm_ascending_uc(self, table1_bins):
        queue = build_optimal_priority_queue(table1_bins, 0.9)
        elements = queue.elements()
        for earlier, later in zip(elements, elements[1:]):
            assert earlier.lcm > later.lcm
            assert earlier.unit_cost <= later.unit_cost + 1e-12

    def test_head_has_lowest_unit_cost(self, table1_bins):
        # Lemma 2: OPQ_1 yields the lowest unit cost of all combinations.
        queue = build_optimal_priority_queue(table1_bins, 0.95)
        head_uc = queue.head.unit_cost
        assert all(comb.unit_cost >= head_uc - 1e-12 for comb in queue)

    def test_zero_confidence_bins_rejected(self):
        bins = TaskBinSet([TaskBin(1, 0.0, 0.1)])
        with pytest.raises(InfeasiblePlanError):
            build_optimal_priority_queue(bins, 0.9)

    def test_stats_recorded(self, table1_bins):
        queue = build_optimal_priority_queue(table1_bins, 0.95)
        assert queue.stats["nodes"] > 0
        assert queue.stats["inserted"] >= len(queue)

    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),
                st.floats(min_value=0.3, max_value=0.95),
                st.floats(min_value=0.05, max_value=1.0),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda t: t[0],
        ),
        st.floats(min_value=0.5, max_value=0.97),
    )
    def test_pareto_frontier_property(self, triples, threshold):
        bins = TaskBinSet.from_triples(triples)
        queue = build_optimal_priority_queue(bins, threshold)
        elements = queue.elements()
        # No element may dominate another (Definition 4, condition 2).
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                if i == j:
                    continue
                dominated = b.lcm <= a.lcm and b.unit_cost <= a.unit_cost - 1e-12
                assert not dominated
        # Every element must satisfy the threshold (condition 3).
        assert all(comb.satisfies(threshold) for comb in elements)
