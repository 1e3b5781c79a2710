"""The vectorized Algorithm 2 core: exact equivalence and core selection.

The contract under test is strong on purpose: the numpy core must return
queues *byte-identical* to the pure-Python reference — same elements, same
order, bit-equal unit costs and residuals — on the golden evaluation grid,
under hypothesis-generated menus, under truncation, with pruning disabled,
and when warm-started from a plan-curve seed.  Anything weaker would let the
two cores drift apart silently once one of them is "the fast one".
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import opq_vec
from repro.algorithms.opq import Combination, build_optimal_priority_queue
from repro.algorithms.opq_vec import (
    _lcm_fits_int64,
    build_optimal_priority_queue_vec,
    build_queue,
)
from repro.core.bins import TaskBinSet
from repro.core.errors import InfeasiblePlanError
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set

#: The golden grid: both evaluation menus at the paper-trend thresholds, at
#: |B| = 20 and at the |B| = 25 the cold-menus benchmark serves.
GOLDEN_GRID = [
    (bins, threshold)
    for bins in (
        jelly_bin_set(20), smic_bin_set(20), jelly_bin_set(25), smic_bin_set(25)
    )
    for threshold in (0.87, 0.9, 0.95, 0.97, 0.99)
]

_SETTINGS = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

menus = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.3, max_value=0.97),
        st.floats(min_value=0.02, max_value=2.0),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda triple: triple[0],
).map(TaskBinSet.from_triples)

thresholds = st.floats(min_value=0.5, max_value=0.99)


def frontier_bytes(queue):
    """The exact frontier content: counts, LCM, and bit-exact floats."""
    return [
        (c.counts, c.lcm, c.unit_cost.hex(), c.residual.hex()) for c in queue
    ]


def assert_byte_identical(bins, threshold, **kwargs):
    """Both cores agree exactly — including on raising infeasibility."""
    try:
        reference = build_optimal_priority_queue(bins, threshold, **kwargs)
    except InfeasiblePlanError:
        with pytest.raises(InfeasiblePlanError):
            build_optimal_priority_queue_vec(bins, threshold, **kwargs)
        return None
    vectorized = build_optimal_priority_queue_vec(bins, threshold, **kwargs)
    assert frontier_bytes(vectorized) == frontier_bytes(reference)
    assert vectorized.complete == reference.complete
    assert vectorized.threshold == reference.threshold
    return reference


class TestExactEquivalence:
    @pytest.mark.parametrize(
        "bins,threshold", GOLDEN_GRID,
        ids=[f"{b.name}-{t}" for b, t in GOLDEN_GRID],
    )
    def test_golden_grid_byte_identity(self, bins, threshold):
        assert_byte_identical(bins, threshold)

    @_SETTINGS
    @given(menus, thresholds)
    def test_random_menus_byte_identity(self, bins, threshold):
        assert_byte_identical(bins, threshold)

    @_SETTINGS
    @given(menus, thresholds, st.integers(min_value=0, max_value=4))
    def test_truncated_builds_agree(self, bins, threshold, cap):
        """Capped enumeration: same frontier, same completeness verdict."""
        assert_byte_identical(bins, threshold, max_assignments=cap)

    @_SETTINGS
    @given(menus, thresholds)
    def test_pruning_ablation_agrees(self, bins, threshold):
        assert_byte_identical(bins, threshold, use_pruning=False)

    def test_stats_present_with_the_documented_keys(self):
        queue = build_optimal_priority_queue_vec(jelly_bin_set(10), 0.9)
        assert set(queue.stats) == {"nodes", "pruned", "inserted", "seeded"}
        assert queue.stats["nodes"] > 0
        assert queue.stats["inserted"] == len(queue)


class TestCurveSeeding:
    def seeded_equals_cold(self, bins, target, donor):
        cold = build_optimal_priority_queue_vec(bins, target)
        seed = build_optimal_priority_queue_vec(bins, donor).elements()
        warm = build_optimal_priority_queue_vec(bins, target, seed=seed)
        assert frontier_bytes(warm) == frontier_bytes(cold)
        assert warm.stats["seeded"] > 0

    def test_seed_from_higher_threshold_is_byte_identical(self):
        self.seeded_equals_cold(smic_bin_set(20), target=0.9, donor=0.97)

    def test_seed_from_lower_threshold_is_byte_identical(self):
        self.seeded_equals_cold(smic_bin_set(20), target=0.97, donor=0.9)

    def test_seeds_from_either_side_at_25_bins_are_byte_identical(self):
        bins = smic_bin_set(25)
        self.seeded_equals_cold(bins, target=0.95, donor=0.99)
        self.seeded_equals_cold(bins, target=0.95, donor=0.9)

    def test_python_core_accepts_the_same_seed(self):
        bins = jelly_bin_set(20)
        seed = build_optimal_priority_queue(bins, 0.95).elements()
        cold = build_optimal_priority_queue(bins, 0.9)
        warm = build_optimal_priority_queue(bins, 0.9, seed=seed)
        assert frontier_bytes(warm) == frontier_bytes(cold)
        assert warm.stats["seeded"] > 0

    def test_foreign_menu_seed_is_ignored(self):
        bins = jelly_bin_set(6)
        other = TaskBinSet.from_triples([(13, 0.9, 0.5)], name="foreign")
        foreign = Combination.from_counts({13: 1}, other)
        cold = build_optimal_priority_queue_vec(bins, 0.9)
        warm = build_optimal_priority_queue_vec(bins, 0.9, seed=[foreign])
        assert frontier_bytes(warm) == frontier_bytes(cold)
        assert warm.stats["seeded"] == 0

    @_SETTINGS
    @given(menus, thresholds, thresholds)
    def test_random_curve_seeding_never_changes_the_frontier(
        self, bins, target, donor
    ):
        try:
            seed = build_optimal_priority_queue_vec(bins, donor).elements()
        except InfeasiblePlanError:
            seed = []
        try:
            cold = build_optimal_priority_queue_vec(bins, target)
        except InfeasiblePlanError:
            with pytest.raises(InfeasiblePlanError):
                build_optimal_priority_queue_vec(bins, target, seed=seed)
            return
        warm = build_optimal_priority_queue_vec(bins, target, seed=seed)
        assert frontier_bytes(warm) == frontier_bytes(cold)


@pytest.fixture
def vec_calls(monkeypatch):
    """Record each call :func:`build_queue` makes into the vectorized core."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return build_optimal_priority_queue_vec(*args, **kwargs)

    monkeypatch.setattr(opq_vec, "build_optimal_priority_queue_vec", spy)
    return calls


class TestCoreSelection:
    def test_auto_prefers_numpy_when_available(self, vec_calls):
        build_queue(jelly_bin_set(10), 0.9)
        assert len(vec_calls) == 1

    @pytest.mark.parametrize(
        "bins",
        [jelly_bin_set(25), smic_bin_set(25), jelly_bin_set(39), smic_bin_set(37)],
        ids=lambda bins: bins.name,
    )
    def test_lcm_guard_admits_every_dataset_menu(self, bins):
        """Factorial products overflow int64 past |B| = 20; the LCMs do not."""
        assert _lcm_fits_int64(bins)

    def test_menu_of_25_bins_dispatches_to_numpy(self, vec_calls):
        build_queue(smic_bin_set(25), 0.95)
        assert len(vec_calls) == 1

    def test_int64_overflow_menus_route_to_python(self):
        """Distinct cardinalities whose LCM overflows int64 stay exact."""
        primes = (65521, 65519, 65497, 65479)
        bins = TaskBinSet.from_triples(
            [(p, 0.9, 0.5) for p in primes], name="wide"
        )
        assert not _lcm_fits_int64(bins)
        queue = build_queue(bins, 0.7)
        reference = build_optimal_priority_queue(bins, 0.7)
        assert frontier_bytes(queue) == frontier_bytes(reference)

    def test_build_queue_dispatch_matches_both_cores(self):
        bins = smic_bin_set(12)
        via_python = build_optimal_priority_queue(bins, 0.93)
        via_numpy = build_queue(bins, 0.93)
        assert frontier_bytes(via_python) == frontier_bytes(via_numpy)
