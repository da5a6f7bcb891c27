"""Cost construction, threshold heuristics, and budget-targeted rescaling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from betaot import costs
from betaot import (
    AutoScaleError,
    BudgetExhaustedError,
    DimensionMismatchError,
    DomainError,
    InfeasibleToleranceError,
    SolverConfig,
    SqEuclideanCost,
    auto_scale,
    estimate_z,
    iteration_budget,
    median_threshold,
    robust_solve,
    sq_euclidean_cost,
)


_NOT_FINITE = r"^cost matrix must be finite \(no NaN/Inf\)$"


@st.composite
def overflow_instances(draw):
    """Two clouds with magnitudes from 1e-3 to 1e200, scales up to 1e308, a row range."""
    m, n, d = draw(st.integers(1, 150)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.floats(-3.0, 200.0))
    x = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3.0, top, size=(m, 1))
    y = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3.0, top, size=(n, 1))
    scales = draw(st.lists(st.floats(-10.0, 308.0).map(lambda e: 10.0 ** e), max_size=2))
    a = draw(st.integers(0, m - 1))
    return x, y, scales, (a, draw(st.integers(a + 1, m)))


class TestSqEuclideanCost:
    def test_three_four_five(self):
        cost = sq_euclidean_cost([[0.0, 0.0]], [[3.0, 4.0]])
        np.testing.assert_allclose(cost, [[25.0]])

    def test_identical_points_are_free(self):
        pts = [[1.0, 2.0], [3.0, -1.0]]
        cost = sq_euclidean_cost(pts, pts)
        assert cost[0, 0] == 0.0 and cost[1, 1] == 0.0

    def test_one_dimensional(self):
        np.testing.assert_allclose(sq_euclidean_cost([[1.0]], [[-1.0]]), [[4.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sq_euclidean_cost([[0.0, 0.0]], [[1.0, 2.0, 3.0]])

    def test_scale_covariance(self):
        rng = np.random.default_rng(81)
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((9, 3))
        c = 1.7
        base = sq_euclidean_cost(x, y)
        scaled = sq_euclidean_cost(c * x, c * y)
        np.testing.assert_allclose(scaled, c * c * base, rtol=1e-12, atol=1e-12)


class TestLazySqEuclideanCost:
    def test_rescaling_keeps_the_bits_of_each_product(self):
        rng = np.random.default_rng(87)
        x, y = rng.standard_normal((70, 4)), rng.standard_normal((9, 4))
        cost = SqEuclideanCost(x, y)
        assert cost.shape == (70, 9)
        assert cost.dense().tobytes() == sq_euclidean_cost(x, y).tobytes()
        expected = 0.3 * (1.7 * sq_euclidean_cost(x, y))
        assert cost.scaled(1.7).scaled(1.0).scaled(0.3).dense().tobytes() == expected.tobytes()
        assert cost.dense().tobytes() == sq_euclidean_cost(x, y).tobytes()

    def test_validates_points_as_the_dense_cost_does(self):
        with pytest.raises(DimensionMismatchError, match="differ: 3 vs 2"):
            SqEuclideanCost(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(DimensionMismatchError, match="nonempty"):
            SqEuclideanCost(np.zeros((2, 3)), np.zeros((0, 3)))

    def test_finiteness_is_checked_where_a_cost_can_overflow(self):
        # The bound fails at 1e150, where every cost is still finite, and
        # the blocks are checked; at 1e200 a cost overflows to inf, and
        # every reader of the cost raises the dense cost's error.
        rng = np.random.default_rng(88)
        x = rng.standard_normal((150, 2))
        for far, finite in ((1e150, True), (1e200, False)):
            y = np.vstack([rng.standard_normal((5, 2)), [[far, 0.0]]])
            cost = SqEuclideanCost(x, y)
            dense = cdist(x, y, "sqeuclidean")
            assert np.isfinite(dense).all() == finite
            if finite:
                assert cost.dense().tobytes() == dense.tobytes()
                continue
            for read in (cost.dense, lambda: np.asarray(cost), lambda: cost[128:150],
                         lambda: sq_euclidean_cost(x, y),
                         lambda: robust_solve(cost, SolverConfig(iterations=2))):
                with pytest.raises(ValueError, match=_NOT_FINITE):
                    read()
        with pytest.raises(ValueError, match=_NOT_FINITE):
            SqEuclideanCost(x, x).scaled(1e308).dense()

    def test_a_single_overflowing_distance_raises(self):
        with pytest.raises(ValueError, match=_NOT_FINITE):
            sq_euclidean_cost([[0.0]], [[1e200]])

    @pytest.mark.parametrize("y", [[[1.0]], [[1e200]]], ids=["below the bound", "at it"])
    def test_an_empty_row_slice_is_the_empty_block(self, y):
        cost = SqEuclideanCost([[0.0], [1.0]], y)
        assert (cost._bound < costs._FINITE_BOUND) == (y == [[1.0]])
        for rows in (slice(5, 5), slice(1, 1), slice(2, None)):
            assert cost[rows].shape == (0, 1)

    @settings(max_examples=150, deadline=None)
    @given(overflow_instances())
    def test_every_block_keeps_the_cost_rule(self, instance):
        # A block has the bits of the same rows of the scaled cdist, or
        # raises exactly when those rows hold an overflow; robust_solve
        # gives the dense form's plan or its error.
        x, y, scales, (a, b) = instance
        cost = SqEuclideanCost(x, y)
        dense = cdist(x, y, "sqeuclidean")
        with np.errstate(over="ignore"):
            for scale in scales:
                cost = cost.scaled(scale)
                dense = dense * scale
        finite = np.isfinite(dense[a:b]).all()
        checked = not cost._bound < costs._FINITE_BOUND
        event("overflowing block" if not finite else "checked" if checked else "unchecked")
        if finite:
            assert cost[a:b].tobytes() == dense[a:b].tobytes()
        else:
            with pytest.raises(ValueError, match=_NOT_FINITE):
                cost[a:b]
        cfg = SolverConfig(beta=1.2, lam=2.0, iterations=2)
        if np.isfinite(dense).all():
            plan, expected = robust_solve(cost, cfg), robust_solve(dense, cfg)
            assert plan.pi.tobytes() == expected.pi.tobytes()
            assert plan.value == expected.value
        else:
            for solved in (cost, dense):
                with pytest.raises(ValueError, match=_NOT_FINITE):
                    robust_solve(solved, cfg)

    def test_auto_scale_returns_it_unevaluated_with_the_dense_scale(self):
        rng = np.random.default_rng(89)
        x, y = rng.standard_normal((40, 3)), 3.0 * rng.standard_normal((50, 3))
        cfg = SolverConfig(beta=1.2, lam=2.0)
        for target in ((1, 19), (5, 6), (40, 40)):
            scale, scaled, scaled_z = auto_scale(sq_euclidean_cost(x, y), 30.0, cfg, target)
            lazy_scale, lazy, lazy_z = auto_scale(SqEuclideanCost(x, y), 30.0, cfg, target)
            assert isinstance(lazy, SqEuclideanCost)
            assert (lazy_scale, lazy_z) == (scale, scaled_z)
            assert lazy.dense().tobytes() == scaled.tobytes()


class TestMedianThreshold:
    def test_even_count_midpoint(self):
        assert median_threshold(np.array([[1.0, 2.0], [3.0, 4.0]])) == 2.5

    def test_singleton(self):
        assert median_threshold(np.array([[7.0]])) == 7.0

    def test_constant_matrix(self):
        assert median_threshold(np.full((3, 5), 2.25)) == 2.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_threshold(np.zeros((0, 0)))


class TestEstimateZ:
    def test_reference_split_on_four_points(self):
        # seed 0 shuffles [0,1,2,3] so the row half is {0,2} and the
        # reference half {1,3}; both row minima are |0-1|^2 = |2-1|^2 = 1.
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        perm = np.random.default_rng(0).permutation(4)
        assert set(perm[:2].tolist()) == {0, 2}
        assert estimate_z(pts, 100.0, seed=0) == 1.0

    def test_matches_plain_loop_oracle(self):
        """Re-derive the heuristic with explicit loops for arbitrary seeds."""
        rng = np.random.default_rng(82)
        pts = rng.standard_normal((11, 3))
        for seed in (1, 2, 3):
            for pct in (50.0, 95.0, 100.0):
                perm = np.random.default_rng(seed).permutation(11)
                rows = pts[perm[: 11 // 2]]
                ref = pts[perm[11 // 2 :]]
                minima = []
                for r in rows:
                    minima.append(min(float(np.sum((r - s) ** 2)) for s in ref))
                minima.sort()
                rank = int(np.ceil(pct / 100.0 * len(minima)))
                expected = minima[rank - 1]
                assert estimate_z(pts, pct, seed=seed) == pytest.approx(expected, rel=1e-12)

    def test_identical_points_give_zero(self):
        pts = np.tile([[2.0, -1.0]], (8, 1))
        for pct in (5.0, 50.0, 100.0):
            assert estimate_z(pts, pct, seed=3) == 0.0

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(83)
        pts = rng.standard_normal((40, 4))
        assert estimate_z(pts, 97.5, seed=9) == estimate_z(pts, 97.5, seed=9)

    def test_nondecreasing_in_percentile(self):
        rng = np.random.default_rng(84)
        pts = rng.standard_normal((50, 5))
        values = [estimate_z(pts, pct, seed=4) for pct in (10, 30, 50, 70, 90, 99, 100)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_blocks_give_the_dense_minima_without_the_dense_matrix(self):
        # 2000 x 2000 distances: 32 MB formed at once, 1 MB a block at a time.
        pts = np.random.default_rng(86).standard_normal((4000, 3))
        with mock.patch.object(costs, "_nearest_rank", wraps=costs._nearest_rank) as rank:
            tracemalloc.start()
            try:
                estimate_z(pts, 99.0, seed=5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        perm = np.random.default_rng(5).permutation(4000)
        dense = sq_euclidean_cost(pts[perm[:2000]], pts[perm[2000:]]).min(axis=1)
        assert rank.call_args.args[0].tobytes() == dense.tobytes()
        assert peak < 4_000_000

    def test_overflowing_distances_raise(self):
        # Unchecked, the four points' minima avoid the overflow (2.0) and
        # the six points' do not (inf).
        far = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1e200, 0.0]]
        for pts in (far, far + [[2.0, 0.0], [0.0, 2.0]]):
            with pytest.raises(ValueError, match=_NOT_FINITE):
                estimate_z(pts, 99.0, seed=0)

    def test_preconditions(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            estimate_z(pts, 95.0, seed=0)
        ok = np.zeros((5, 2))
        with pytest.raises(ValueError):
            estimate_z(ok, 0.0, seed=0)
        with pytest.raises(ValueError):
            estimate_z(ok, 100.5, seed=0)


class TestAutoScale:
    def test_already_in_range_returns_unit_scale(self):
        cfg = SolverConfig(beta=1.2, lam=2.0)
        gamma = np.full((1000, 1000), 40.0)
        scale, scaled_cost, scaled_z = auto_scale(gamma, 100.0, cfg, (1, 19))
        assert scale == 1.0
        assert scaled_z == 100.0
        np.testing.assert_array_equal(scaled_cost, gamma)

    def test_reference_inversion(self):
        # unscaled budget is 17, outside [5, 15]; the midpoint target is 10
        cfg = SolverConfig(beta=1.2, lam=2.0)
        gamma = np.full((1000, 1000), 400.0)
        scale, scaled_cost, scaled_z = auto_scale(gamma, 100.0, cfg, (5, 15))
        d = (1.0 / 1000) ** 0.2 * 2.0
        expected_scale = 2.0 * (10.0 * d + 1.0) / (0.2 * 100.0)
        assert scale == pytest.approx(expected_scale, rel=1e-6)
        assert iteration_budget(scaled_z, cfg, 1000, 1000).budget == 10
        np.testing.assert_allclose(scaled_cost, scale * gamma, rtol=1e-15)
        assert scaled_z == pytest.approx(scale * 100.0, rel=1e-15)

    def test_upscales_infeasible_tolerance_to_single_iteration(self):
        # z barely above lam/(beta-1) = 10: unscaled budget is below 1
        cfg = SolverConfig(beta=1.2, lam=2.0)
        gamma = np.full((10, 10), 5.0)
        with pytest.raises(BudgetExhaustedError):
            iteration_budget(10.5, cfg, 10, 10)
        scale, _, scaled_z = auto_scale(gamma, 10.5, cfg, (1, 1))
        assert scale > 1.0
        assert iteration_budget(scaled_z, cfg, 10, 10).budget == 1

    def test_rescues_tolerance_below_the_feasibility_bar(self):
        cfg = SolverConfig(beta=1.3, lam=4.0)
        gamma = np.full((50, 80), 1.0)
        with pytest.raises(InfeasibleToleranceError):
            iteration_budget(2.0, cfg, 50, 80)
        scale, _, scaled_z = auto_scale(gamma, 2.0, cfg, (1, 19))
        budget = iteration_budget(scaled_z, cfg, 50, 80).budget
        assert 1 <= budget <= 19

    def test_budget_affine_in_scale(self):
        cfg = SolverConfig(beta=1.4, lam=3.0)
        base = iteration_budget(60.0, cfg, 30, 70)
        d = (1.0 / 30) ** 0.4 + (1.0 / 70) ** 0.4
        for s in (0.5, 2.0, 3.25):
            scaled = iteration_budget(s * 60.0, cfg, 30, 70)
            predicted = (s * (base.t_max_real * d + 1.0) - 1.0) / d
            assert scaled.t_max_real == pytest.approx(predicted, rel=1e-12)

    def test_always_lands_in_target_on_random_configs(self):
        rng = np.random.default_rng(85)
        for _ in range(20):
            cfg = SolverConfig(beta=rng.uniform(1.1, 2.5), lam=rng.uniform(0.5, 20.0))
            m, n = (int(v) for v in rng.integers(5, 500, size=2))
            z = rng.uniform(0.01, 1000.0)
            gamma = np.zeros((m, n))
            scale, _, scaled_z = auto_scale(gamma, z, cfg, (1, 19))
            assert 1 <= iteration_budget(scaled_z, cfg, m, n).budget <= 19

    def test_beta_outside_domain_is_not_an_auto_scale_failure(self):
        with pytest.raises(DomainError):
            auto_scale(np.zeros((4, 4)), 5.0, SolverConfig(beta=1.0), (1, 19))

    def test_underflowing_budget_denominator_is_a_domain_error(self):
        with pytest.raises(DomainError, match="underflows"):
            auto_scale(np.zeros((30, 30)), 10.0, SolverConfig(beta=400.0), (1, 19))

    def test_wide_target_range_is_walked_lazily(self):
        # z is below lam/(beta-1), so the midpoint target is tried first.
        cfg = SolverConfig(beta=1.2, lam=2.0)
        tracemalloc.start()
        try:
            scale, _, scaled_z = auto_scale(np.zeros((3, 4)), 0.5, cfg, (1, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1 <= iteration_budget(scaled_z, cfg, 3, 4).budget <= 10**6
        assert peak < 1_000_000

    def test_bad_inputs(self):
        cfg = SolverConfig(beta=1.2, lam=2.0)
        gamma = np.zeros((4, 4))
        with pytest.raises(ValueError):
            auto_scale(gamma, -1.0, cfg, (1, 19))
        with pytest.raises(ValueError):
            auto_scale(gamma, 5.0, cfg, (7, 3))

    @pytest.mark.parametrize("target_range", [(1.5, 20), (1, 20.9), (True, 20), (0, 20),
                                              (np.float64(1.0), 20)])
    def test_target_range_ends_must_be_counts(self, target_range):
        # int() would truncate (1.5, 20) to (1, 20) and (1, 20.9) to (1, 20).
        with pytest.raises(DomainError, match="target_range must be >= 1 and an integer"):
            auto_scale(np.zeros((4, 4)), 5.0, SolverConfig(), target_range)

    def test_numpy_integer_target_range_is_accepted(self):
        cfg = SolverConfig(beta=1.2, lam=2.0)
        plain = auto_scale(np.zeros((4, 4)), 5.0, cfg, (1, 19))
        numpy_ends = auto_scale(np.zeros((4, 4)), 5.0, cfg, (np.int64(1), np.int32(19)))
        assert numpy_ends[0] == plain[0] and numpy_ends[2] == plain[2]


class TestOutlierSeparation:
    def test_median_of_inlier_costs_below_far_point_cost(self):
        rng = np.random.default_rng(86)
        cluster_a = rng.standard_normal((20, 2))
        cluster_b = rng.standard_normal((20, 2))
        far_point = np.array([[30.0, 30.0]])  # roughly 10x the cluster scale
        med = median_threshold(sq_euclidean_cost(cluster_a, cluster_b))
        closest_far = sq_euclidean_cost(cluster_a, far_point).min()
        assert med < closest_far
