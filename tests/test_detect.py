"""Zero-column outlier rule, min-distance baseline, and scoring."""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from betaot import (
    AutoScaleError,
    SolverConfig,
    SqEuclideanCost,
    auto_scale,
    baseline_detect,
    detect_outliers,
    detection_metrics,
    iteration_budget,
    robust_solve,
    sq_euclidean_cost,
)


class TestZeroColumnRule:
    def test_flags_the_dead_column(self):
        plan = np.array([[0.5, 0.0], [0.5, 0.0]])
        report = detect_outliers(plan)
        assert report.flagged == [1]
        assert report.n == 2
        assert report.method == "zero_column"

    def test_uniform_plan_flags_nothing(self):
        assert detect_outliers(np.full((3, 3), 1.0 / 9)).flagged == []

    def test_degenerate_zero_plan_flags_everything(self):
        assert detect_outliers(np.zeros((2, 4))).flagged == [0, 1, 2, 3]

    def test_eps_zero_threshold_is_inclusive(self):
        plan = np.array([[1e-13, 0.5], [0.0, 0.5]])
        assert detect_outliers(plan, eps_zero=1e-12).flagged == [0]
        assert detect_outliers(plan, eps_zero=0.0).flagged == []

    def test_nan_threshold_is_rejected(self):
        # No entry compares at most NaN: it would flag nothing, silently.
        with pytest.raises(ValueError, match="NaN"):
            detect_outliers(np.zeros((2, 2)), eps_zero=np.nan)


class TestBaseline:
    def test_flags_far_column(self):
        report = baseline_detect(np.array([[1.0, 100.0]]), z=10.0)
        assert report.flagged == [1]
        assert report.method == "baseline"

    def test_infinite_tolerance_flags_nothing(self):
        assert baseline_detect(np.array([[1.0, 100.0]]), z=np.inf).flagged == []

    def test_boundary_is_inlier_by_strict_inequality(self):
        report = baseline_detect(np.array([[5.0], [9.0]]), z=5.0)
        assert report.flagged == []

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            baseline_detect(np.array([[1.0]]), z=-1.0)

    def test_rejects_nan_tolerance(self):
        # No cost compares above NaN: it would flag nothing, silently.
        with pytest.raises(ValueError, match="z must be nonnegative, got nan"):
            baseline_detect(np.array([[1.0, 100.0]]), z=np.nan)


class TestMetrics:
    def test_perfect_detection(self):
        report = detect_outliers(np.array([[0.5, 0.0], [0.5, 0.0]]))
        metrics = detection_metrics(report, {1})
        assert metrics.outlier_recall == 1.0
        assert metrics.inlier_specificity == 1.0

    def test_nothing_flagged_with_real_outliers(self):
        report = detect_outliers(np.full((2, 3), 0.1))
        metrics = detection_metrics(report, {2})
        assert metrics.outlier_recall == 0.0
        assert metrics.inlier_specificity == 1.0

    def test_partial_overlap_counts(self):
        plan = np.ones((2, 4))
        plan[:, 2] = 0.0
        plan[:, 3] = 0.0
        metrics = detection_metrics(detect_outliers(plan), {3})
        assert metrics.outlier_recall == 1.0
        assert metrics.inlier_specificity == pytest.approx(2.0 / 3.0)

    def test_empty_truth_gives_unit_recall(self):
        report = detect_outliers(np.ones((2, 2)))
        metrics = detection_metrics(report, set())
        assert metrics.outlier_recall == 1.0

    def test_flipping_one_inlier_moves_specificity_by_one_over_inliers(self):
        n = 10
        truth = {1, 2}
        base = np.ones((3, n))
        base[:, 1] = 0.0
        with_extra_flag = base.copy()
        with_extra_flag[:, 7] = 0.0
        a = detection_metrics(detect_outliers(base), truth)
        b = detection_metrics(detect_outliers(with_extra_flag), truth)
        assert a.inlier_specificity - b.inlier_specificity == pytest.approx(1.0 / 8.0)

    def test_rejects_out_of_range_truth(self):
        report = detect_outliers(np.ones((2, 2)))
        with pytest.raises(ValueError):
            detection_metrics(report, {5})

    @pytest.mark.parametrize("truth", [[1.5], [2.9], [True], [np.float64(1.0)], [0, 1.0]])
    def test_rejects_truth_indices_that_are_not_integers(self, truth):
        # int() would score [1.5] as column 1, [2.9] as 2 and [True] as 1.
        report = detect_outliers(np.ones((2, 4)))
        with pytest.raises(ValueError, match="truth indices must be integers"):
            detection_metrics(report, truth)

    def test_numpy_integer_truth_is_accepted(self):
        plan = np.ones((2, 4))
        plan[:, 2] = 0.0
        report = detect_outliers(plan)
        metrics = detection_metrics(report, np.array([2, 3]))
        assert metrics == detection_metrics(report, {2, 3})
        assert metrics.outlier_recall == 0.5 and metrics.inlier_specificity == 1.0


class TestConsistencyWithGuaranteedZeros:
    def test_zero_column_rule_recovers_planted_set_exactly(self):
        """Within the iteration budget, planted far columns are exact zeros,
        so the rule with eps_zero = 0 flags at least the planted set; the
        baseline with the same tolerance agrees on it."""
        rng = np.random.default_rng(91)
        for _ in range(5):
            beta = rng.uniform(1.2, 1.5)
            lam = rng.uniform(2.0, 10.0)
            m, n = (int(v) for v in rng.integers(12, 80, size=2))
            d = (1.0 / m) ** (beta - 1.0) + (1.0 / n) ** (beta - 1.0)
            z = (lam / (beta - 1.0)) * (1.0 + d * rng.uniform(1.5, 3.5))
            gamma = rng.uniform(0.0, 0.7 * z, size=(m, n))
            planted = set(int(j) for j in rng.choice(n, size=3, replace=False))
            for j in planted:
                gamma[:, j] = rng.uniform(1.05 * z, 2.0 * z, size=m)
            cfg = SolverConfig(beta=beta, lam=lam, z=z)
            plan = robust_solve(gamma, cfg)
            assert plan.iterations_run == iteration_budget(z, cfg, m, n).budget
            flagged = set(detect_outliers(plan, eps_zero=0.0).flagged)
            assert planted <= flagged
            assert planted <= set(baseline_detect(gamma, z).flagged)


@st.composite
def point_clouds(draw):
    """Random (x, y, z): two clouds with far points on both sides, and a tolerance.

    Far points sit 10 to 100 times out, so some rows and columns have
    every cost at or above ``z`` and others fall short of it.
    """
    d = draw(st.integers(1, 5))
    m, n = draw(st.integers(4, 70)), draw(st.integers(2, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = rng.standard_normal((m, d)), rng.standard_normal((n, d))
    for cloud in (x, y):
        far = rng.random(cloud.shape[0]) < draw(st.floats(0.0, 0.5))
        cloud[far] *= draw(st.sampled_from([10.0, 30.0, 100.0]))
    return x, y, draw(st.floats(5.0, 500.0))


def _detect_within_budget(cost, dense, z):
    """Flag the columns of ``cost`` after a solve within the budget for ``z``.

    Returns the certified columns (every cost of ``dense``, the same
    matrix, reaches ``z``), the flagged set and the plan.
    """
    cfg = SolverConfig(beta=1.2, lam=2.0)
    try:
        _, scaled, scaled_z = auto_scale(cost, z, cfg, (1, 20))
    except AutoScaleError:
        assume(False)
    cfg.iterations = iteration_budget(scaled_z, cfg, *dense.shape).budget
    plan = robust_solve(scaled, cfg)
    certified = np.flatnonzero(dense.min(axis=0) >= z)
    return certified, set(detect_outliers(plan, eps_zero=0.0).flagged), plan


class TestMetamorphic:
    """Relabelling or transposing the problem moves the certified sets with it.

    Rounding depends on the order of the entries, so only the sets that
    the zero-mass theorem fixes are compared, not whole plans.
    """

    @settings(max_examples=150, deadline=None)
    @given(point_clouds(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_permutations_permute_the_certified_columns(self, clouds, lazy, seed):
        x, y, z = clouds
        rng = np.random.default_rng(seed)
        rows, cols = rng.permutation(x.shape[0]), rng.permutation(y.shape[0])
        results = []
        for xs, ys in ((x, y), (x[rows], y[cols])):
            dense = sq_euclidean_cost(xs, ys)
            cost = SqEuclideanCost(xs, ys) if lazy else dense
            results.append(_detect_within_budget(cost, dense, z))
        (certified, flagged, plan), (moved, moved_flagged, moved_plan) = results
        event("lazy cost" if lazy else "dense cost")
        event("some certified" if certified.size else "none certified")
        assert sorted(cols[moved]) == certified.tolist()
        assert set(certified) <= flagged and set(moved) <= moved_flagged
        assert np.all(plan.pi[:, certified] == 0.0)
        assert np.all(moved_plan.pi[:, moved] == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(point_clouds(), st.booleans())
    def test_source_outliers_through_the_transpose(self, clouds, lazy):
        x, y, z = clouds
        gamma = sq_euclidean_cost(x, y)
        # Rows of gamma whose costs all reach z: the source outliers.
        source = np.flatnonzero(gamma.min(axis=1) >= z).tolist()
        event("lazy cost" if lazy else "dense cost")
        event("some certified" if source else "none certified")
        # Through the transpose (an F-ordered view of gamma, or the lazy
        # cost with the clouds swapped) and on the transposed cost as a
        # matrix of its own.
        contiguous = np.ascontiguousarray(gamma.T)
        for cost in (SqEuclideanCost(y, x) if lazy else gamma.T, contiguous):
            certified, flagged, plan = _detect_within_budget(cost, contiguous, z)
            assert certified.tolist() == source
            assert set(source) <= flagged
            assert np.all(plan.pi[:, source] == 0.0)
