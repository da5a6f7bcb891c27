"""End-to-end solvers: truncated beta scaling, Sinkhorn, NASA, diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import dense_robust_duals, dense_robust_solve, dense_sinkhorn, init_dual
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from betaot import (
    AutoScaleError,
    BudgetExhaustedError,
    DimensionMismatchError,
    DomainError,
    InfeasibleToleranceError,
    NumericalUnderflowError,
    SolverConfig,
    SqEuclideanCost,
    UnsupportedGeneratorError,
    auto_scale,
    beta_potential,
    detect_outliers,
    exact_ot,
    iteration_budget,
    marginal_residuals,
    nasa_solve,
    robust_solve,
    shannon,
    sinkhorn_solve,
    sq_euclidean_cost,
    squared_euclidean,
    transport_value,
)
from betaot.solver import _candidates, _certified_cost, _row_sums, _sparse_row_sums


def _bits(*values):
    """The bytes of the floats: equal only when bit for bit equal."""
    return np.array(values, dtype=float).tobytes()


class TestInitDual:
    def test_zero_cost(self):
        np.testing.assert_array_equal(init_dual(np.zeros((1, 1)), 2.0), [[0.0]])

    def test_scaling(self):
        np.testing.assert_array_equal(init_dual(np.array([[4.0, 2.0]]), 2.0), [[-2.0, -1.0]])

    def test_rejects_bad_lambda_and_nonfinite_cost(self):
        with pytest.raises(ValueError):
            init_dual(np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError):
            init_dual(np.zeros((1, 1)), -1.0)
        with pytest.raises(ValueError):
            init_dual(np.array([[np.nan]]), 1.0)
        with pytest.raises(ValueError):
            init_dual(np.array([[np.inf]]), 1.0)


class TestIterationBudget:
    def test_reference_instance(self):
        cfg = SolverConfig(beta=1.2, lam=2.0)
        result = iteration_budget(100.0, cfg, 1000, 1000)
        # independent evaluation with a different arithmetic arrangement
        d = math.pow(1.0 / 1000, 0.2) * 2.0
        independent = (100.0 * 0.2 - 2.0) / (2.0 * d)
        assert abs(result.t_max_real - independent) <= 1e-6
        assert result.budget == 17
        assert result.budget < result.t_max_real

    def test_boundary_tolerance_rejected(self):
        cfg = SolverConfig(beta=2.0, lam=1.0)
        with pytest.raises(InfeasibleToleranceError):
            iteration_budget(1.0, cfg, 4, 4)  # z == lam/(beta-1) exactly
        with pytest.raises(InfeasibleToleranceError):
            iteration_budget(0.5, cfg, 4, 4)

    def test_exact_integer_bound_decrements(self):
        cfg = SolverConfig(beta=2.0, lam=1.0)
        result = iteration_budget(4.0, cfg, 2, 2)
        assert result.t_max_real == 3.0
        assert result.budget == 2

    def test_budget_below_one_raises(self):
        cfg = SolverConfig(beta=1.2, lam=2.0)
        # z barely above lam/(beta-1): bound positive but < 1
        with pytest.raises(BudgetExhaustedError):
            iteration_budget(10.5, cfg, 10, 10)

    @pytest.mark.parametrize("beta, lam", [(1.0, 2.0), (0.5, 2.0), (1.2, 0.0), (1.2, -1.0)])
    def test_beta_and_lambda_outside_domain_raise(self, beta, lam):
        with pytest.raises(DomainError):
            iteration_budget(100.0, SolverConfig(beta=beta, lam=lam), 10, 10)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    def test_non_finite_tolerance_raises(self, z):
        with pytest.raises(DomainError, match="finite z"):
            iteration_budget(z, SolverConfig(beta=1.2, lam=2.0), 10, 10)

    def test_overflowing_bound_raises(self):
        # z/lam overflows to inf, which math.ceil cannot convert
        with pytest.raises(DomainError, match="not finite"):
            iteration_budget(1e10, SolverConfig(beta=1.2, lam=1e-300), 3, 3)


class TestRobustSolve:
    def test_hand_traced_two_by_two(self):
        cfg = SolverConfig(beta=2.0, lam=1.0, iterations=1)
        plan = robust_solve(np.zeros((2, 2)), cfg)
        np.testing.assert_array_equal(plan.pi, np.full((2, 2), 0.25))
        assert plan.value == 0.0
        assert plan.row_residual_l1 == 0.0
        assert plan.col_residual_l1 == 0.0
        assert plan.iterations_run == 1

    def test_rejects_zero_iterations(self):
        cfg = SolverConfig(beta=1.2, lam=2.0, iterations=0)
        with pytest.raises(ValueError):
            robust_solve(np.zeros((2, 2)), cfg)

    def test_requires_iterations_or_tolerance(self):
        with pytest.raises(ValueError):
            robust_solve(np.zeros((2, 2)), SolverConfig(beta=1.2, lam=2.0))

    def test_far_columns_get_exact_zero_within_budget(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            beta = rng.uniform(1.2, 1.5)
            lam = rng.uniform(2.0, 14.0)
            m, n = (int(v) for v in rng.integers(10, 60, size=2))
            d = (1.0 / m) ** (beta - 1.0) + (1.0 / n) ** (beta - 1.0)
            z = (lam / (beta - 1.0)) * (1.0 + d * rng.uniform(1.3, 4.0))
            gamma = rng.uniform(0.0, 0.8 * z, size=(m, n))
            flagged = rng.choice(n, size=max(1, n // 8), replace=False)
            gamma[:, flagged] = rng.uniform(z, 2.0 * z, size=(m, flagged.size))
            cfg = SolverConfig(beta=beta, lam=lam, z=z)
            plan = robust_solve(gamma, cfg)
            assert np.all(plan.pi[:, flagged] == 0.0)

    def test_plan_entries_bounded_by_column_cap(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            m, n = (int(v) for v in rng.integers(3, 25, size=2))
            gamma = rng.uniform(0.0, 20.0, size=(m, n))
            cfg = SolverConfig(beta=rng.uniform(1.1, 2.0), lam=2.0, iterations=7)
            plan = robust_solve(gamma, cfg)
            assert np.all(plan.pi >= 0.0)
            assert np.all(plan.pi <= 1.0 / n + 1e-12)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(53)
        gamma = rng.uniform(0.0, 30.0, size=(17, 11))
        cfg = SolverConfig(beta=1.3, lam=2.0, iterations=9)
        first = robust_solve(gamma, cfg)
        second = robust_solve(gamma, cfg)
        assert np.array_equal(first.pi, second.pi)
        assert first.value == second.value
        assert first.row_residual_l1 == second.row_residual_l1

    def test_value_recomputable(self):
        rng = np.random.default_rng(54)
        gamma = rng.uniform(0.0, 30.0, size=(12, 9))
        cfg = SolverConfig(beta=1.3, lam=2.0, iterations=5)
        plan = robust_solve(gamma, cfg)
        recomputed = transport_value(plan.pi, gamma)
        assert abs(plan.value - recomputed) <= 1e-9 * max(1.0, abs(recomputed))


class TestSinkhorn:
    def test_symmetric_two_by_two_closed_form(self):
        plan = sinkhorn_solve(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        closed = math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert plan.value == pytest.approx(closed, rel=1e-8)
        assert plan.converged

    def test_zero_cost_gives_uniform_plan(self):
        plan = sinkhorn_solve(np.zeros((2, 2)), 1.0)
        np.testing.assert_array_equal(plan.pi, np.full((2, 2), 0.25))
        assert plan.value == 0.0

    def test_one_by_one_forced_coupling(self):
        plan = sinkhorn_solve(np.array([[3.7]]), 1.0)
        np.testing.assert_allclose(plan.pi, [[1.0]], rtol=1e-12)
        assert plan.value == pytest.approx(3.7, rel=1e-12)

    def test_marginal_feasibility_at_convergence(self):
        rng = np.random.default_rng(61)
        gamma = rng.uniform(0.0, 3.0, size=(7, 9))
        plan = sinkhorn_solve(gamma, 0.5, tol=1e-9)
        assert plan.converged
        assert plan.row_residual_l1 <= 1e-9
        assert plan.col_residual_l1 <= 1e-9

    def test_kernel_underflow_raises(self):
        gamma = np.array([[800.0, 800.5], [0.0, 0.5]])
        with pytest.raises(NumericalUnderflowError):
            sinkhorn_solve(gamma, 1.0)

    def test_log_space_handles_underflowing_costs(self):
        gamma = np.array([[800.0, 800.5], [0.0, 0.5]])
        plan = sinkhorn_solve(gamma, 1.0, log_space=True)
        assert np.isfinite(plan.value)
        assert plan.converged
        assert plan.row_residual_l1 <= 1e-9

    def test_log_space_matches_kernel_space(self):
        rng = np.random.default_rng(62)
        gamma = rng.uniform(0.0, 2.0, size=(5, 6))
        a = sinkhorn_solve(gamma, 0.7)
        b = sinkhorn_solve(gamma, 0.7, log_space=True)
        assert a.value == pytest.approx(b.value, rel=1e-8)

    def test_small_lambda_approaches_exact_value(self):
        rng = np.random.default_rng(63)
        for _ in range(3):
            gamma = rng.uniform(0.1, 1.0, size=(6, 6))
            lam = 0.01 * float(gamma.mean())
            plan = sinkhorn_solve(gamma, lam, tol=1e-4, max_iter=200000)
            exact = exact_ot(gamma).value
            assert abs(plan.value - exact) / exact <= 0.02

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            sinkhorn_solve(np.zeros((2, 2)), 0.0)


class TestNasaSolve:
    def test_zero_cost_quadratic_generator(self):
        plan = nasa_solve(np.zeros((2, 2)), 1.0, squared_euclidean())
        np.testing.assert_allclose(plan.pi, np.full((2, 2), 0.25), atol=1e-12)
        assert plan.converged

    def test_rejects_beta_potential(self):
        with pytest.raises(UnsupportedGeneratorError):
            nasa_solve(np.zeros((2, 2)), 1.0, beta_potential(1.2))

    def test_shannon_path_matches_sinkhorn(self):
        plan = nasa_solve(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, shannon())
        reference = sinkhorn_solve(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        assert plan.value == pytest.approx(reference.value, abs=1e-6)

    def test_shannon_equivalence_on_random_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            gamma = rng.uniform(0.0, 2.0, size=(5, 5))
            lam = rng.uniform(0.3, 2.0)
            a = nasa_solve(gamma, lam, shannon())
            b = sinkhorn_solve(gamma, lam)
            assert abs(a.value - b.value) <= 1e-6

    def test_quadratic_generator_reaches_feasibility(self):
        rng = np.random.default_rng(72)
        gamma = rng.uniform(0.0, 1.0, size=(6, 8))
        plan = nasa_solve(gamma, 2.0, squared_euclidean(), tol=1e-9)
        assert plan.converged
        assert plan.row_residual_l1 + plan.col_residual_l1 <= 1e-9
        assert np.all(plan.pi >= -1e-15)


class TestDiagnostics:
    def test_transport_value_examples(self):
        identity_half = 0.5 * np.eye(2)
        cross = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert transport_value(identity_half, cross) == 0.0
        uniform = np.full((2, 2), 0.25)
        assert transport_value(uniform, np.array([[1.0, 2.0], [3.0, 4.0]])) == 2.5
        assert transport_value(np.zeros((2, 2)), cross) == 0.0

    def test_transport_value_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            transport_value(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_marginal_residual_examples(self):
        assert marginal_residuals(np.full((2, 2), 0.25), 2, 2) == (0.0, 0.0)
        assert marginal_residuals(np.zeros((2, 2)), 2, 2) == (1.0, 1.0)
        one_dead_column = np.array([[0.25, 0.0], [0.25, 0.0]])
        _, col = marginal_residuals(one_dead_column, 2, 2)
        assert col == 0.5  # the missing column contributes exactly 1/n


@st.composite
def robust_instances(draw):
    """Random (beta, lam, T, cost, z) with some columns at or above z.

    The cost scale is drawn over three decades, so that both the dense
    and the candidate loop of ``robust_solve`` run, and the cost is
    F-ordered half the time, as ``gamma.T`` is.
    """
    beta = draw(st.floats(1.05, 3.0, exclude_min=True))
    lam = draw(st.floats(0.01, 50.0))
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 40))
    iterations = draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 10.0, 100.0]))
    z = lam / (beta - 1.0) * draw(st.floats(0.5, 30.0)) * scale
    gamma = rng.uniform(0.0, z, size=(m, n))
    far = rng.random(n) < draw(st.floats(0.0, 0.6))
    gamma[:, far] = z * rng.uniform(1.0, 3.0, size=(m, int(far.sum())))
    gamma[0, far] = z
    if draw(st.booleans()):
        gamma = np.asfortranarray(gamma)
    return beta, lam, iterations, gamma, z


class TestRobustSolveMatchesDenseLoop:
    @settings(max_examples=150, deadline=None)
    @given(robust_instances())
    def test_bit_identical_to_dense_evaluation(self, instance):
        beta, lam, iterations, gamma, _ = instance
        pi, value = dense_robust_solve(gamma, beta, lam, iterations)
        plan = robust_solve(gamma, SolverConfig(beta=beta, lam=lam, iterations=iterations))
        assert np.array_equal(plan.pi, pi)
        assert plan.value == value

    @settings(max_examples=50, deadline=None)
    @given(robust_instances())
    def test_cost_argument_left_unmodified(self, instance):
        beta, lam, iterations, gamma, _ = instance
        before = gamma.copy()
        robust_solve(gamma, SolverConfig(beta=beta, lam=lam, iterations=iterations))
        assert np.array_equal(gamma, before)

    @settings(max_examples=150, deadline=None)
    @given(robust_instances())
    def test_columns_at_or_above_z_get_exact_zero_within_budget(self, instance):
        beta, lam, iterations, gamma, z = instance
        cfg = SolverConfig(beta=beta, lam=lam)
        try:
            budget = iteration_budget(z, cfg, *gamma.shape).budget
        except (InfeasibleToleranceError, BudgetExhaustedError):
            assume(False)
        cfg.iterations = min(iterations, budget)
        far = gamma.min(axis=0) >= z
        assert np.all(robust_solve(gamma, cfg).pi[:, far] == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(robust_instances())
    def test_entries_at_or_above_certified_cost_stay_clamped(self, instance):
        beta, lam, iterations, gamma, _ = instance
        m, n = gamma.shape
        pot = beta_potential(beta)
        level = _certified_cost(pot, lam, m, n, iterations)
        event("candidate loop" if _candidates(gamma, level) is not None else "dense loop")
        outside = gamma >= level
        for theta_star in dense_robust_duals(gamma, beta, lam, iterations):
            assert np.all(theta_star[outside] <= pot.clamp_bound)

    @settings(max_examples=150, deadline=None)
    @given(robust_instances(), st.integers(0, 2**32 - 1))
    def test_diagnostics_from_entries_equal_those_from_dense_plan(self, instance, seed):
        beta, lam, iterations, gamma, _ = instance
        plan = robust_solve(gamma, SolverConfig(beta=beta, lam=lam, iterations=iterations))
        event("sparse plan" if plan.entries is not None else "dense plan")
        pi = plan.pi
        assert plan.pi is pi
        assert _bits(plan.value) == _bits(transport_value(pi, gamma))
        residuals = marginal_residuals(pi, *gamma.shape)
        assert _bits(plan.row_residual_l1, plan.col_residual_l1) == _bits(*residuals)
        other = np.random.default_rng(seed).standard_normal(gamma.shape)
        other = np.asfortranarray(other) if seed % 2 else other
        assert _bits(transport_value(plan, other)) == _bits(transport_value(pi, other))
        for eps_zero in (1e-12, 0.0, 1e-6, -1.0):
            flagged = detect_outliers(plan, eps_zero=eps_zero).flagged
            assert flagged == detect_outliers(pi, eps_zero=eps_zero).flagged


@st.composite
def dense_loop_instances(draw):
    """Random (beta, lam, T, cost) on which ``robust_solve`` runs the dense loop.

    More than a fifth of the entries cost less than the certified level,
    so the candidate loop does not run.  ``n`` is 1 (summed pairwise by
    numpy), small or up to 60, and ``m`` up to 300, past numpy's pairwise
    block of 128 in the ``n == 1`` column.  Costs run from entries active
    at the start to entries beyond the level, and are F-ordered half the
    time.
    """
    beta = draw(st.sampled_from([1.2, 1.5, 2.0, 2.7]))
    lam = draw(st.sampled_from([0.5, 2.0, 7.0]))
    m = draw(st.integers(1, 300))
    n = draw(st.one_of(st.just(1), st.integers(2, 9), st.integers(10, 60)))
    iterations = draw(st.integers(1, 12))
    level = _certified_cost(beta_potential(beta), lam, m, n, iterations)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = rng.uniform(0.0, level * draw(st.floats(0.05, 1.0)), size=(m, n))
    far = rng.random((m, n)) < draw(st.floats(0.0, 0.75))
    gamma[far] = level * rng.uniform(1.0, 2.0, size=int(far.sum()))
    assume(_candidates(gamma, level) is None)
    if draw(st.booleans()):
        gamma = np.asfortranarray(gamma)
    return beta, lam, iterations, gamma


class TestDenseLoop:
    """The dense loop's column sums come from ``bincount`` when ``n > 1``."""

    @settings(max_examples=120, deadline=None)
    @given(dense_loop_instances())
    def test_bit_identical_to_dense_reference(self, instance):
        beta, lam, iterations, gamma = instance
        m, n = gamma.shape
        event("n == 1" if n == 1 else "2 <= n <= 9" if n < 10 else "n >= 10")
        event("m > 128" if m > 128 else "m <= 128")
        event("F-ordered" if gamma.flags.f_contiguous and n > 1 else "C-ordered")
        pi, value = dense_robust_solve(gamma, beta, lam, iterations)
        plan = robust_solve(gamma, SolverConfig(beta=beta, lam=lam, iterations=iterations))
        assert plan.entries is None
        assert plan.pi.tobytes() == pi.tobytes()
        assert _bits(plan.value) == _bits(value)
        residuals = marginal_residuals(pi, m, n)
        assert _bits(plan.row_residual_l1, plan.col_residual_l1) == _bits(*residuals)


class TestCertifiedCost:
    def test_bounds_the_paper_threshold(self):
        beta, lam, m, n, iterations = 1.2, 2.0, 950, 1000, 10
        decrement_sum = (1.0 / m) ** (beta - 1.0) + (1.0 / n) ** (beta - 1.0)
        z_t = lam * (1.0 + iterations * decrement_sum) / (beta - 1.0)
        level = _certified_cost(beta_potential(beta), lam, m, n, iterations)
        assert z_t <= level <= z_t * (1.0 + 1e-12)

    def test_huge_iteration_counts_return_at_once(self):
        pot = beta_potential(1.2)
        assert math.isfinite(_certified_cost(pot, 2.0, 950, 1000, 10**9))
        assert _certified_cost(pot, 2.0, 950, 1000, 10**20) == math.inf

    def test_candidate_loop_matches_dense_reference(self):
        # 83% far entries, and rows longer than numpy's pairwise block
        # of 128 with many active entries, which are summed densely.
        rng = np.random.default_rng(5)
        gamma = rng.uniform(0.0, 20.0, size=(60, 300))
        gamma[:, 50:] += 1e4
        level = _certified_cost(beta_potential(1.2), 2.0, 60, 300, 12)
        assert _candidates(gamma, level) is not None
        pi, value = dense_robust_solve(gamma, 1.2, 2.0, 12)
        plan = robust_solve(gamma, SolverConfig(beta=1.2, lam=2.0, iterations=12))
        assert np.array_equal(plan.pi, pi)
        assert plan.value == value
        assert np.count_nonzero(pi, axis=1).max() >= 10

    def test_single_column_matches_dense_reference(self):
        # numpy sums an m x 1 column pairwise, so it takes the dense loop.
        rng = np.random.default_rng(3)
        gamma = np.full((120, 1), 1e6)
        gamma[:24, 0] = rng.uniform(0.0, 0.1, size=24)
        pi, value = dense_robust_solve(gamma, 1.2, 1.0, 6)
        plan = robust_solve(gamma, SolverConfig(beta=1.2, lam=1.0, iterations=6))
        assert np.array_equal(plan.pi, pi)
        assert plan.value == value

    def test_candidate_loop_allocates_no_dense_matrix(self):
        # 2% candidates: the plan stays sparse, the loop's arrays are
        # O(candidates), and no m x n float array (8*m*n bytes) is made.
        rng = np.random.default_rng(11)
        m, n = 400, 500
        gamma = rng.uniform(0.0, 20.0, size=(m, n))
        gamma[:, 10:] += 1e4
        cfg = SolverConfig(beta=1.2, lam=2.0, iterations=10)
        assert _candidates(gamma, _certified_cost(beta_potential(1.2), 2.0, m, n, 10)).size == 4000
        tracemalloc.start()
        try:
            plan = robust_solve(gamma, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.entries is not None
        assert peak < 4 * m * n


class TestConjugateOverflow:
    """A very negative cost overflows the conjugate: a typed error, not NaN."""

    @pytest.mark.parametrize("far", [False, True], ids=["dense loop", "candidate loop"])
    def test_raises_domain_error(self, far):
        rng = np.random.default_rng(12)
        gamma = rng.uniform(0.0, 1.0, size=(40, 40))
        if far:
            gamma[:, 4:] = 1e3
        gamma[3, 2] = -1e70
        level = _certified_cost(beta_potential(1.2), 1.0, 40, 40, 3)
        assert (_candidates(gamma, level) is not None) == far
        with pytest.raises(DomainError, match="overflowed"):
            robust_solve(gamma, SolverConfig(beta=1.2, lam=1.0, iterations=3))


@st.composite
def point_cost_instances(draw):
    """Random (x, y, cfg, tolerance) for ``robust_solve`` on a lazy cost.

    ``d`` runs from 1 to 12 and ``m`` over several row blocks, rarely a
    multiple of one; ``n`` is 1 now and then.  A random share of the
    targets sits far out, so either loop runs.  The tolerance is None
    (scale 1) or a ``z`` for ``auto_scale``.
    """
    d = draw(st.integers(1, 12))
    m = draw(st.integers(1, 200))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((m, d))
    y = rng.standard_normal((n, d))
    far = rng.random(n) < draw(st.floats(0.0, 1.0))
    y[far] *= draw(st.sampled_from([10.0, 100.0]))
    cfg = SolverConfig(
        beta=draw(st.sampled_from([1.2, 1.5, 2.0])),
        lam=draw(st.sampled_from([0.5, 2.0])),
        iterations=draw(st.integers(1, 20)),
    )
    z = draw(st.one_of(st.none(), st.floats(1.0, 1e4)))
    return x, y, cfg, z


class TestLazyCost:
    """``robust_solve`` on ``SqEuclideanCost`` equals it on the dense matrix."""

    @settings(max_examples=150, deadline=None)
    @given(point_cost_instances())
    def test_bit_identical_to_the_dense_cost(self, instance):
        x, y, cfg, z = instance
        lazy, gamma = SqEuclideanCost(x, y), sq_euclidean_cost(x, y)
        if z is not None:
            try:
                scale, lazy, _ = auto_scale(lazy, z, cfg, (1, 20))
            except AutoScaleError:
                assume(False)
            gamma = scale * gamma
        m, n = gamma.shape
        level = _certified_cost(beta_potential(cfg.beta), cfg.lam, m, n, cfg.iterations)
        candidate = _candidates(gamma, level) is not None
        event("candidate loop" if candidate else "dense loop")
        event("n == 1" if n == 1 else "n > 1")
        plan = robust_solve(lazy, cfg)
        expected = robust_solve(gamma, cfg)
        assert (plan.entries is not None) == candidate
        assert plan.pi.tobytes() == expected.pi.tobytes()
        assert _bits(plan.value, plan.row_residual_l1, plan.col_residual_l1) == _bits(
            expected.value, expected.row_residual_l1, expected.col_residual_l1
        )

    def test_candidate_path_allocates_no_cost_matrix(self):
        # Six near targets: the candidates are 0.5% of the entries.  The
        # loop holds about 150 bytes per candidate at its peak and one
        # 64-row block of costs; the dense cost, rescaled, would hold two
        # m x n float matrices (16*m*n bytes).
        rng = np.random.default_rng(14)
        m, n = 1000, 1200
        x = rng.standard_normal((m, 3))
        y = rng.standard_normal((n, 3))
        y[6:] *= 100.0
        cfg = SolverConfig(beta=1.2, lam=2.0)
        tracemalloc.start()
        try:
            scale, cost, scaled_z = auto_scale(SqEuclideanCost(x, y), 100.0, cfg, (5, 10))
            cfg.iterations = iteration_budget(scaled_z, cfg, m, n).budget
            plan = robust_solve(cost, cfg)
            flagged = detect_outliers(plan).flagged
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scale != 1.0
        assert plan.entries is not None
        assert set(range(6, n)) <= set(flagged)
        assert peak < 2 * m * n


class TestPlanProperties:
    """Properties of every robust plan, on both loops and the lazy cost."""

    @settings(max_examples=100, deadline=None)
    @given(point_cost_instances(), st.booleans())
    def test_entries_at_most_the_column_cap(self, instance, lazy):
        # The last half-step is a column step, truncated so that no dual
        # entry passes phi_prime(1/n); the plan is its image, up to rounding.
        x, y, cfg, _ = instance
        cost = SqEuclideanCost(x, y) if lazy else sq_euclidean_cost(x, y)
        plan = robust_solve(cost, cfg)
        n = y.shape[0]
        event("candidate loop" if plan.entries is not None else "dense loop")
        event("lazy cost" if lazy else "dense cost")
        pi = plan.pi
        assert np.all(pi >= 0.0)
        assert np.all(pi <= (1.0 / n) * (1.0 + 1e-12))

    @settings(max_examples=100, deadline=None)
    @given(point_cost_instances(), st.booleans())
    def test_reruns_bit_identical(self, instance, lazy):
        x, y, cfg, _ = instance
        cost = SqEuclideanCost(x, y) if lazy else sq_euclidean_cost(x, y)
        first, second = robust_solve(cost, cfg), robust_solve(cost, cfg)
        event("candidate loop" if first.entries is not None else "dense loop")
        event("lazy cost" if lazy else "dense cost")
        assert first.pi.tobytes() == second.pi.tobytes()
        assert _bits(first.value, first.row_residual_l1, first.col_residual_l1) == _bits(
            second.value, second.row_residual_l1, second.col_residual_l1
        )


@st.composite
def sparse_rows(draw):
    """A C-ordered matrix with rows in each regime of numpy's pairwise sum.

    Rows shorter than 8 are summed in order, rows of 8 to 128 in 8 strided
    accumulators, longer rows split in two; from no nonzero entry to all,
    with magnitudes from 1e-8 to 1e8 and both signs.
    """
    length = draw(st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 40_000)))
    count = draw(st.integers(1, max(1, min(12, 60_000 // length))))
    density = draw(st.sampled_from([0.0, 0.001, 0.01, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((count, length)) < density
    k = int(mask.sum())
    values = 10.0 ** rng.uniform(-8.0, 8.0, size=k)
    if draw(st.booleans()):
        values *= rng.choice([-1.0, 1.0], size=k)
    dense = np.zeros((count, length))
    dense[mask] = values
    return dense


class TestSparseRowSums:
    """Pins numpy's reduction order: ``_sparse_row_sums`` reproduces it."""

    @settings(max_examples=200, deadline=None)
    @given(sparse_rows())
    def test_equals_numpy_sums_bit_for_bit(self, dense):
        count, length = dense.shape
        index = np.flatnonzero(dense)
        values = dense.reshape(-1)[index]
        rows, negated = _sparse_row_sums(index, length, count, values, -values)
        assert _bits(*rows) == _bits(*np.add.reduce(dense, axis=1))
        assert _bits(*negated) == _bits(*np.add.reduce(-dense, axis=1))
        # The candidate loop's split: bincount for rows of at most two entries.
        (split,) = _row_sums(index, index // length, length, count, values)
        assert _bits(*split) == _bits(*rows)
        (whole,) = _sparse_row_sums(index, dense.size, 1, values)
        assert _bits(*whole) == _bits(np.add.reduce(dense, axis=None))


@st.composite
def sinkhorn_instances(draw):
    """Random (cost, lam, tol, max_iter) for kernel-space Sinkhorn."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = rng.uniform(0.0, draw(st.floats(0.0, 5.0)), size=(m, n))
    if draw(st.booleans()):
        gamma = np.round(gamma, 1)
    lam = draw(st.sampled_from([0.2, 0.5, 1.0]))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    max_iter = draw(st.integers(1, 2000))
    return gamma, lam, tol, max_iter


class TestSinkhornMatchesDenseLoop:
    @settings(max_examples=150, deadline=None)
    @given(sinkhorn_instances())
    def test_same_iterations_and_bit_identical_plan(self, instance):
        gamma, lam, tol, max_iter = instance
        pi, iterations, converged = dense_sinkhorn(gamma, lam, tol, max_iter)
        plan = sinkhorn_solve(gamma, lam, tol=tol, max_iter=max_iter)
        assert plan.iterations_run == iterations
        assert plan.converged == converged
        assert np.array_equal(plan.pi, pi)
