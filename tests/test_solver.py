"""End-to-end solvers: truncated beta scaling, Sinkhorn, NASA, diagnostics."""

import math
import os
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from dense_reference import (
    bisect_shift,
    dense_robust_duals,
    dense_robust_solve,
    dense_sinkhorn,
    dense_sinkhorn_log,
    init_dual,
)
from hypothesis import assume, event, example, given, settings
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
    phi_prime,
    robust_solve,
    shannon,
    sinkhorn_solve,
    sq_euclidean_cost,
    squared_euclidean,
    transport_value,
)
from betaot import solver
from betaot.solver import (
    _BLOCK_ROWS,
    CANDIDATE_SHARE_MAX,
    _candidate_entries,
    _certified_cost,
    PlanEntries,
    _dense_plan,
    _line_shift,
    _restart,
)


def _candidates(gamma, level):
    """Flat indices of the candidate loop's entries, or None when the dense loop runs."""
    found = _candidate_entries(gamma, level)
    return None if found is None else found[0]


def _dense_entries(gamma, pot, lam, iterations):
    """``_dense_plan``'s entries and costs, with the caps ``robust_solve`` passes it."""
    caps = {size: phi_prime(1.0 / size, pot) for size in gamma.shape}
    return _dense_plan(gamma, pot, lam, iterations, caps)


def _loop(cost, cfg):
    """The loop that ``robust_solve(cost, cfg)`` runs, as its candidate walk selects it."""
    m, n = cost.shape
    level = _certified_cost(beta_potential(cfg.beta), cfg.lam, m, n, cfg.iterations)
    return "dense loop" if _candidates(cost, level) is None else "candidate loop"


def _densify(entries):
    """The dense m x n plan of :class:`PlanEntries`: zeros but at its entries."""
    pi = np.zeros(entries.shape)
    pi.reshape(-1)[entries.index] = entries.values
    return pi


def _two_clouds(size):
    """Squared distances between Gaussian clouds at means 0 and 1 in the plane (seed 1)."""
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 1.0, (size, 2))
    return sq_euclidean_cost(x, rng.normal(1.0, 1.0, (size, 2)))


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

    @pytest.mark.parametrize(
        "beta, lam",
        [(1.0, 2.0), (0.5, 2.0), (math.inf, 2.0), (1.2, 0.0), (1.2, -1.0), (1.2, math.inf)],
    )
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

    @pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (-1, 5), (2.5, 5), (5, True),
                                      (np.float64(3.0), 5)])
    def test_sizes_that_are_not_counts_raise(self, m, n):
        # 0 divided by zero, -1 gave a complex power, 2.5 a bound for no shape.
        with pytest.raises(DomainError, match="must be >= 1 and an integer"):
            iteration_budget(100.0, SolverConfig(), m, n)

    def test_numpy_integer_sizes_are_accepted(self):
        cfg = SolverConfig(beta=1.2, lam=2.0)
        assert iteration_budget(100.0, cfg, np.int64(1000), 1000) == iteration_budget(
            100.0, cfg, 1000, 1000
        )

    def test_a_derived_budget_that_cannot_finish_raises(self):
        # The budget for z=1e308 is about 5.7e306 iterations: the solve once ran
        # until it was killed.  The public budget and an explicit count are kept.
        cfg = SolverConfig(beta=1.2, lam=2.0)
        assert iteration_budget(1e308, cfg, 2, 2).budget > 2**49
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(BudgetExhaustedError, match=r"2\*\*49"):
            robust_solve(cost, SolverConfig(z=1e308))
        assert robust_solve(cost, SolverConfig(z=1e308, iterations=3)).iterations_run == 3

    @pytest.mark.parametrize("budget, runs", [(2**49 - 1, True), (2**49, False)])
    def test_derived_budgets_run_below_the_certificate_limit(self, budget, runs):
        cfg = SolverConfig(z=100.0)
        with mock.patch.object(solver, "iteration_budget",
                               return_value=solver.IterationBudget(budget + 0.5, budget)):
            if runs:
                assert solver._resolve_iterations(cfg, 3, 3) == budget
            else:
                with pytest.raises(BudgetExhaustedError):
                    solver._resolve_iterations(cfg, 3, 3)
        assert _certified_cost(beta_potential(1.2), 2.0, 3, 3, 2**49) == math.inf
        assert math.isfinite(_certified_cost(beta_potential(1.2), 2.0, 3, 3, 2**49 - 1))

    def test_underflowing_denominator_raises(self):
        # (1/30)^399 + (1/30)^399 underflows to 0: the bound would divide by zero.
        cfg = SolverConfig(beta=400.0, lam=2.0, z=10.0)
        with pytest.raises(DomainError, match="underflows"):
            iteration_budget(10.0, cfg, 30, 30)
        with pytest.raises(DomainError, match="underflows"):
            robust_solve(np.ones((30, 30)), cfg)


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

    @pytest.mark.parametrize("iterations", [2.5, True, np.float64(3.0)])
    def test_rejects_iterations_that_are_not_integers(self, iterations):
        # int() would truncate them: 2.5 to 2 iterations, True to 1.
        with pytest.raises(DomainError, match="integer"):
            robust_solve(np.ones((3, 3)), SolverConfig(iterations=iterations))

    def test_numpy_integer_iterations_are_accepted(self):
        plan = robust_solve(np.ones((3, 3)), SolverConfig(iterations=np.int64(3)))
        assert plan.iterations_run == 3

    def test_bad_lambda_is_a_domain_error(self):
        for lam in (0.0, math.inf):
            with pytest.raises(DomainError, match="lambda"):
                robust_solve(np.ones((3, 3)), SolverConfig(lam=lam, iterations=1))

    def test_infinite_beta_is_a_domain_error(self):
        # 1/(1 - inf) is a clamp bound of -0.0, which no finite beta gives.
        with pytest.raises(DomainError, match="beta"):
            robust_solve(np.ones((3, 3)), SolverConfig(beta=math.inf, iterations=3))

    def test_overflowing_certified_cost_warns_nothing(self):
        # lam times the certified level overflows to inf: every entry is a
        # candidate, silently (the suite turns a RuntimeWarning into an error).
        plan = robust_solve(np.ones((3, 3)), SolverConfig(lam=1e308, iterations=2))
        assert plan.iterations_run == 2

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
        # The first row of exp(-cost/lam) underflows, and the spread of
        # cost/lam overflows the floats, so no offset can rescue it.
        gamma = np.array([[800.0, 800.5], [0.0, 0.5]])
        with pytest.raises(NumericalUnderflowError, match="spread"):
            sinkhorn_solve(gamma, 1e-306)
        # Here exp(-cost/lam) has an entry 1 in every line, but the spread
        # overflows too, and the offsets are taken from the start.
        with pytest.raises(NumericalUnderflowError, match="spread"):
            sinkhorn_solve(np.array([[0.0, 1e308], [1e308, 0.0]]), 0.1)

    def test_log_space_handles_underflowing_costs(self):
        # exp(-800) underflows: the cost once needed the log-space loop;
        # the offset kernel solves it as that loop does.
        gamma = np.array([[800.0, 800.5], [0.0, 0.5]])
        plan = sinkhorn_solve(gamma, 1.0)
        assert plan.converged
        assert plan.row_residual_l1 <= 1e-9
        pi, _, converged = dense_sinkhorn_log(gamma, 1.0, 1e-9, 10000)
        assert converged
        assert plan.value == pytest.approx(transport_value(pi, gamma), rel=1e-12)
        np.testing.assert_allclose(plan.pi, pi, rtol=0, atol=1e-12)

    def test_log_space_overflow_raises(self):
        # cost/lam overflows the floats, so no offset gives a finite plan.
        rng = np.random.default_rng(0)
        gamma = sq_euclidean_cost(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)) + 1.0)
        with pytest.raises(NumericalUnderflowError):
            sinkhorn_solve(gamma, 1e-308)

    def test_log_space_matches_kernel_space(self):
        rng = np.random.default_rng(62)
        gamma = rng.uniform(0.0, 2.0, size=(5, 6))
        a = sinkhorn_solve(gamma, 0.7)
        pi, _, _ = dense_sinkhorn_log(gamma, 0.7, 1e-9, 10000)
        assert a.value == pytest.approx(transport_value(pi, gamma), rel=1e-8)

    def test_rejects_iteration_cap_below_one(self):
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="max_iter must be >= 1"):
                sinkhorn_solve(np.zeros((2, 2)), 1.0, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [2.5, True, np.float64(3.0)])
    def test_rejects_iteration_caps_that_are_not_integers(self, max_iter):
        # 2.5 ran 3 iterations and True ran 1.
        gamma = np.random.default_rng(6).uniform(0.0, 1.0, (4, 5))
        with pytest.raises(DomainError, match="max_iter must be >= 1 and an integer"):
            sinkhorn_solve(gamma, 0.5, tol=0.0, max_iter=max_iter)

    def test_numpy_integer_iteration_cap_is_accepted(self):
        gamma = np.random.default_rng(6).uniform(0.0, 1.0, (4, 5))
        plan = sinkhorn_solve(gamma, 0.5, tol=0.0, max_iter=np.int64(3))
        assert plan.iterations_run == 3

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_rejects_negative_or_nan_tolerance(self, tol):
        for pot in (shannon(), squared_euclidean()):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                nasa_solve(np.zeros((2, 2)), 1.0, pot, tol=tol)

    def test_zero_tolerance_is_valid(self):
        # Rounding keeps this residual above 0, so the loop runs to the cap.
        gamma = np.random.default_rng(64).uniform(0.0, 3.0, size=(5, 7))
        plan = sinkhorn_solve(gamma, 0.5, tol=0.0, max_iter=50)
        assert plan.iterations_run == 50 and not plan.converged

    def test_small_lambda_approaches_exact_value(self):
        rng = np.random.default_rng(63)
        for _ in range(3):
            gamma = rng.uniform(0.1, 1.0, size=(6, 6))
            lam = 0.01 * float(gamma.mean())
            plan = sinkhorn_solve(gamma, lam, tol=1e-4, max_iter=200000)
            exact = exact_ot(gamma).value
            assert abs(plan.value - exact) / exact <= 0.02

    def test_rejects_bad_lambda(self):
        for lam in (0.0, math.inf):
            with pytest.raises(DomainError, match="lambda"):
                sinkhorn_solve(np.zeros((2, 2)), lam)


class TestConvergedFlag:
    """``converged`` is read from the residuals the plan reports, not from
    the loop's stopping test, which sums the marginals another way."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 39),
        n=st.integers(2, 39),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.2, 5.0),
        log_tol=st.floats(-15.0, -8.0),
    )
    # Sinkhorn's stopping test passes on the first with its reported
    # residual 1.2% above tol, and NASA's on the second with 0.4% above.
    @example(m=15, n=13, seed=2313922469, lam=2.512, log_tol=-14.33)
    @example(m=4, n=26, seed=11798909, lam=0.423, log_tol=-14.521)
    def test_converged_exactly_when_reported_residual_within_tol(self, m, n, seed, lam,
                                                                  log_tol):
        gamma = np.random.default_rng(seed).uniform(0.0, 5.0, size=(m, n))
        tol = 10.0 ** log_tol
        for plan in (sinkhorn_solve(gamma, lam, tol=tol, max_iter=2000),
                     nasa_solve(gamma, lam, squared_euclidean(), tol=tol, max_iter=2000)):
            assert plan.converged == (plan.row_residual_l1 + plan.col_residual_l1 <= tol)


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

    @pytest.mark.parametrize(
        "shape, high, lam",
        [((6, 34), 16.0, 1.0), ((1, 27), 4.0, 0.5), ((22, 1), 16.0, 0.5)],
        ids=["6x34", "1x27", "22x1"],
    )
    def test_shannon_is_sinkhorn_on_costs_far_above_lambda(self, shape, high, lam):
        # Costs far above lambda, where Newton steps on the Shannon
        # multipliers leave the floats; the exact projection is Sinkhorn's.
        gamma = np.random.default_rng(0).uniform(0.0, high, size=shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plan = nasa_solve(gamma, lam, shannon())
        reference = sinkhorn_solve(gamma, lam)
        assert plan.converged
        assert np.array_equal(plan.pi, reference.pi)
        assert plan.value == reference.value
        assert plan.iterations_run == reference.iterations_run

    def test_overflowing_spread_raises_without_warning(self):
        # The spread of cost/lam (1e310) overflows the floats, as for Sinkhorn.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalUnderflowError, match="spread"):
                nasa_solve(np.array([[0.0, 1e300], [5.0, 0.0]]), 1e-10, squared_euclidean())

    def test_rejects_iteration_cap_below_one(self):
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="max_iter must be >= 1"):
                nasa_solve(np.zeros((2, 2)), 1.0, squared_euclidean(), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [2.5, True, np.float64(3.0)])
    def test_rejects_iteration_caps_that_are_not_integers(self, max_iter):
        # range() raised an untyped TypeError on 2.5 and 3.0; True ran 1 cycle.
        gamma = np.random.default_rng(6).uniform(0.0, 1.0, (4, 5))
        for pot in (shannon(), squared_euclidean()):
            with pytest.raises(DomainError, match="max_iter must be >= 1 and an integer"):
                nasa_solve(gamma, 0.5, pot, tol=0.0, max_iter=max_iter)

    def test_quadratic_generator_reaches_feasibility(self):
        rng = np.random.default_rng(72)
        gamma = rng.uniform(0.0, 1.0, size=(6, 8))
        plan = nasa_solve(gamma, 2.0, squared_euclidean(), tol=1e-9)
        assert plan.converged
        assert plan.row_residual_l1 + plan.col_residual_l1 <= 1e-9
        assert np.all(plan.pi >= -1e-15)

    def test_two_clouds_converge_within_the_default_cap(self):
        # Most entries clamp here, where clamping and then projecting onto
        # the affine sets converges very slowly.
        plan = nasa_solve(_two_clouds(30), 2.0, squared_euclidean())
        assert plan.converged
        assert plan.iterations_run < 10000
        assert np.count_nonzero(plan.pi) < plan.pi.size / 2

    @pytest.mark.parametrize("case", ["two clouds", "uniform"])
    def test_plan_satisfies_the_optimality_conditions(self, case):
        # pi = max(1 - C/lam - tau_i - sigma_j, 0) and feasible is the
        # unique optimum; tau and sigma add up the shifts of the loop,
        # which starts from the cost less its row minima.
        if case == "two clouds":
            gamma, lam = _two_clouds(30), 2.0
        else:
            gamma, lam = np.random.default_rng(73).uniform(0.0, 3.0, size=(9, 14)), 0.5
        m, n = gamma.shape
        shifts = []

        def record(a, total):
            shifts.append(_line_shift(a, total))
            return shifts[-1]

        tol = 1e-9
        with mock.patch.object(solver, "_line_shift", record):
            plan = nasa_solve(gamma, lam, squared_euclidean(), tol=tol)
        assert plan.converged
        assert plan.row_residual_l1 + plan.col_residual_l1 <= tol
        tau = -gamma.min(axis=1) / lam + np.sum(shifts[0::2], axis=0)
        sigma = np.sum(shifts[1::2], axis=0)
        assert tau.shape == (m,) and sigma.shape == (n,)
        kkt = np.maximum(1.0 - gamma / lam - tau[:, None] - sigma[None, :], 0.0)
        np.testing.assert_allclose(plan.pi, kkt, rtol=0, atol=1e-12)


@st.composite
def shift_instances(draw):
    """Lines of equal length with ties, all-equal lines and length 1, and a total."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    entry = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 1.0]), st.floats(-10.0, 10.0))
    lines = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(rows)]
    if draw(st.booleans()):
        lines[0] = [lines[0][0]] * n
    total = 10.0 ** draw(st.floats(-6.0, 0.0))
    return np.array(lines), total


class TestLineShift:
    @given(shift_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection(self, instance):
        a, total = instance
        shifts = _line_shift(a, total)
        eps = np.finfo(float).eps
        for line, shift in zip(a, shifts):
            event(f"length {line.size}")
            bound = 4 * line.size * eps * (np.abs(line).max() + total)
            assert abs(shift - bisect_shift(line, total)) <= bound
            assert abs(np.maximum(line - shift, 0.0).sum() - total) <= line.size * bound


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

    def test_marginal_residuals_sizes_must_match_the_plan(self):
        # Swapped sizes gave residuals of a plan it was not; 0 divided by zero.
        plan = sinkhorn_solve(np.random.default_rng(4).uniform(0.0, 1.0, (6, 7)), 0.5)
        entries = PlanEntries((6, 7), np.arange(42), plan.pi.reshape(-1))
        for pi in (plan, plan.pi, entries):
            for m, n in ((7, 6), (0, 7), (6, 8)):
                with pytest.raises(DimensionMismatchError, match="marginal sizes"):
                    marginal_residuals(pi, m, n)
            assert marginal_residuals(pi, 6, 7) == (plan.row_residual_l1, plan.col_residual_l1)


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
        cfg = SolverConfig(beta=beta, lam=lam, iterations=iterations)
        event(_loop(gamma, cfg))
        plan = robust_solve(gamma, cfg)
        assert plan.entries is not None
        assert np.all(np.diff(plan.entries.index) > 0)
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
        cfg = SolverConfig(beta=beta, lam=lam, iterations=iterations)
        event(_loop(gamma, cfg))
        plan = robust_solve(gamma, cfg)
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
    so the candidate loop does not run.  ``n`` is 1, small or up to 60,
    and ``m`` up to 300.  Costs run from entries active at the start to
    entries beyond the level, and are F-ordered half the time.
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
    """The dense loop's line sums come from ``bincount`` over the active entries."""

    @settings(max_examples=120, deadline=None)
    @given(dense_loop_instances())
    def test_bit_identical_to_dense_reference(self, instance):
        beta, lam, iterations, gamma = instance
        m, n = gamma.shape
        event("n == 1" if n == 1 else "2 <= n <= 9" if n < 10 else "n >= 10")
        event("m > 128" if m > 128 else "m <= 128")
        event("F-ordered" if gamma.flags.f_contiguous and n > 1 else "C-ordered")
        pi, value = dense_robust_solve(gamma, beta, lam, iterations)
        cfg = SolverConfig(beta=beta, lam=lam, iterations=iterations)
        assert _loop(gamma, cfg) == "dense loop"
        plan = robust_solve(gamma, cfg)
        assert plan.pi.tobytes() == pi.tobytes()
        assert _bits(plan.value) == _bits(value)
        residuals = marginal_residuals(pi, m, n)
        assert _bits(plan.row_residual_l1, plan.col_residual_l1) == _bits(*residuals)


def _block_counts():
    """A patch of ``solver._block_runner`` and the list of the k of each dense loop."""
    counts, runner = [], solver._block_runner

    def recording(k):
        counts.append(k)
        return runner(k)

    return mock.patch.object(solver, "_block_runner", recording), counts


def _two_blocks_from(entries):
    """Patches under which a dense loop of ``entries`` or more runs on two blocks."""
    return (mock.patch.object(solver, "_TWO_BLOCK_ENTRIES", entries),
            mock.patch.object(solver, "_usable_cpus", lambda: 2))


def _above_the_block_constant(beta=1.2, lam=2.0, iterations=3):
    """A 370 x 360 cost (133,200 entries, above 2**17) on which the dense loop runs."""
    m, n = 370, 360
    assert m * n >= solver._TWO_BLOCK_ENTRIES
    level = _certified_cost(beta_potential(beta), lam, m, n, iterations)
    gamma = np.random.default_rng(29).uniform(0.0, 0.6 * level, size=(m, n))
    gamma[:, ::3] += level
    assert _candidates(gamma, level) is None
    return gamma, SolverConfig(beta=beta, lam=lam, iterations=iterations)


class TestTwoBlocks:
    """The dense loop on two blocks and a helper thread gives the one-block plan."""

    @settings(max_examples=120, deadline=None)
    @given(dense_loop_instances())
    def test_bit_identical_to_dense_reference(self, instance):
        # With the entry constant at 0, every dense loop with two rows
        # and two columns runs on two blocks.
        beta, lam, iterations, gamma = instance
        m, n = gamma.shape
        event("m == 1 or n == 1" if min(m, n) == 1 else "odd m or n" if m % 2 or n % 2
              else "even m and n")
        pi, value = dense_robust_solve(gamma, beta, lam, iterations)
        recording, counts = _block_counts()
        constant, cpus = _two_blocks_from(0)
        with recording, constant, cpus:
            plan = robust_solve(gamma, SolverConfig(beta=beta, lam=lam, iterations=iterations))
        assert counts == [2 if min(m, n) >= 2 else 1]
        assert plan.pi.tobytes() == pi.tobytes()
        assert _bits(plan.value) == _bits(value)
        residuals = marginal_residuals(pi, m, n)
        assert _bits(plan.row_residual_l1, plan.col_residual_l1) == _bits(*residuals)

    def test_above_the_constant_matches_dense_reference(self):
        gamma, cfg = _above_the_block_constant()
        pi, value = dense_robust_solve(gamma, cfg.beta, cfg.lam, cfg.iterations)
        recording, counts = _block_counts()
        with recording:
            plan = robust_solve(gamma, cfg)
        assert counts == [2 if solver._usable_cpus() >= 2 else 1]
        assert plan.pi.tobytes() == pi.tobytes()
        assert _bits(plan.value) == _bits(value)

    @pytest.mark.parametrize("corner", [0, -1], ids=["this thread's block", "helper's block"])
    def test_overflow_in_either_block_raises_and_leaves_no_thread(self, corner):
        gamma = np.random.default_rng(12).uniform(0.0, 1.0, size=(40, 40))
        gamma[corner, corner] = -1e70
        threads = threading.active_count()
        constant, cpus = _two_blocks_from(0)
        with constant, cpus, warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflowed"):
                robust_solve(gamma, SolverConfig(beta=1.2, lam=1.0, iterations=3))
        assert threading.active_count() == threads

    def test_no_thread_is_left_after_a_solve(self):
        gamma, cfg = _above_the_block_constant()
        threads = threading.active_count()
        with _two_blocks_from(0)[1]:
            robust_solve(gamma, cfg)
        assert threading.active_count() == threads

    def test_one_usable_cpu_starts_no_thread(self):
        gamma, cfg = _above_the_block_constant()
        expected = robust_solve(gamma, cfg)
        started = mock.Mock(side_effect=AssertionError("a thread started"))
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True), \
                mock.patch.object(threading.Thread, "start", started):
            plan = robust_solve(gamma, cfg)
        assert not started.called
        assert plan.pi.tobytes() == expected.pi.tobytes()


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
        # 83% far entries, and rows of 300 with many active entries: on
        # this instance numpy's pairwise row sums give another plan, so
        # either loop summing a line pairwise fails here.
        rng = np.random.default_rng(5)
        gamma = rng.uniform(0.0, 20.0, size=(60, 300))
        gamma[:, 50:] += 1e4
        level = _certified_cost(beta_potential(1.2), 2.0, 60, 300, 12)
        assert _candidates(gamma, level) is not None
        pi, value = dense_robust_solve(gamma, 1.2, 2.0, 12)
        plan = robust_solve(gamma, SolverConfig(beta=1.2, lam=2.0, iterations=12))
        assert np.array_equal(plan.pi, pi)
        assert plan.value == value
        entries, costs = _dense_entries(gamma, beta_potential(1.2), 2.0, 12)
        assert np.array_equal(_densify(entries), pi)
        assert np.array_equal(costs, gamma.reshape(-1)[entries.index])
        assert np.count_nonzero(pi, axis=1).max() >= 10
        pairwise, _ = dense_robust_solve(gamma, 1.2, 2.0, 12, sums=np.sum)
        assert not np.array_equal(pairwise, pi)

    def test_single_column_matches_dense_reference(self):
        # m x 1 costs, a fifth of each near: both loops, one sum order.
        pot = beta_potential(1.2)
        for m in (120, 300, 1000):
            rng = np.random.default_rng(3)
            gamma = np.full((m, 1), 1e6)
            near = rng.choice(m, m // 5, replace=False)
            gamma[near, 0] = rng.uniform(0.0, 0.1, size=near.size)
            pi, value = dense_robust_solve(gamma, 1.2, 1.0, 6)
            cfg = SolverConfig(beta=1.2, lam=1.0, iterations=6)
            assert _loop(gamma, cfg) == "candidate loop"
            plan = robust_solve(gamma, cfg)
            assert np.array_equal(plan.pi, pi)
            assert plan.value == value
            residuals = marginal_residuals(pi, m, 1)
            assert _bits(plan.row_residual_l1, plan.col_residual_l1) == _bits(*residuals)
            assert np.array_equal(_densify(_dense_entries(gamma, pot, 1.0, 6)[0]), pi)
            pairwise, _ = dense_robust_solve(gamma, 1.2, 1.0, 6, sums=np.sum)
            assert not np.array_equal(pairwise, pi)

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
        assert np.count_nonzero(plan.entries.values) > 0
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
        assert (_candidates(lazy, level) is not None) == candidate
        assert plan.pi.tobytes() == expected.pi.tobytes()
        assert _bits(plan.value, plan.row_residual_l1, plan.col_residual_l1) == _bits(
            expected.value, expected.row_residual_l1, expected.col_residual_l1
        )

    def test_candidate_path_allocates_no_cost_matrix(self):
        # Six near targets: the candidates are 0.5% of the entries.  The
        # loop holds about 65 bytes per candidate at its peak and one
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
        assert _loop(cost, cfg) == "candidate loop"
        assert set(range(6, n)) <= set(flagged)
        assert peak < 2 * m * n


class TestCandidateWalk:
    """One row-block walk finds the candidates of dense and lazy costs alike."""

    @settings(max_examples=100, deadline=None)
    @given(
        point_cost_instances(),
        st.one_of(st.floats(0.0, 0.25), st.floats(0.0, 1.0)),
        st.booleans(),
    )
    def test_equals_the_whole_matrix_selection(self, instance, quantile, fortran):
        x, y, _, _ = instance
        gamma = sq_euclidean_cost(x, y)
        m, n = gamma.shape
        level = float(np.quantile(gamma, quantile))
        below = np.flatnonzero(gamma < level)
        few = below.size <= CANDIDATE_SHARE_MAX * gamma.size
        event("candidates" if few else "None")
        event("several blocks" if m > _BLOCK_ROWS else "one block")
        dense = np.asfortranarray(gamma) if fortran else gamma
        for cost in (dense, SqEuclideanCost(x, y)):
            found = _candidate_entries(cost, level)
            assert (found is not None) == few
            if few:
                index, costs = found
                assert index.tobytes() == below.tobytes()
                assert costs.tobytes() == gamma.reshape(-1)[below].tobytes()


    def test_exactly_a_fifth_is_few(self):
        gamma = np.ones((10, 10))
        gamma.reshape(-1)[::5] = 0.0
        assert _candidate_entries(gamma, 0.5)[0].size == 20
        gamma[0, 1] = 0.0
        assert _candidate_entries(gamma, 0.5) is None


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
        event(_loop(cost, cfg))
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
        event(_loop(cost, cfg))
        event("lazy cost" if lazy else "dense cost")
        assert first.pi.tobytes() == second.pi.tobytes()
        assert _bits(first.value, first.row_residual_l1, first.col_residual_l1) == _bits(
            second.value, second.row_residual_l1, second.col_residual_l1
        )


def _sequential_sums(x):
    """The rows of ``x``, each summed entry after entry from +0.0, by ``cumsum``."""
    return np.cumsum(np.hstack([np.zeros((x.shape[0], 1)), x]), axis=1)[:, -1]


@st.composite
def diagnostic_instances(draw):
    """A plan and a cost for the summation rule of the diagnostics.

    m x 1, 1 x n and larger shapes, C- or F-ordered; all-zero rows;
    exact zeros of both signs in the plan and the cost; plan magnitudes
    over 16 decades and costs of both signs.
    """
    m = draw(st.one_of(st.just(1), st.integers(2, 9), st.integers(10, 80)))
    n = draw(st.one_of(st.just(1), st.integers(2, 9), st.integers(10, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pi = 10.0 ** rng.uniform(-8.0, 8.0, size=(m, n))
    pi[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))] = 0.0
    pi[rng.random(m) < draw(st.floats(0.0, 0.5))] = 0.0
    pi[(pi == 0.0) & (rng.random((m, n)) < 0.5)] = -0.0
    gamma = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, n))
    gamma[rng.random((m, n)) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):
        pi = np.asfortranarray(pi)
    if draw(st.booleans()):
        gamma = np.asfortranarray(gamma)
    return pi, gamma


class TestSummationRule:
    """Every reported sum adds a line's entries one after another in row-major order."""

    @settings(max_examples=200, deadline=None)
    @given(diagnostic_instances())
    def test_dense_and_entries_follow_the_rule(self, instance):
        pi, gamma = instance
        m, n = pi.shape
        value = float(np.sum(_sequential_sums(pi * gamma)))
        residuals = (
            float(np.abs(_sequential_sums(pi) - 1.0 / m).sum()),
            float(np.abs(_sequential_sums(pi.T) - 1.0 / n).sum()),
        )
        index = np.flatnonzero(pi)
        entries = PlanEntries((m, n), index, pi.reshape(-1)[index])
        for plan in (pi, entries):
            assert _bits(transport_value(plan, gamma)) == _bits(value)
            assert _bits(*marginal_residuals(plan, m, n)) == _bits(*residuals)

    @settings(max_examples=200, deadline=None)
    @given(diagnostic_instances(), st.integers(0, 2**32 - 1))
    def test_dense_column_sums_add_row_after_row(self, instance, seed):
        # Entries of both signs cancel, so a column summed in any other
        # order shows: numpy's sum(axis=0) of a C-ordered plan with two or
        # more columns adds row after row, as the cumsum form does.
        pi, _ = instance
        m, n = pi.shape
        pi *= np.where(np.random.default_rng(seed).random((m, n)) < 0.5, -1.0, 1.0)
        c_ordered = n > 1 and pi.flags.c_contiguous
        event("m x 1" if n == 1 else "C-ordered" if c_ordered else "F-ordered")
        columns = _sequential_sums(pi.T)
        if c_ordered:
            assert np.array_equal(pi.sum(axis=0), columns)
        residuals = (
            float(np.abs(_sequential_sums(pi) - 1.0 / m).sum()),
            float(np.abs(columns - 1.0 / n).sum()),
        )
        assert _bits(*marginal_residuals(pi, m, n)) == _bits(*residuals)

    def test_dense_diagnostics_allocate_no_dense_matrix(self):
        # np.sum(pi * gamma) alone would allocate 8 MB here.
        rng = np.random.default_rng(13)
        pi, gamma = rng.random((1000, 1000)), rng.random((1000, 1000))
        tracemalloc.start()
        try:
            transport_value(pi, gamma)
            marginal_residuals(pi, 1000, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


@st.composite
def dense_loop_instances(draw):
    """Random (cost, lam, tol, max_iter) for offset-kernel Sinkhorn."""
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
    @given(dense_loop_instances())
    def test_same_iterations_and_bit_identical_plan(self, instance):
        gamma, lam, tol, max_iter = instance
        pi, iterations, converged = dense_sinkhorn(gamma, lam, tol, max_iter)
        plan = sinkhorn_solve(gamma, lam, tol=tol, max_iter=max_iter)
        assert plan.iterations_run == iterations
        assert plan.converged == converged
        assert np.array_equal(plan.pi, pi)


@st.composite
def sinkhorn_instances(draw):
    """Random (cost, lam): ordinary costs, or costs whose plain kernel underflows.

    A cost of at most 5, on half the draws plus constants on whole rows
    and columns: the constants leave the plan unchanged, and at least one
    of them, at 746*lam or more, makes its line of the plain kernel
    exp(-cost/lam) all zero.
    """
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = draw(st.sampled_from([0.2, 0.5, 1.0]))
    gamma = rng.uniform(0.0, draw(st.floats(0.0, 5.0)), size=(m, n))
    if draw(st.booleans()):
        gamma = np.round(gamma, 1)
    if not draw(st.booleans()):
        return gamma, lam
    rows = rng.choice([0.0, 1.0], m) * rng.uniform(746.0, 2000.0, m) * lam
    cols = rng.choice([0.0, 1.0], n) * rng.uniform(746.0, 2000.0, n) * lam
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = 746.0 * lam
    else:
        cols[draw(st.integers(0, n - 1))] = 746.0 * lam
    return gamma + rows[:, None] + cols[None, :], lam


class TestOffsetKernel:
    """The offset kernel against the log-space loop, on ordinary costs and on
    costs the plain kernel cannot take.

    At tol 1e-12 the two agree to 1e-9 in value and 1e-10 in every plan
    entry (measured: at most 8.5e-13 and 7.3e-13 over 1,495 instances of
    the strategy that both converged within 2,000 iterations).  Their
    iteration counts move because the offset changes the starting
    scaling and the stopping residual differs: equal in 68% of those
    instances, one fewer in 23%, and between 30 fewer and 104 more in all.
    """

    @settings(max_examples=100, deadline=None)
    @given(sinkhorn_instances())
    def test_matches_log_space_reference(self, instance):
        gamma, lam = instance
        kernel = np.exp(-gamma / lam)
        underflows = np.any(kernel.sum(axis=1) == 0.0) or np.any(kernel.sum(axis=0) == 0.0)
        plan = sinkhorn_solve(gamma, lam, tol=1e-12, max_iter=2000)
        pi, iterations, converged = dense_sinkhorn_log(gamma, lam, 1e-12, 2000)
        # Rarely neither loop reaches 1e-12 within the cap.
        assume(plan.converged and converged)
        event(f"plain kernel underflows: {underflows}")
        event(f"iterations moved by {plan.iterations_run - iterations:+d}")
        assert plan.value == pytest.approx(transport_value(pi, gamma), rel=1e-9)
        np.testing.assert_allclose(plan.pi, pi, rtol=0, atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.floats(-300.0, 300.0),
        st.floats(0.0, 8.0),
        st.floats(-300.0, 300.0),
        st.booleans(),
    )
    def test_every_line_has_an_exact_one(self, m, n, seed, scale, spread, lam_exp, ties):
        # Entries of many magnitudes, where a sum rounds unless formed as in the proof.
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(-1.0, 1.0, size=(m, n))
        if ties:
            gamma = np.round(gamma, 1)
        gamma *= 10.0 ** (scale + rng.uniform(-spread, spread, size=(m, n)))
        lam = 10.0**lam_exp
        assume(math.isfinite((float(gamma.max()) - float(gamma.min())) / lam))
        kernels = []

        def recorded(*args):
            u_v_kv = _restart(*args)
            kernels.append((args[-1].copy(), u_v_kv[2]))
            return u_v_kv

        with mock.patch.object(solver, "_restart", recorded):
            sinkhorn_solve(gamma, lam, max_iter=1)
        kernel, kv = kernels[0]
        assert np.all(kernel.max(axis=1) == 1.0)
        assert np.all(kernel.max(axis=0) == 1.0)
        assert np.all(kv >= 1.0)

    @pytest.mark.parametrize(
        "gamma, lam",
        [
            # The plain kernel has a zero line; the scalings are absorbed
            # once, and the loop takes 482 iterations.
            ([[3.0, 126.0, 48.0], [253.0, 234.0, 250.0]], 0.1),
            # The plain kernel has no zero line, but its scalings overflow
            # after about 1,700 iterations; the loop absorbs four times and
            # takes 1,362 iterations (3,115 when it started on the plain
            # kernel and restarted on the offsets) against 1,363 for the
            # log-space loop.
            ([[0.0, 120.0, 45.0], [20.0, 0.0, 0.0]], 0.05),
        ],
    )
    def test_absorbs_and_matches_log_space_reference(self, gamma, lam):
        gamma = np.array(gamma)
        with mock.patch.object(solver, "_restart", side_effect=_restart) as builds:
            plan = sinkhorn_solve(gamma, lam, tol=1e-12, max_iter=5000)
        # The first kernel and at least one absorption.
        assert builds.call_count >= 2
        assert plan.converged
        assert plan.iterations_run <= 1400
        pi, _, converged = dense_sinkhorn_log(gamma, lam, 1e-12, 5000)
        assert converged
        assert plan.value == pytest.approx(transport_value(pi, gamma), rel=1e-9)
        np.testing.assert_allclose(plan.pi, pi, rtol=0, atol=1e-10)
