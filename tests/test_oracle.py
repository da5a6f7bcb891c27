"""Exact transport reference: assignment fast path, LP path, brute force."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from betaot import (
    NumericalUnderflowError,
    SizeError,
    exact_ot,
    exact_ot_bruteforce,
    sinkhorn_solve,
    transport_value,
)


class TestExamples:
    def test_antidiagonal_cost(self):
        sol = exact_ot(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sol.value == 0.0
        np.testing.assert_array_equal(sol.pi, 0.5 * np.eye(2))

    def test_tied_permutations(self):
        # both permutations cost 2.5 per the enumeration
        sol = exact_ot(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert sol.value == 2.5

    def test_one_by_one(self):
        sol = exact_ot(np.array([[4.2]]))
        assert sol.value == 4.2
        np.testing.assert_array_equal(sol.pi, [[1.0]])

    def test_size_cap(self):
        with pytest.raises(SizeError):
            exact_ot(np.zeros((1001, 1000)))

    def test_bruteforce_cap(self):
        with pytest.raises(SizeError):
            exact_ot_bruteforce(np.zeros((8, 8)))


class TestAssignmentAgainstEnumeration:
    def test_values_match_exactly_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            gamma = rng.uniform(0.0, 1.0, size=(n, n))
            assert exact_ot(gamma).value == exact_ot_bruteforce(gamma).value

    def test_bruteforce_tie_break_is_lexicographic(self):
        sol = exact_ot_bruteforce(np.zeros((3, 3)))
        np.testing.assert_array_equal(sol.pi, np.eye(3) / 3.0)


class TestPlanFeasibility:
    def test_square_plan_marginals(self):
        rng = np.random.default_rng(102)
        gamma = rng.uniform(0, 1, size=(9, 9))
        sol = exact_ot(gamma)
        np.testing.assert_allclose(sol.pi.sum(axis=1), 1.0 / 9, atol=1e-9)
        np.testing.assert_allclose(sol.pi.sum(axis=0), 1.0 / 9, atol=1e-9)
        assert sol.value == pytest.approx(transport_value(sol.pi, gamma), abs=1e-9)

    def test_rectangular_lp_path(self):
        rng = np.random.default_rng(103)
        gamma = rng.uniform(0.0, 1.0, size=(4, 7))
        sol = exact_ot(gamma)
        np.testing.assert_allclose(sol.pi.sum(axis=1), 1.0 / 4, atol=1e-9)
        np.testing.assert_allclose(sol.pi.sum(axis=0), 1.0 / 7, atol=1e-9)
        assert np.all(sol.pi >= -1e-12)
        assert sol.value == pytest.approx(transport_value(sol.pi, gamma), abs=1e-9)

    @pytest.mark.parametrize("power", [64, 665, 1024], ids=["1.7e19", "1.8e200", "1.7e308"])
    def test_large_costs_solve_as_the_cost_times_a_power_of_two(self, power):
        # The largest entry, 0.95, becomes about 1.7e19, 1.8e200 or 1.7e308.
        gamma = np.random.default_rng(106).uniform(0.0, 0.9, size=(5, 7))
        gamma[2, 3] = 0.95
        small, large = exact_ot(gamma), exact_ot(np.ldexp(gamma, power))
        assert large.pi.tobytes() == small.pi.tobytes()
        assert large.value == math.ldexp(small.value, power)

    @pytest.mark.parametrize("gamma", [
        np.random.default_rng(107).uniform(0.0, 1.0, size=(5, 7)) * 1e19,
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) * 1e20,
        np.zeros((4, 6)),
    ], ids=["random 1e19", "two rows 1e20", "all zero"])
    def test_large_and_zero_costs_solve(self, gamma):
        sol = exact_ot(gamma)
        assert sol.row_residual_l1 + sol.col_residual_l1 < 1e-9
        assert sol.value == pytest.approx(transport_value(sol.pi, gamma), rel=1e-9, abs=0.0)

    def test_rectangular_lp_constraints_are_sparse(self, monkeypatch):
        m, n = 3, 5
        captured = {}

        def stop_at_linprog(c, A_eq, **kwargs):
            captured["a_eq"] = A_eq
            raise StopIteration

        monkeypatch.setattr("scipy.optimize.linprog", stop_at_linprog)
        with pytest.raises(StopIteration):
            exact_ot(np.zeros((m, n)))
        dense = np.zeros((m + n, m * n))
        for i in range(m):
            for j in range(n):
                dense[i, i * n + j] = dense[m + j, i * n + j] = 1.0
        assert sparse.issparse(captured["a_eq"])
        np.testing.assert_array_equal(captured["a_eq"].toarray(), dense)

    def test_failed_lp_raises_a_typed_error(self, monkeypatch):
        # Forced, so the test does not depend on which costs a HiGHS release fails on.
        failed = SimpleNamespace(success=False, message="forced failure")
        monkeypatch.setattr("scipy.optimize.linprog", lambda *args, **kwargs: failed)
        with pytest.raises(NumericalUnderflowError, match="transport LP failed: forced failure"):
            exact_ot(np.zeros((2, 3)))

    def test_lower_bound_against_feasible_scaling_plans(self):
        rng = np.random.default_rng(104)
        for _ in range(10):
            gamma = rng.uniform(0.0, 2.0, size=(6, 6))
            exact = exact_ot(gamma).value
            feasible = sinkhorn_solve(gamma, 0.3, tol=1e-9)
            assert exact <= feasible.value + 1e-9
