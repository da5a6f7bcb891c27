"""Dual-coordinate projection steps: clamps, Newton decrements, truncation.

The step tests run every truncated step twice: through the row and
column wrappers of ``betaot.projections`` and through the solver's own
half-step, as its dense loop takes it.
"""

import numpy as np
import pytest
from dense_reference import _dense_decrement
from hypothesis import given, settings
from hypothesis import strategies as st

from betaot import beta_potential, phi_prime, psi_prime, shannon, squared_euclidean
from betaot.projections import (
    apply_col,
    apply_row,
    clamp_dual,
    col_newton_decrement,
    row_newton_decrement,
    truncate_col_decrement,
    truncate_row_decrement,
)
from betaot.solver import _half_step


class TestClampDual:
    def test_clamps_below_the_bound(self):
        pot = beta_potential(1.2)
        out = clamp_dual(np.array([[-7.0]]), pot)
        assert out[0, 0] == pot.domain_lower_dual
        assert out[0, 0] == pytest.approx(-5.0, rel=1e-12)

    def test_leaves_values_above_the_bound(self):
        out = clamp_dual(np.array([[-3.0]]), beta_potential(1.2))
        assert out[0, 0] == -3.0

    def test_shannon_is_identity(self):
        x = np.array([[-1e6, 0.0], [3.0, -42.0]])
        np.testing.assert_array_equal(clamp_dual(x, shannon()), x)

    def test_squared_euclidean_clamps_at_minus_one(self):
        out = clamp_dual(np.array([[-2.0, 0.5]]), squared_euclidean())
        np.testing.assert_array_equal(out, [[-1.0, 0.5]])

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        pot = beta_potential(1.4)
        x = rng.uniform(-10, 2, size=(8, 5))
        once = clamp_dual(x, pot)
        np.testing.assert_array_equal(clamp_dual(once, pot), once)


class TestRowNewtonDecrement:
    def test_single_row_hand_value(self):
        # psi' sums to 2, target 1/m = 1, psi'' sums to 2 -> (2-1)/2
        tau = row_newton_decrement(np.array([[0.0, 0.0]]), beta_potential(2.0), m=1)
        np.testing.assert_allclose(tau, [0.5])

    def test_zero_numerator_gives_zero(self):
        # beta=2: psi'(theta) = theta + 1; choose a row already summing to 1/m
        pot = beta_potential(2.0)
        theta = np.array([[-0.75, -0.75], [0.0, 0.0]])
        tau = row_newton_decrement(theta, pot, m=2)
        assert tau[0] == pytest.approx(0.0, abs=1e-15)

    def test_fully_clamped_row_pins_to_truncation_bound(self):
        # Curvature vanishes on a fully clamped row, so the raw Newton step
        # diverges; the decrement is pinned to the bound the divergent step
        # would be truncated to, so mass re-admission stays rate-limited.
        pot = beta_potential(1.5)
        m, n = 3, 4
        theta_star = np.full((m, n), pot.domain_lower_dual)
        tau = row_newton_decrement(theta_star, pot, m)
        expected = pot.domain_lower_dual - phi_prime(1.0 / m, pot)
        np.testing.assert_allclose(tau, np.full(m, expected), rtol=1e-14)
        # equivalently -(1/(beta-1)) * (1/m)^(beta-1), derived by hand
        np.testing.assert_allclose(tau, -2.0 * (1.0 / 3.0) ** 0.5, rtol=1e-12)


class TestTruncation:
    def test_raises_tau_to_the_cap_bound(self):
        # theta_hat = 3, phi'(1/2) = -0.5 for beta=2 -> bound 3.5 dominates tau=1
        pot = beta_potential(2.0)
        theta_star = np.array([[3.0, -1.0]])
        tau = truncate_row_decrement(np.array([1.0]), theta_star, pot, m=2)
        np.testing.assert_allclose(tau, [3.5])

    def test_keeps_tau_when_already_above_bound(self):
        # theta_hat = 0, bound = 0 - (-0.5) = 0.5 < tau
        pot = beta_potential(2.0)
        theta_star = np.array([[0.0, -2.0]])
        tau = truncate_row_decrement(np.array([0.75]), theta_star, pot, m=2)
        np.testing.assert_allclose(tau, [0.75])

    def test_identity_when_bound_inactive(self):
        pot = beta_potential(1.5)
        theta_star = np.array([[-1.0, -1.5]])
        tau = np.array([10.0])
        out = truncate_row_decrement(tau, theta_star, pot, m=1)
        np.testing.assert_array_equal(out, tau)


class TestApply:
    def test_subtracts_rowwise(self):
        out = apply_row(np.zeros((2, 2)), np.array([0.75, 0.75]))
        np.testing.assert_array_equal(out, np.full((2, 2), -0.75))

    def test_zero_decrement_is_identity(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(apply_row(x, np.zeros(2)), x)

    def test_single_row(self):
        out = apply_row(np.array([[2.0, 3.0]]), np.array([1.0]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_column_apply(self):
        out = apply_col(np.zeros((2, 2)), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(out, [[-1.0, 1.0], [-1.0, 1.0]])


class TestColumnMirrors:
    def test_column_case_mirrors_row_example(self):
        sigma = col_newton_decrement(np.array([[0.0], [0.0]]), beta_potential(2.0), n=1)
        np.testing.assert_allclose(sigma, [0.5])

    def test_uniform_columns_already_feasible(self):
        # beta=2, psi'(theta)=theta+1: columns sum to 1/n = 0.5 at theta = -0.75
        pot = beta_potential(2.0)
        theta = np.full((2, 2), -0.75)
        sigma = col_newton_decrement(theta, pot, n=2)
        np.testing.assert_allclose(sigma, [0.0, 0.0], atol=1e-15)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(41)
        for b in (1.2, 1.7, 2.0):
            pot = beta_potential(b)
            theta = clamp_dual(rng.uniform(pot.domain_lower_dual - 1, 2, (6, 9)), pot)
            m, n = theta.shape
            tau = row_newton_decrement(theta, pot, m)
            sigma = col_newton_decrement(theta.T, pot, m)
            np.testing.assert_allclose(sigma, tau, atol=1e-12)
            tau_t = truncate_row_decrement(tau, theta, pot, m)
            sigma_t = truncate_col_decrement(sigma, theta.T, pot, m)
            np.testing.assert_allclose(sigma_t, tau_t, atol=1e-12)
            np.testing.assert_allclose(
                apply_col(theta.T, sigma_t), apply_row(theta, tau_t).T, atol=1e-12
            )


def wrapper_step(theta, pot, axis, size):
    """Newton step plus truncation along ``axis`` through the wrappers, on the clamped dual."""
    theta_star = clamp_dual(theta, pot)
    decrement, truncate = (
        (row_newton_decrement, truncate_row_decrement)
        if axis == 1
        else (col_newton_decrement, truncate_col_decrement)
    )
    return truncate(decrement(theta_star, pot, size), theta_star, pot, size)


def solver_step(theta, pot, axis, size):
    """The solver's half-step on the unclamped dual ``theta``, as its dense loop takes it."""
    flat = np.ascontiguousarray(theta, dtype=float).reshape(-1)
    active = np.flatnonzero(flat > pot.clamp_bound)
    lines = np.divmod(active, theta.shape[1])[1 - axis]
    theta_hat = np.maximum(theta.max(axis=axis), pot.clamp_bound)
    return _half_step(theta_hat, flat[active], lines, pot, phi_prime(1.0 / size, pot), size)


STEPS = (wrapper_step, solver_step)


class TestStepProperties:
    def test_cap_enforcement_after_full_row_step(self):
        """Post-step clamped entries <= phi'(1/m), so plan entries <= 1/m."""
        for step in STEPS:
            rng = np.random.default_rng(42)
            for _ in range(30):
                b = rng.uniform(1.1, 2.5)
                pot = beta_potential(b)
                m, n = rng.integers(2, 12, size=2)
                theta_tilde = rng.uniform(pot.domain_lower_dual - 3.0, 3.0, (m, n))
                tau = step(theta_tilde, pot, 1, m)
                theta_star_new = clamp_dual(apply_row(theta_tilde, tau), pot)
                assert np.all(theta_star_new <= phi_prime(1.0 / m, pot) + 1e-12)
                assert np.all(psi_prime(theta_star_new, pot) <= 1.0 / m + 1e-12)

    def test_cap_enforcement_after_full_col_step(self):
        for step in STEPS:
            rng = np.random.default_rng(43)
            for _ in range(30):
                b = rng.uniform(1.1, 2.5)
                pot = beta_potential(b)
                m, n = rng.integers(2, 12, size=2)
                theta_tilde = rng.uniform(pot.domain_lower_dual - 3.0, 3.0, (m, n))
                sigma = step(theta_tilde, pot, 0, n)
                theta_star_new = clamp_dual(apply_col(theta_tilde, sigma), pot)
                assert np.all(psi_prime(theta_star_new, pot) <= 1.0 / n + 1e-12)

    def test_single_step_exact_for_quadratic_generator(self):
        """Affine conjugate derivative: one untruncated step fixes row sums."""
        pot = beta_potential(2.0)
        for step in STEPS:
            rng = np.random.default_rng(44)
            for _ in range(20):
                m, n = rng.integers(2, 10, size=2)
                # plan entries near 1/(mn) keep the step clamp-free
                p = rng.uniform(0.9, 1.1, size=(m, n)) / (m * n)
                theta_tilde = phi_prime(p, pot)
                theta_star = clamp_dual(theta_tilde, pot)
                np.testing.assert_array_equal(theta_star, theta_tilde)
                tau = step(theta_tilde, pot, 1, m)
                # The truncation leaves the Newton step as it is.
                np.testing.assert_array_equal(tau, row_newton_decrement(theta_star, pot, m))
                updated = clamp_dual(apply_row(theta_tilde, tau), pot)
                rows = psi_prime(updated, pot).sum(axis=1)
                np.testing.assert_allclose(rows, 1.0 / m, atol=1e-12)


@st.composite
def clamped_duals(draw):
    """Random (pot, unclamped dual) with whole rows/columns and scattered entries clamped."""
    pot = beta_potential(draw(st.floats(1.05, 3.0)))
    m = draw(st.integers(1, 25))
    n = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = pot.domain_lower_dual
    theta = rng.uniform(lo, lo + draw(st.floats(1e-9, 10.0)), size=(m, n))
    theta[rng.random((m, n)) < draw(st.floats(0.0, 1.0))] -= rng.uniform(0.0, 3.0)
    theta[rng.random(m) < 0.2, :] = lo - 1.0
    theta[:, rng.random(n) < 0.2] = lo
    return pot, theta


class TestDecrementMatchesDenseStep:
    """Newton step plus truncation, bit for bit against the dense reference."""

    @pytest.mark.parametrize("axis", [1, 0], ids=["rows", "columns"])
    @settings(max_examples=150, deadline=None)
    @given(instance=clamped_duals())
    def test_matches_dense_step(self, axis, instance):
        pot, theta = instance
        size = theta.shape[1 - axis]
        expected = _dense_decrement(clamp_dual(theta, pot), pot, axis, size)
        for step in STEPS:
            assert np.array_equal(step(theta, pot, axis, size), expected), step.__name__
