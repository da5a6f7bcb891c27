"""Dense references for the beta conjugate, the robust loop and Sinkhorn.

The package raises the conjugate power only on dual entries off the
domain boundary, keeps one implicitly clamped dual, and on mostly
clamped problems iterates only the entries that can become active.
These helpers evaluate the same arithmetic the plain way, a power on
every entry of the full matrix, a clamped copy of the dual and a fresh
array per step, so tests can require bit-identical results from the
package.  The robust loop's line sums add a line's entries one after
another, as the package's do (:func:`sequential_sums`).  The
Sinkhorn reference forms the plan every iteration to test convergence,
where the package tests the marginals of the scaling vectors.
"""

import numpy as np

from betaot import beta_potential, marginal_residuals, phi_prime
from betaot.projections import EPS_DENOMINATOR, apply_col, apply_row, clamp_dual
from betaot.solver import _check_lambda, _validate_cost


def init_dual(cost, lam: float) -> np.ndarray:
    """Dual image of the unconstrained regularized optimum: ``-cost / lam``."""
    _check_lambda(lam)
    gamma = _validate_cost(cost)
    return -gamma / lam


def dense_base(t, pot):
    """``max((beta-1)*t + 1, 0)`` on every entry, pinned to 0 on the boundary."""
    base = np.maximum((pot.beta - 1.0) * t + 1.0, 0.0)
    return np.where(t == pot.domain_lower_dual, 0.0, base)


def dense_psi_prime(t, pot):
    return dense_base(t, pot) ** (1.0 / (pot.beta - 1.0))


def dense_psi_second(t, pot):
    base = dense_base(t, pot)
    with np.errstate(divide="ignore"):
        powered = np.power(base, (2.0 - pot.beta) / (pot.beta - 1.0))
    return np.where(base > 0.0, powered, 0.0)


def dense_psi_pair(t, pot):
    base = dense_base(t, pot)
    ps = base ** (1.0 / (pot.beta - 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        pss = np.where(base > 0.0, ps / base, 0.0)
    return ps, pss


def sequential_sums(x, axis):
    """Sums along ``axis`` that add the entries one after another."""
    return np.take(np.cumsum(x, axis=axis), -1, axis=axis)


def _dense_decrement(theta_star, pot, axis, size, sums=sequential_sums):
    """Truncated single Newton step along ``axis`` (1: rows, 0: columns).

    ``sums(x, axis)`` forms the line sums; ``np.sum`` gives numpy's
    pairwise order instead of the package's sequential one.
    """
    ps, pss = dense_psi_pair(theta_star, pot)
    num = sums(ps, axis=axis) - 1.0 / size
    den = sums(pss, axis=axis)
    safe = den >= EPS_DENOMINATOR
    lower = theta_star.max(axis=axis) - phi_prime(1.0 / size, pot)
    step = np.where(safe, np.divide(num, den, out=np.zeros_like(num), where=safe), lower)
    return np.maximum(step, lower)


def dense_robust_duals(gamma, beta, lam, iterations, sums=sequential_sums):
    """Yield the clamped dual at the start and after each of the 2T half-steps."""
    pot = beta_potential(beta)
    m, n = gamma.shape
    # C order, so that ``sums=np.sum`` reduces a row as numpy sums a
    # C-ordered matrix.
    theta_tilde = np.ascontiguousarray(-gamma / lam)
    theta_star = clamp_dual(theta_tilde, pot)
    yield theta_star
    for _ in range(iterations):
        theta_tilde = apply_row(theta_tilde, _dense_decrement(theta_star, pot, 1, m, sums))
        theta_star = clamp_dual(theta_tilde, pot)
        yield theta_star
        theta_tilde = apply_col(theta_tilde, _dense_decrement(theta_star, pot, 0, n, sums))
        theta_star = clamp_dual(theta_tilde, pot)
        yield theta_star


def dense_robust_solve(gamma, beta, lam, iterations, sums=sequential_sums):
    """Plan and value of ``iterations`` full robust iterations on ``gamma``."""
    for theta_star in dense_robust_duals(gamma, beta, lam, iterations, sums):
        pass
    pi = dense_psi_prime(theta_star, beta_potential(beta))
    return pi, float(np.sum(pi * gamma))


def dense_sinkhorn(gamma, lam, tol, max_iter):
    """Plan, iteration count and convergence flag of kernel-space Sinkhorn."""
    m, n = gamma.shape
    kernel = np.exp(-gamma / lam)
    r = 1.0 / m
    c = 1.0 / n
    v = np.ones(n)
    u = np.ones(m)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        u = r / (kernel @ v)
        v = c / (kernel.T @ u)
        pi = u[:, None] * kernel * v[None, :]
        row_res, col_res = marginal_residuals(pi, m, n)
        if row_res + col_res <= tol:
            converged = True
            break
    pi = u[:, None] * kernel * v[None, :]
    return pi, iterations, converged
