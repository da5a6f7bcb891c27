"""Dense references for the beta conjugate, the robust loop, Sinkhorn and
the squared-Euclidean line shift.

The package's robust loops keep one implicitly clamped dual, raise the
conjugate power only on its entries above the bound, and on mostly
clamped problems iterate only the entries that can become active.
These helpers evaluate the same arithmetic the plain way, a power on
every entry of the full matrix with the boundary pinned to 0 by
comparison, a clamped copy of the dual and a fresh array per step, so
tests can require bit-identical results from the package.  The robust
loop's line sums add a line's entries one after another, as the
package's do (:func:`sequential_sums`).  The Sinkhorn references form
the plan every iteration to test convergence, where the package tests
the marginals of the scaling vectors; one scales the package's offset
kernel, the other evaluates each update in log space with log-sum-exp.
The shift that the squared-Euclidean NASA loop subtracts from a line
comes here from bisection, not a sort.
"""

import math

import numpy as np
from scipy.special import logsumexp

from betaot import beta_potential, phi_prime
from betaot.solver import EPS_DENOMINATOR, _check_lambda, _stop_residual, _validate_cost


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


def sequential_residual(pi):
    """The summed row and column L1 residuals, each line summed sequentially."""
    m, n = pi.shape
    rows = np.abs(sequential_sums(pi, axis=1) - 1.0 / m).sum()
    cols = np.abs(sequential_sums(pi, axis=0) - 1.0 / n).sum()
    return float(rows) + float(cols)


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
    theta_star = np.maximum(theta_tilde, pot.clamp_bound)
    yield theta_star
    for _ in range(iterations):
        theta_tilde = theta_tilde - _dense_decrement(theta_star, pot, 1, m, sums)[:, None]
        theta_star = np.maximum(theta_tilde, pot.clamp_bound)
        yield theta_star
        theta_tilde = theta_tilde - _dense_decrement(theta_star, pot, 0, n, sums)[None, :]
        theta_star = np.maximum(theta_tilde, pot.clamp_bound)
        yield theta_star


def dense_robust_solve(gamma, beta, lam, iterations, sums=sequential_sums):
    """Plan and value of ``iterations`` full robust iterations on ``gamma``.

    The value sums each row of plan x cost sequentially, then the row
    sums with numpy, as the package's diagnostics do.
    """
    for theta_star in dense_robust_duals(gamma, beta, lam, iterations, sums):
        pass
    pi = dense_psi_prime(theta_star, beta_potential(beta))
    return pi, float(np.sum(sequential_sums(pi * gamma, axis=1)))


def dense_sinkhorn(gamma, lam, tol, max_iter):
    """Plan, iteration count and convergence flag of offset-kernel Sinkhorn.

    The package's offsets, kernel and absorption rule, but a fresh kernel
    and fresh scalings per step, and the plan formed every iteration to
    test convergence.  The flag is whether the final plan's residuals,
    summed as the package reports them, are within ``tol``.
    """
    m, n = gamma.shape
    r = 1.0 / m
    c = 1.0 / n
    f = gamma.min(axis=1, keepdims=True)
    g = (gamma - f).min(axis=0)
    kernel = np.exp(((f - gamma) + g) / lam)
    u = np.ones(m)
    v = np.ones(n)
    for iterations in range(1, max_iter + 1):
        if max(u.max(), v.max(), 1 / u.min(), 1 / v.min()) > 1e50:
            f = f + lam * np.log(u)[:, None]
            g = g + lam * np.log(v)
            kernel = np.exp(((f - gamma) + g) / lam)
            u = np.ones(m)
            v = np.ones(n)
        u = r / (kernel @ v)
        v = c / (kernel.T @ u)
        pi = u[:, None] * kernel * v[None, :]
        if _stop_residual(pi, m, n) <= tol:
            break
    pi = u[:, None] * kernel * v[None, :]
    return pi, iterations, sequential_residual(pi) <= tol


def dense_sinkhorn_log(gamma, lam, tol, max_iter):
    """Plan, iteration count and convergence flag of log-space Sinkhorn.

    Potentials ``f``, ``g`` with ``pi = exp((f + g - cost)/lam)``, each
    update a log-sum-exp over the cost's rows or columns.
    """
    m, n = gamma.shape
    log_r = -math.log(m)
    log_c = -math.log(n)
    f = np.zeros(m)
    g = np.zeros(n)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        f = lam * (log_r - logsumexp((g[None, :] - gamma) / lam, axis=1))
        g = lam * (log_c - logsumexp((f[:, None] - gamma) / lam, axis=0))
        pi = np.exp((f[:, None] + g[None, :] - gamma) / lam)
        if _stop_residual(pi, m, n) <= tol:
            converged = True
            break
    pi = np.exp((f[:, None] + g[None, :] - gamma) / lam)
    return pi, iterations, converged


def bisect_shift(line, total):
    """The ``t`` with ``sum(max(line - t, 0)) = total``, by bisection.

    The sum falls as ``t`` rises, from at least ``total`` at ``max(line)
    - total`` to 0 at ``max(line)``; the bracket halves until its
    midpoint rounds to one of its ends.
    """
    line = np.asarray(line, dtype=float)
    lo, hi = line.max() - total, line.max()
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.maximum(line - mid, 0.0).sum() > total:
            lo = mid
        else:
            hi = mid
    return mid
