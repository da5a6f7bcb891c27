"""Dual-coordinate projection steps for the alternating scaling solver.

The solver cycles projections onto three constraint sets: the nonnegative
orthant (a dual clamp), the row-sum set (rows sum to 1/m), and the
column-sum set (columns sum to 1/n).  Row and column corrections are
single Newton-Raphson steps on the per-row / per-column Lagrange
multipliers, truncated from below so that no plan entry can overshoot its
marginal cap (1/m after a row step, 1/n after a column step).

Operations are pure: they read their inputs and return fresh arrays.
Row subproblems are independent of one another, as are column
subproblems, so vectorizing over rows/columns is safe.
"""

import numpy as np

from .potentials import Potential, phi_prime, psi_pair

# A Newton denominator below this is treated as zero: the row/column is
# entirely clamped and its decrement is pinned to the truncation lower
# bound (the value an infinite Newton step would be truncated to), which
# re-admits mass at the bounded per-iteration rate the budget accounts for.
EPS_DENOMINATOR = 1e-12


def clamp_dual(theta_tilde, pot: Potential):
    """Project onto the nonnegative orthant in dual coordinates.

    Element-wise maximum with ``phi_prime(0)`` (the dual image of primal
    zero).  Identity for Shannon, whose bound is ``-inf``.  Idempotent.
    """
    return np.maximum(np.asarray(theta_tilde, dtype=float), pot.clamp_bound)


def row_newton_decrement(theta_star, pot: Potential, m: int | None = None):
    """Single Newton step for the row-sum multipliers.

    ``tau_i = (sum_j psi'(theta*_ij) - 1/m) / (sum_j psi''(theta*_ij))``.

    A fully clamped row has a zero denominator (the conjugate curvature
    vanishes at the boundary) and a negative numerator, so the raw Newton
    step diverges to -inf; such rows are guarded by pinning the decrement
    directly to the truncation lower bound ``max_j theta*_ij -
    phi_prime(1/m)``, the exact value the divergent step would be
    truncated to.  The guard keeps the decrements finite while preserving
    the bounded per-iteration re-admission rate the iteration budget is
    derived from.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if m is None:
        m = theta_star.shape[0]
    ps, pss = psi_pair(theta_star, pot)
    num = ps.sum(axis=1) - 1.0 / m
    den = pss.sum(axis=1)
    safe = den >= EPS_DENOMINATOR
    bound = theta_star.max(axis=1) - phi_prime(1.0 / m, pot)
    tau = np.where(safe, np.divide(num, den, out=np.zeros_like(num), where=safe), bound)
    return tau


def truncate_row_decrement(tau, theta_star, pot: Potential, m: int | None = None):
    """Lower-bound each row decrement so no post-step entry exceeds the row cap.

    Raising ``tau_i`` to ``max_j theta*_ij - phi_prime(1/m)`` guarantees
    every updated dual entry in row i is at most ``phi_prime(1/m)``, i.e.
    every plan entry is at most 1/m.  Uses ``theta_star`` as it stands
    when the row step begins.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if m is None:
        m = theta_star.shape[0]
    theta_hat = theta_star.max(axis=1)
    return np.maximum(np.asarray(tau, dtype=float), theta_hat - phi_prime(1.0 / m, pot))


def apply_row(theta_tilde, tau):
    """Subtract the row decrements: ``theta_ij - tau_i``.  Caller re-clamps."""
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    return theta_tilde - np.asarray(tau, dtype=float)[:, None]


def col_newton_decrement(theta_star, pot: Potential, n: int | None = None):
    """Column mirror of :func:`row_newton_decrement` with target 1/n."""
    theta_star = np.asarray(theta_star, dtype=float)
    if n is None:
        n = theta_star.shape[1]
    ps, pss = psi_pair(theta_star, pot)
    num = ps.sum(axis=0) - 1.0 / n
    den = pss.sum(axis=0)
    safe = den >= EPS_DENOMINATOR
    bound = theta_star.max(axis=0) - phi_prime(1.0 / n, pot)
    sigma = np.where(
        safe, np.divide(num, den, out=np.zeros_like(num), where=safe), bound
    )
    return sigma


def truncate_col_decrement(sigma, theta_star, pot: Potential, n: int | None = None):
    """Column mirror of :func:`truncate_row_decrement` with cap ``phi_prime(1/n)``."""
    theta_star = np.asarray(theta_star, dtype=float)
    if n is None:
        n = theta_star.shape[1]
    theta_hat = theta_star.max(axis=0)
    return np.maximum(
        np.asarray(sigma, dtype=float), theta_hat - phi_prime(1.0 / n, pot)
    )


def apply_col(theta_tilde, sigma):
    """Subtract the column decrements: ``theta_ij - sigma_j``.  Caller re-clamps."""
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    return theta_tilde - np.asarray(sigma, dtype=float)[None, :]
