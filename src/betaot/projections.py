"""Dual-coordinate projection steps for the alternating scaling solver.

The solver cycles projections onto three constraint sets: the nonnegative
orthant (a dual clamp), the row-sum set (rows sum to 1/m), and the
column-sum set (columns sum to 1/n).  Row and column corrections are
single Newton-Raphson steps on the per-row / per-column Lagrange
multipliers, truncated from below so that no plan entry can overshoot its
marginal cap (1/m after a row step, 1/n after a column step).

Rows and columns share one axis-generic step, :func:`truncated_decrement`
(``axis=1`` for rows, ``axis=0`` for columns).  It takes the conjugate
derivatives as dense matrices and the dual *before* its clamp: an entry
at or below ``clamp_bound`` counts as clamped, and the maximum along the
axis is ``max(theta.max(axis), clamp_bound)``, which equals the maximum
of the clamped dual bit for bit.  :func:`solver.robust_solve` therefore
keeps no clamped copy of its dual.  The row and column functions below
are thin wrappers over the same arithmetic for a clamped dual.

Operations read their inputs and return fresh arrays; only
:func:`newton_quotient` writes, into the ``fallback`` it returns.  Row
subproblems are independent of one another, as are column
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


def newton_quotient(ps, pss, axis: int, size: int, fallback):
    """``(sum psi' - 1/size) / sum psi''`` along ``axis``, else ``fallback``.

    Where the summed curvature is below :data:`EPS_DENOMINATOR` the entry
    of ``fallback`` is kept; ``fallback`` is overwritten and returned.
    """
    num = ps.sum(axis=axis) - 1.0 / size
    den = pss.sum(axis=axis)
    return np.divide(num, den, out=fallback, where=den >= EPS_DENOMINATOR)


def _truncation_bound(theta, pot: Potential, axis: int, size: int):
    """``max(theta.max(axis), clamp_bound) - phi_prime(1/size)``."""
    theta_hat = np.maximum(theta.max(axis=axis), pot.clamp_bound)
    return theta_hat - phi_prime(1.0 / size, pot)


def truncated_decrement(theta, ps, pss, pot: Potential, axis: int, size: int):
    """Truncated single Newton step along ``axis`` (1: rows, 0: columns).

    ``ps``/``pss`` are ``psi'``/``psi''`` of the clamped ``theta``; ``size``
    is the marginal's count (target ``1/size``).  The maximum along the
    axis is taken once and serves both as the guard for fully clamped
    lines and as the truncation lower bound.  See
    :func:`row_newton_decrement` and :func:`truncate_row_decrement`.
    """
    lower = _truncation_bound(theta, pot, axis, size)
    step = newton_quotient(ps, pss, axis, size, lower.copy())
    return np.maximum(step, lower, out=step)


def _dual_and_size(theta_star, size, axis):
    theta_star = np.asarray(theta_star, dtype=float)
    return theta_star, theta_star.shape[1 - axis] if size is None else size


def _newton_decrement(theta_star, pot, axis, size):
    theta_star, size = _dual_and_size(theta_star, size, axis)
    ps, pss = psi_pair(theta_star, pot)
    lower = _truncation_bound(theta_star, pot, axis, size)
    return newton_quotient(ps, pss, axis, size, lower)


def _truncate(tau, theta_star, pot, axis, size):
    theta_star, size = _dual_and_size(theta_star, size, axis)
    lower = _truncation_bound(theta_star, pot, axis, size)
    return np.maximum(np.asarray(tau, dtype=float), lower)


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
    return _newton_decrement(theta_star, pot, 1, m)


def truncate_row_decrement(tau, theta_star, pot: Potential, m: int | None = None):
    """Lower-bound each row decrement so no post-step entry exceeds the row cap.

    Raising ``tau_i`` to ``max_j theta*_ij - phi_prime(1/m)`` guarantees
    every updated dual entry in row i is at most ``phi_prime(1/m)``, i.e.
    every plan entry is at most 1/m.  Uses ``theta_star`` as it stands
    when the row step begins.
    """
    return _truncate(tau, theta_star, pot, 1, m)


def apply_row(theta_tilde, tau):
    """Subtract the row decrements: ``theta_ij - tau_i``.  Caller re-clamps."""
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    return theta_tilde - np.asarray(tau, dtype=float)[:, None]


def col_newton_decrement(theta_star, pot: Potential, n: int | None = None):
    """Column mirror of :func:`row_newton_decrement` with target 1/n."""
    return _newton_decrement(theta_star, pot, 0, n)


def truncate_col_decrement(sigma, theta_star, pot: Potential, n: int | None = None):
    """Column mirror of :func:`truncate_row_decrement` with cap ``phi_prime(1/n)``."""
    return _truncate(sigma, theta_star, pot, 0, n)


def apply_col(theta_tilde, sigma):
    """Subtract the column decrements: ``theta_ij - sigma_j``.  Caller re-clamps."""
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    return theta_tilde - np.asarray(sigma, dtype=float)[None, :]
