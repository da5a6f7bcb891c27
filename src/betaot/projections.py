"""Dual-coordinate projection steps for the alternating scaling solver.

The solver cycles projections onto three constraint sets: the nonnegative
orthant (a dual clamp), the row-sum set (rows sum to 1/m), and the
column-sum set (columns sum to 1/n).  Row and column corrections are
single Newton-Raphson steps on the per-row / per-column Lagrange
multipliers, truncated from below so that no plan entry can overshoot its
marginal cap (1/m after a row step, 1/n after a column step).

Every truncated step comes from one function, :func:`truncated_step`,
which takes per line (row or column) the maximum of the clamped dual and
the sums of ``psi'`` and ``psi''``, summed sequentially: one entry after
another in row-major order, as ``np.bincount`` adds them.  The guarantee
rests on the truncation bound, never on that order.
:func:`solver.robust_solve` reduces its dual *before* the clamp: an
entry at or below ``clamp_bound`` counts as clamped, and the maximum
along a line is ``max(theta.max(axis), clamp_bound)``, which equals the
maximum of the clamped dual bit for bit, so it keeps no clamped copy of
its dual.  The row and column functions below are thin wrappers over the
same arithmetic, sequential sums included, for a clamped dual.  They and
:func:`clamp_dual` are not exported from ``betaot``; they stay here,
public, because the tests' dense reference loop is built from them and
the benchmark's per-layer spans (``perfbench/spans.py``) find them by
module and name, so removing or renaming one turns its metric absent.

Operations read their inputs and return fresh arrays.  Row subproblems
are independent of one another, as are column subproblems, so
vectorizing over rows/columns is safe.
"""

import numpy as np

from .errors import DomainError
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


def _quotient(ps_sum, pss_sum, size: int, fallback):
    num = ps_sum - 1.0 / size
    return np.divide(num, pss_sum, out=fallback, where=pss_sum >= EPS_DENOMINATOR)


def _truncation_bound(theta_star, pot: Potential, axis: int, size: int):
    """The line maxima of the clamped ``theta_star`` minus ``phi_prime(1/size)``."""
    return np.maximum(theta_star.max(axis=axis), pot.clamp_bound) - phi_prime(1.0 / size, pot)


def truncated_step(theta_hat, ps_sum, pss_sum, cap: float, size: int):
    """Truncated single Newton step from per-line reductions.

    ``theta_hat`` holds the maxima of the clamped dual along each line
    (never below ``clamp_bound``), ``ps_sum``/``pss_sum`` the sums of
    ``psi'``/``psi''`` along it, ``size`` is the marginal's count (target
    ``1/size``) and ``cap`` is ``phi_prime(1/size)``, which a caller can
    compute once per solve.  The maximum serves both as the guard for fully
    clamped lines and as the truncation lower bound, so every step is at
    least ``clamp_bound - cap``.  See :func:`row_newton_decrement` and
    :func:`truncate_row_decrement`.

    Raises :class:`DomainError` when a step is not finite: the conjugate
    overflowed on a dual entry far above the clamp bound, as a very
    negative cost gives.  After a finite step every entry of the line is
    at most ``phi_prime(1/size)``, so the steps are the only place where
    an overflow shows.
    """
    lower = theta_hat - cap
    step = _quotient(ps_sum, pss_sum, size, lower.copy())
    np.maximum(step, lower, out=step)
    if not np.isfinite(step).all():
        raise DomainError(
            "the beta conjugate overflowed: -cost/lambda is too large for "
            "some entry; rescale the cost or increase lambda"
        )
    return step


def _newton_decrement(theta_star, pot, axis, size):
    theta_star = np.asarray(theta_star, dtype=float)
    ps, pss = psi_pair(theta_star, pot)
    lower = _truncation_bound(theta_star, pot, axis, size)
    # Sequential line sums, as in the solver's loops.
    ps_sum, pss_sum = (np.cumsum(x, axis=axis).take(-1, axis=axis) for x in (ps, pss))
    return _quotient(ps_sum, pss_sum, size, lower)


def _truncate(tau, theta_star, pot, axis, size):
    theta_star = np.asarray(theta_star, dtype=float)
    lower = _truncation_bound(theta_star, pot, axis, size)
    return np.maximum(np.asarray(tau, dtype=float), lower)


def row_newton_decrement(theta_star, pot: Potential, m: int):
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


def truncate_row_decrement(tau, theta_star, pot: Potential, m: int):
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


def col_newton_decrement(theta_star, pot: Potential, n: int):
    """Column mirror of :func:`row_newton_decrement` with target 1/n."""
    return _newton_decrement(theta_star, pot, 0, n)


def truncate_col_decrement(sigma, theta_star, pot: Potential, n: int):
    """Column mirror of :func:`truncate_row_decrement` with cap ``phi_prime(1/n)``."""
    return _truncate(sigma, theta_star, pot, 0, n)


def apply_col(theta_tilde, sigma):
    """Subtract the column decrements: ``theta_ij - sigma_j``.  Caller re-clamps."""
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    return theta_tilde - np.asarray(sigma, dtype=float)[None, :]
