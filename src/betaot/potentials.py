"""Regularizer generators, their derivatives, and Bregman divergences.

Three separable generators are supported: the beta power potential with
``beta > 1``, the Boltzmann-Shannon entropy, and the squared Euclidean
penalty ``(p - 1)^2 / 2``.  For each one this module evaluates the
generator ``phi``, its derivative ``phi_prime``, the derivative and
second derivative of the Fenchel conjugate (``psi_prime``, ``psi_second``),
and the pointwise Bregman divergence.

The beta potential is the interesting case: its conjugate is only defined
on the half line ``(1/(1-beta), inf)``.  Evaluation AT the lower boundary
is extended continuously with ``psi_prime = 0`` and, by convention,
``psi_second = 0`` (the exact limit for beta in (1, 2)).  Dual iterates
clamped to the boundary therefore map to exactly zero plan entries and
contribute nothing to Newton denominators; the zero-mass guarantee of the
truncated solver relies on this being bit-exact, so the boundary case is
handled by explicit comparison rather than by arithmetic that may round.

All functions accept scalars or numpy arrays and are pure; they are safe
to call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

BETA = "beta"
SHANNON = "shannon"
SQ_EUCLIDEAN = "sq_euclidean"


@dataclass(frozen=True)
class Potential:
    """A regularizer generator bundle.

    Attributes
    ----------
    kind : str
        One of ``"beta"``, ``"shannon"``, ``"sq_euclidean"``.
    beta : float or None
        The exponent for the beta kind; None otherwise.
    domain_lower_dual : float
        Infimum of the conjugate domain: ``1/(1-beta)`` for the beta kind,
        ``-inf`` for the two cofinite kinds.
    clamp_bound : float
        ``phi_prime(0)``, the dual image of primal zero.  Element-wise
        maximum with this value is the dual form of projecting a plan onto
        the nonnegative orthant.  Coincides with ``domain_lower_dual`` for
        the beta kind; equals ``-1`` for squared Euclidean and ``-inf``
        for Shannon.
    """

    kind: str
    beta: float | None = None
    domain_lower_dual: float = -math.inf
    clamp_bound: float = -math.inf

    @property
    def is_cofinite(self) -> bool:
        """True when the conjugate domain is the whole real line."""
        return self.kind != BETA


def beta_potential(beta: float) -> Potential:
    """Build the beta power potential ``(p^beta - beta*p + beta - 1) / (beta*(beta-1))``.

    Requires ``beta > 1`` strictly; the conjugate domain is then
    ``(1/(1-beta), inf)``.
    """
    beta = float(beta)
    if not beta > 1.0:
        raise DomainError(f"beta potential requires beta > 1, got {beta}")
    bound = 1.0 / (1.0 - beta)
    return Potential(kind=BETA, beta=beta, domain_lower_dual=bound, clamp_bound=bound)


def shannon() -> Potential:
    """Build the Boltzmann-Shannon entropy generator ``p*log(p) - p + 1``."""
    return Potential(kind=SHANNON)


def squared_euclidean() -> Potential:
    """Build the squared Euclidean generator ``(p - 1)^2 / 2``."""
    return Potential(kind=SQ_EUCLIDEAN, clamp_bound=-1.0)


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _scalar_or_array(out, template):
    if np.ndim(template) == 0:
        return float(out)
    return out


def phi(p, pot: Potential):
    """Evaluate the generator.

    ``phi(1) = 0`` for every kind.  Beta and Shannon require ``p >= 0``;
    squared Euclidean accepts any real.
    """
    p_arr = _as_float_array(p)
    if pot.kind == BETA:
        if np.any(p_arr < 0.0):
            raise DomainError("beta generator requires p >= 0")
        b = pot.beta
        out = (p_arr**b - b * p_arr + b - 1.0) / (b * (b - 1.0))
    elif pot.kind == SHANNON:
        if np.any(p_arr < 0.0):
            raise DomainError("Shannon generator requires p >= 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(p_arr > 0.0, p_arr * np.log(p_arr) - p_arr + 1.0, 1.0)
    else:
        out = 0.5 * (p_arr - 1.0) ** 2
    return _scalar_or_array(out, p)


def phi_prime(p, pot: Potential):
    """Evaluate the generator derivative (primal-to-dual map).

    Strictly increasing with ``phi_prime(1) = 0``.  For Shannon,
    ``phi_prime(0)`` is the documented ``-inf`` sentinel, not an error.
    """
    p_arr = _as_float_array(p)
    if pot.kind == BETA:
        if np.any(p_arr < 0.0):
            raise DomainError("beta generator requires p >= 0")
        bm1 = pot.beta - 1.0
        out = (p_arr**bm1 - 1.0) / bm1
    elif pot.kind == SHANNON:
        if np.any(p_arr < 0.0):
            raise DomainError("Shannon generator requires p >= 0")
        with np.errstate(divide="ignore"):
            out = np.log(p_arr)
    else:
        out = p_arr - 1.0
    return _scalar_or_array(out, p)


def _beta_active(t_arr, pot: Potential):
    """Flat indices of the entries off the conjugate boundary, and a fresh copy of them.

    Entries exactly on the boundary map to exactly zero in every
    derivative, so callers raise a power only at the returned indices (see
    :func:`_dense`), bit-identical to evaluating the whole array.  The
    indices are None when no entry is on the boundary.  Raises below the
    conjugate domain.
    """
    lo = pot.domain_lower_dual
    off = t_arr != lo
    active = None if off.all() else np.flatnonzero(off)
    t_active = t_arr.flatten() if active is None else np.take(t_arr, active)
    if np.any(t_active < lo):
        raise DomainError(
            f"conjugate derivative undefined below {lo} for beta={pot.beta}"
        )
    return active, t_active


def _base_inplace(t, pot: Potential):
    """``max((beta-1)*t + 1, 0)`` over ``t``, 0 where ``t`` just above the bound rounds."""
    return np.maximum(np.add(np.multiply(t, pot.beta - 1.0, out=t), 1.0, out=t), 0.0, out=t)


def _psi_pair_inplace(t, pot: Potential):
    """psi' and psi'/base (0 where psi' is) of a fresh ``t`` above the bound, unchecked."""
    base = _base_inplace(t, pot)
    powered = base ** (1.0 / (pot.beta - 1.0))
    with np.errstate(invalid="ignore"):
        np.divide(powered, base, out=base)
    base[powered == 0.0] = 0.0
    return powered, base


def _dense(values, active, shape):
    """``values`` at the ``active`` flat indices, exact zeros elsewhere."""
    if active is None:
        return values.reshape(shape)
    out = np.zeros(shape)
    np.put(out, active, values)
    return out


def psi_prime(t, pot: Potential):
    """Evaluate the conjugate derivative (dual-to-primal map).

    Inverse of ``phi_prime`` strictly inside the conjugate domain.  For
    the beta kind the domain is ``[1/(1-beta), inf)`` with the boundary
    mapped to exactly 0.
    """
    t_arr = _as_float_array(t)
    if pot.kind == BETA:
        active, t_active = _beta_active(t_arr, pot)
        powered = _base_inplace(t_active, pot) ** (1.0 / (pot.beta - 1.0))
        out = _dense(powered, active, t_arr.shape)
    elif pot.kind == SHANNON:
        out = np.exp(t_arr)
    else:
        out = t_arr + 1.0
    return _scalar_or_array(out, t)


def psi_second(t, pot: Potential):
    """Evaluate the conjugate second derivative (Newton denominator term).

    Strictly positive inside the conjugate domain.  For the beta kind the
    boundary value is 0: the exact limit when ``beta < 2`` and a
    convention when ``beta >= 2``, so clamped dual entries never
    contribute to Newton denominators.
    """
    t_arr = _as_float_array(t)
    if pot.kind == BETA:
        active, t_active = _beta_active(t_arr, pot)
        base = _base_inplace(t_active, pot)
        exponent = (2.0 - pot.beta) / (pot.beta - 1.0)
        with np.errstate(divide="ignore"):
            powered = np.power(base, exponent)
        out = _dense(np.where(base > 0.0, powered, 0.0), active, t_arr.shape)
    elif pot.kind == SHANNON:
        out = np.exp(t_arr)
    else:
        out = np.ones_like(t_arr)
    return _scalar_or_array(out, t)


def psi_pair(t_arr: np.ndarray, pot: Potential):
    """Evaluate ``(psi_prime, psi_second)`` together on an array.

    Shares the base computation between the two derivatives (for the beta
    kind, ``psi_second = psi_prime / base`` exactly), which matters inside
    solver loops that need both every iteration.  For the beta kind the
    power is raised only on entries off the boundary; the outputs keep the
    input's shape, with exact zeros on the boundary, so row and column
    sums over them reduce in the same order as a full evaluation.  The
    robust solver calls its arithmetic, :func:`_psi_pair_inplace`, directly.
    """
    if pot.kind == BETA:
        t_arr = _as_float_array(t_arr)
        active, t_active = _beta_active(t_arr, pot)
        ps, pss = _psi_pair_inplace(t_active, pot)
        return _dense(ps, active, t_arr.shape), _dense(pss, active, t_arr.shape)
    if pot.kind == SHANNON:
        e = np.exp(t_arr)
        return e, e
    return t_arr + 1.0, np.ones_like(t_arr)


def bregman_div(p, q, pot: Potential):
    """Pointwise Bregman divergence between ``p`` and ``q``.

    Closed forms per kind:

    - beta: ``(p^b + (b-1) q^b - b p q^(b-1)) / (b (b-1))``
    - Shannon: ``p log(p/q) - p + q`` (requires ``q > 0``)
    - squared Euclidean: ``(p - q)^2 / 2``

    Nonnegative, zero exactly when the arguments coincide (up to
    floating-point cancellation of order 1e-16).
    """
    p_arr = _as_float_array(p)
    q_arr = _as_float_array(q)
    if pot.kind == BETA:
        if np.any(p_arr < 0.0) or np.any(q_arr < 0.0):
            raise DomainError("beta divergence requires p, q >= 0")
        b = pot.beta
        out = (p_arr**b + (b - 1.0) * q_arr**b - b * p_arr * q_arr ** (b - 1.0)) / (
            b * (b - 1.0)
        )
    elif pot.kind == SHANNON:
        if np.any(p_arr < 0.0):
            raise DomainError("KL divergence requires p >= 0")
        if np.any(q_arr <= 0.0):
            raise DomainError("KL divergence requires q > 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(p_arr > 0.0, p_arr * np.log(p_arr / q_arr), 0.0)
        out = logs - p_arr + q_arr
    else:
        out = 0.5 * (p_arr - q_arr) ** 2
    if np.ndim(p) == 0 and np.ndim(q) == 0:
        return float(out)
    return out
