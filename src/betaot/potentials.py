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
truncated solver relies on this being bit-exact, so one rule, applied to
the whole array before any arithmetic, finds the boundary by explicit
comparison rather than by arithmetic that may round.

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

    Requires a finite ``beta > 1``; the conjugate domain is then
    ``(1/(1-beta), inf)``.
    """
    beta = float(beta)
    if not 1.0 < beta < math.inf:
        raise DomainError(f"beta potential requires a finite beta > 1, got {beta}")
    bound = 1.0 / (1.0 - beta)
    return Potential(kind=BETA, beta=beta, domain_lower_dual=bound, clamp_bound=bound)


def shannon() -> Potential:
    """Build the Boltzmann-Shannon entropy generator ``p*log(p) - p + 1``."""
    return Potential(kind=SHANNON)


def squared_euclidean() -> Potential:
    """Build the squared Euclidean generator ``(p - 1)^2 / 2``."""
    return Potential(kind=SQ_EUCLIDEAN, clamp_bound=-1.0)


def _scalar_or_array(out, template):
    if np.ndim(template) == 0:
        return float(out)
    return out


def phi(p, pot: Potential):
    """Evaluate the generator.

    ``phi(1) = 0`` for every kind.  Beta and Shannon require ``p >= 0``;
    squared Euclidean accepts any real.
    """
    p_arr = np.asarray(p, dtype=float)
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
    p_arr = np.asarray(p, dtype=float)
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


def _beta_dual(t_arr, pot: Potential):
    """The beta conjugate's boundary rule: a fresh copy of ``t``, the boundary at ``-inf``.

    :func:`_base_inplace` maps ``-inf`` to a base of exactly 0, so every
    derivative maps an entry on the boundary to exactly zero; the entry is
    found by comparison, never by arithmetic that may round.  Raises below
    the conjugate domain; NaN passes through.
    """
    lo = pot.domain_lower_dual
    if np.any(t_arr < lo):
        raise DomainError(
            f"conjugate derivative undefined below {lo} for beta={pot.beta}"
        )
    return np.where(t_arr == lo, -np.inf, t_arr)


def _base_inplace(t, pot: Potential):
    """``max((beta-1)*t + 1, 0)`` over ``t``, 0 where ``t`` just above the bound rounds."""
    return np.maximum(np.add(np.multiply(t, pot.beta - 1.0, out=t), 1.0, out=t), 0.0, out=t)


def _psi_prime_inplace(t, pot: Potential):
    """psi' of a fresh ``t`` above the bound or at ``-inf`` (the boundary), unchecked."""
    return _base_inplace(t, pot) ** (1.0 / (pot.beta - 1.0))


def _psi_pair_inplace(t, pot: Potential):
    """psi' and psi'/base (0 where psi' is) of ``t`` as in :func:`_psi_prime_inplace`."""
    base = _base_inplace(t, pot)
    powered = base ** (1.0 / (pot.beta - 1.0))
    with np.errstate(invalid="ignore"):
        np.divide(powered, base, out=base)
    base[powered == 0.0] = 0.0
    return powered, base


def psi_prime(t, pot: Potential):
    """Evaluate the conjugate derivative (dual-to-primal map).

    Inverse of ``phi_prime`` strictly inside the conjugate domain.  For
    the beta kind the domain is ``[1/(1-beta), inf)`` with the boundary
    mapped to exactly 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if pot.kind == BETA:
        out = _psi_prime_inplace(_beta_dual(t_arr, pot), pot)
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
    t_arr = np.asarray(t, dtype=float)
    if pot.kind == BETA:
        base = _base_inplace(_beta_dual(t_arr, pot), pot)
        exponent = (2.0 - pot.beta) / (pot.beta - 1.0)
        with np.errstate(divide="ignore"):
            powered = np.power(base, exponent)
        out = np.where(base > 0.0, powered, 0.0)
    elif pot.kind == SHANNON:
        out = np.exp(t_arr)
    else:
        out = np.ones_like(t_arr)
    return _scalar_or_array(out, t)


def psi_pair(t_arr: np.ndarray, pot: Potential):
    """Evaluate ``(psi_prime, psi_second)`` together on an array.

    Shares the base computation between the two derivatives (for the beta
    kind, ``psi_second = psi_prime / base`` exactly), which matters inside
    solver loops that need both every iteration.  For the beta kind both
    are exact zeros on the boundary (see :func:`_beta_dual`).  The robust
    solver calls the arithmetic, :func:`_psi_pair_inplace`, directly on
    fresh copies of the entries above the bound.
    """
    if pot.kind == BETA:
        return _psi_pair_inplace(_beta_dual(np.asarray(t_arr, dtype=float), pot), pot)
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
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
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
