"""End-to-end transport solvers and the robustness iteration budget.

Three solvers share the dual-coordinate machinery:

- :func:`robust_solve` runs the truncated single-Newton-step alternating
  scaling loop for the beta potential.  Run for at most
  :func:`iteration_budget` iterations it provably sends zero mass to any
  column whose costs all exceed the tolerance ``z``.  It clamps its dual
  implicitly: an entry at or below the clamp bound is clamped, maps to
  exactly zero mass and costs no arithmetic.  The same per-entry bound
  behind the guarantee certifies, before the loop, every entry that
  stays clamped for all T iterations; one walk over blocks of cost rows,
  dense or evaluated on demand, finds the remaining candidates.  When
  they are few, the loop runs on compressed arrays over them alone,
  allocates no m x n array and returns the plan sparse, as its nonzero
  entries.  Otherwise it runs on the dense dual and the plan is dense.
  Both loops form every line sum of a half-step sequentially, with
  ``bincount`` over the active entries in row-major order, so they give
  bit-identical plans, values and residuals.
- :func:`sinkhorn_solve` is the classical kernel-space scaling method for
  the Shannon entropy (with an explicit log-space variant).
- :func:`nasa_solve` is the generic alternating-projection loop with inner
  Newton iterations run to convergence; it requires a cofinite generator
  (Shannon or squared Euclidean) and exists as the reference the truncated
  beta loop deviates from.

All solvers return a :class:`TransportPlan` carrying the plan, its cost
value, L1 marginal residuals, and the iteration count.  A sparse plan
keeps its entries and builds the dense ``pi`` only when it is read;
:func:`transport_value`, :func:`marginal_residuals` and
``detect.detect_outliers`` work from the entries.  Every reported
diagnostic adds each row's and each column's entries one after another
in row-major order (a value is the numpy sum of the row sums of plan x
cost), so exact zeros change nothing and a dense plan and its entries
give the same floats.  Solves mutate only the dual buffers they
allocate, never their inputs; concurrent solves share nothing.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExhaustedError,
    DimensionMismatchError,
    DomainError,
    InfeasibleToleranceError,
    NumericalUnderflowError,
    UnsupportedGeneratorError,
)
from .potentials import Potential, beta_potential, phi_prime, psi_pair, psi_prime
from .potentials import _psi_pair_inplace
from .projections import clamp_dual, newton_quotient, truncated_step

NASA_INNER_TOL = 1e-12
NASA_INNER_CAP = 100


@dataclass
class SolverConfig:
    """Hyperparameters for the robust solver.

    ``iterations`` may be given explicitly; otherwise it is derived from
    the outlier tolerance ``z`` through :func:`iteration_budget` (in which
    case the zero-mass guarantee applies).
    """

    beta: float = 1.2
    lam: float = 2.0
    iterations: int | None = None
    z: float | None = None


class PlanEntries(NamedTuple):
    """The nonzero entries of an m x n plan, at sorted row-major flat ``index``."""

    shape: tuple[int, int]
    index: np.ndarray
    values: np.ndarray


class TransportPlan:
    """A computed plan with diagnostics.

    ``value`` is the Frobenius inner product of the plan with the cost
    matrix; ``row_residual_l1`` / ``col_residual_l1`` are L1 distances of
    the marginals from the uniform targets 1/m and 1/n.

    ``pi`` is given dense or as the :class:`PlanEntries` of its nonzeros,
    as the candidate loop of :func:`robust_solve` gives it.  A sparse plan
    keeps them in ``entries`` and builds the dense ``pi`` once, on first
    access; a dense plan has ``entries`` None.
    """

    def __init__(self, pi, value, row_residual_l1, col_residual_l1, iterations_run,
                 converged=None):
        self.entries = pi if isinstance(pi, PlanEntries) else None
        self._pi = None if self.entries is not None else pi
        self.value = value
        self.row_residual_l1 = row_residual_l1
        self.col_residual_l1 = col_residual_l1
        self.iterations_run = iterations_run
        self.converged = converged

    @property
    def pi(self) -> np.ndarray:
        if self._pi is None:
            self._pi = np.zeros(self.entries.shape)
            self._pi.reshape(-1)[self.entries.index] = self.entries.values
        return self._pi


@dataclass
class IterationBudget:
    """Largest admissible iteration count for the zero-mass guarantee.

    ``budget`` is the largest integer STRICTLY below ``t_max_real``; an
    exact-integer bound decrements by one to preserve strictness.
    """

    t_max_real: float
    budget: int


def _validate_cost(cost) -> np.ndarray:
    gamma = np.asarray(cost, dtype=float)
    if gamma.ndim != 2 or gamma.size == 0:
        raise DimensionMismatchError("cost must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(gamma)):
        raise ValueError("cost matrix must be finite (no NaN/Inf)")
    return gamma


def _check_lambda(lam: float) -> None:
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")


def iteration_budget(z: float, cfg: SolverConfig, m: int, n: int) -> IterationBudget:
    """Iteration cap under which no mass reaches columns costing >= z everywhere.

    The bound is ``t_max_real = ((z/lam)(beta-1) - 1) / ((1/m)^(beta-1) +
    (1/n)^(beta-1))`` and the usable budget is the largest integer strictly
    below it.

    Raises
    ------
    DomainError
        If ``beta <= 1`` or ``lam <= 0``, where the bound is undefined, or
        if ``z`` or the bound is not finite (``z/lam`` can overflow, and
        for a large beta the denominator can underflow to 0).
    InfeasibleToleranceError
        If ``z <= lam / (beta - 1)``, where the bound is nonpositive.
    BudgetExhaustedError
        If the budget is below 1; rescale the problem (see
        ``costs.auto_scale``).
    """
    beta, lam = cfg.beta, cfg.lam
    if not beta > 1.0:
        raise DomainError(f"the iteration budget requires beta > 1, got {beta}")
    if not lam > 0.0:
        raise DomainError(f"the iteration budget requires lambda > 0, got {lam}")
    if not math.isfinite(z):
        raise DomainError(f"the iteration budget requires a finite z, got {z}")
    if z <= lam / (beta - 1.0):
        raise InfeasibleToleranceError(
            f"tolerance z={z} must exceed lambda/(beta-1)={lam / (beta - 1.0)}"
        )
    t_max_real = ((z / lam) * (beta - 1.0) - 1.0) / _decrement_sum(beta, m, n)
    if not math.isfinite(t_max_real):
        raise DomainError(
            f"the iteration bound for z={z}, lambda={lam} is not finite; "
            "rescale the cost and z (see auto_scale)"
        )
    budget = math.ceil(t_max_real) - 1
    if budget < 1:
        raise BudgetExhaustedError(
            f"iteration budget {budget} < 1 for z={z}; rescale the cost and z "
            "(see auto_scale) or increase z"
        )
    return IterationBudget(t_max_real=t_max_real, budget=budget)


def _decrement_sum(beta: float, m: int, n: int) -> float:
    """The bound's denominator ``(1/m)^(beta-1) + (1/n)^(beta-1)``; DomainError at 0."""
    total = (1.0 / m) ** (beta - 1.0) + (1.0 / n) ** (beta - 1.0)
    if total == 0.0:
        raise DomainError(f"beta={beta} underflows the iteration bound's denominator to 0")
    return total


def _resolve_iterations(cfg: SolverConfig, m: int, n: int) -> int:
    if cfg.iterations is not None:
        if cfg.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {cfg.iterations}")
        return int(cfg.iterations)
    if cfg.z is not None:
        return iteration_budget(cfg.z, cfg, m, n).budget
    raise ValueError("SolverConfig needs either iterations or z")


def _certified_cost(pot: Potential, lam: float, m: int, n: int, iterations: int) -> float:
    """Cost at or above which a dual entry stays clamped for ``iterations``.

    This is the paper's ``z_T = lam * (1 + T*D) / (beta - 1)`` with a
    margin for rounding; such an entry carries exactly zero mass and
    takes no part in any step.  O(1) in T.

    A row step is at least ``fl(clamp_bound - phi_prime(1/m))``, the
    truncation lower bound of a fully clamped row, and a column step at
    least the same with ``n``; so a half-step raises an entry by at most
    ``r_m = -fl(clamp_bound - phi_prime(1/m))`` or ``r_n``.  Rounding is
    monotone, so an entry whose initial dual ``fl(-cost/lam)`` is at or
    below ``x`` stays at or below the iterates of ``y <- fl(y + r)``
    started at ``x``.  While those stay at or below the bound they lie in
    ``[x, 0]``, so the 2T roundings add at most ``2T * u * |x|``
    (``u = eps/2``) to ``x + T*(r_m + r_n)``; for ``T*u <= 1/16``,
    ``x = -(|clamp_bound| + T*(r_m + r_n)) * (1 + 4*T*u)`` keeps them
    there.  The returned level is ``-lam * x`` with about twice that
    margin, which covers its own roundings, so a cost at or above it has
    ``fl(-cost/lam) <= x``.  A larger margin only keeps more entries in
    the loop.  Beyond ``T*u = 1/16`` every entry is kept (``inf``).
    The certificate does not depend on the order in which a line's
    ``psi'``/``psi''`` terms are summed: no sum enters the bound.
    """
    if iterations >= 2**49:
        return math.inf
    bound = pot.clamp_bound
    rise = -(bound - phi_prime(1.0 / m, pot)) - (bound - phi_prime(1.0 / n, pot))
    u = np.finfo(float).eps / 2.0
    level = (abs(bound) + iterations * rise) * (1.0 + 8.0 * (iterations + 2) * u)
    return lam * level * (1.0 + 4.0 * u)


# The candidate loop runs when at most this share of the dual entries
# costs less than _certified_cost (see robust_solve).
CANDIDATE_SHARE_MAX = 0.2

# Rows of the cost walked at once: a block holds 64*n floats.
_BLOCK_ROWS = 64


def _candidate_entries(cost, level: float):
    """Row-major flat indices and costs of the entries below ``level``, or None.

    One walk serves a dense cost and a ``costs.SqEuclideanCost`` alike:
    it takes :data:`_BLOCK_ROWS` rows at a time (``cost[a:b]``, which the
    lazy cost evaluates on demand), counts the block's entries below the
    level before it builds their indices, and stops with None once they
    are more than :data:`CANDIDATE_SHARE_MAX` of the entries.  It holds
    one block at a time besides the entries found.
    """
    m, n = cost.shape
    limit = CANDIDATE_SHARE_MAX * m * n
    index, values, count = [], [], 0
    for start in range(0, m, _BLOCK_ROWS):
        block = cost[start:start + _BLOCK_ROWS]
        below = block < level
        count += np.count_nonzero(below)
        if count > limit:
            return None
        found = np.flatnonzero(below)
        index.append(found + start * n)
        values.append(block.reshape(-1)[found])
    return np.concatenate(index), np.concatenate(values)


def robust_solve(cost, cfg: SolverConfig) -> TransportPlan:
    """Truncated alternating scaling for the beta potential.

    Initializes the dual at ``-cost/lam``, clamps, then runs exactly T
    full iterations of (row Newton step, truncation, update, clamp,
    column Newton step, truncation, update, clamp) and maps the clamped
    dual back to the primal plan.  Deterministic for fixed inputs.

    The clamp is implicit (see the module docstring): the conjugate is
    evaluated on the active entries only, and each line sum adds the
    line's entries one after another in row-major order, so the plan is
    bit-identical to clamping a copy of the dual, evaluating the
    conjugate on all of it and summing each line sequentially.

    Entries whose cost is at or above :func:`_certified_cost` stay
    clamped for all T iterations, so they carry exactly zero mass and
    take no part in any step.  When the other entries, the candidates,
    are at most :data:`CANDIDATE_SHARE_MAX` (a fifth) of the dual (see
    :func:`_candidate_entries`, one row-block walk for every kind of
    cost), the loop runs on compressed arrays over the candidates alone;
    otherwise it runs on the dense dual.  The two loops give
    bit-identical plans.  The crossover depends on how many candidates
    become active, which the input does not tell in advance.  Measured
    on a 2-core Xeon (T=10, candidate loop over dense loop, medians of
    15 interleaved runs): on the 950x1000 detection cost rescaled, where
    about 0.2% of the entries end active, 0.18 at 8.7% candidates, 0.44
    at 25%, 0.86 at 50%, 1.02 at 60% and 1.53 at 85%; on 800x800 costs
    whose candidates all end active, 0.50 at 10%, 0.76 at 20%, 0.80 at
    25%, 0.99 at 35% and 1.20 at 50%.  At a fifth neither case is
    slower.  The candidate loop returns a sparse plan (see
    :class:`TransportPlan`).

    ``cost`` may also be a ``costs.SqEuclideanCost``, which is never
    formed whole on the candidate loop: the walk evaluates its rows in
    blocks and keeps only the candidates, with their costs, from which
    the plan's value comes.  When the walk gives None, the dense matrix
    is formed and the dense loop runs.  The plan, value
    and residuals equal those of the dense cost bit for bit.

    Raises :class:`DomainError` when the conjugate overflows, as it does
    on a dual entry ``-cost/lam`` far above the domain (a very negative
    cost); the plan would be NaN or meaningless.

    The output is an intermediate iterate on purpose: it is generally
    infeasible (nonzero marginal residuals) but, within the iteration
    budget for a tolerance z, provably transports no mass to columns
    whose costs all reach z.
    """
    if hasattr(cost, "check_finite"):  # a lazily evaluated costs.SqEuclideanCost
        cost.check_finite()
        gamma = cost
    else:
        gamma = _validate_cost(cost)
    m, n = gamma.shape
    pot = beta_potential(cfg.beta)
    iterations = _resolve_iterations(cfg, m, n)
    _check_lambda(cfg.lam)

    found = _candidate_entries(gamma, _certified_cost(pot, cfg.lam, m, n, iterations))
    # An overflow of the conjugate makes a step non-finite, and
    # truncated_step raises DomainError on it.
    with np.errstate(over="ignore", invalid="ignore"):
        if found is None:
            if not isinstance(gamma, np.ndarray):
                gamma = gamma.dense()
            pi = _dense_plan(gamma, pot, cfg.lam, iterations)
            value = transport_value(pi, gamma)
        else:
            pi, costs = _candidate_plan((m, n), *found, pot, cfg.lam, iterations)
            value = _entries_value(pi, costs)
    return _plan_result(pi, value, iterations)


def _dense_plan(gamma, pot, lam, iterations):
    """The robust loop on the whole dual, the conjugate on its active entries.

    Line sums come from ``bincount`` over the active entries in row-major
    order, as in :func:`_candidate_plan`.
    """
    m, n = gamma.shape
    bound = pot.clamp_bound
    # A fresh C-ordered dual, so the flat view below is a view even for
    # an F-ordered cost such as gamma.T.
    theta = np.negative(gamma, order="C")
    theta /= lam
    caps = {size: phi_prime(1.0 / size, pot) for size in (m, n)}
    for _ in range(iterations):
        for axis, size in ((1, m), (0, n)):
            active = np.flatnonzero(theta > bound)
            ps, pss = _psi_pair_inplace(theta.reshape(-1)[active], pot)
            # Each entry's row or column; numpy divides by a scalar faster than % n.
            lines = active // n if axis == 1 else active - active // n * n
            ps_sum = np.bincount(lines, weights=ps, minlength=size)
            pss_sum = np.bincount(lines, weights=pss, minlength=size)
            del active, lines, ps, pss  # before the next half-step allocates
            theta_hat = np.maximum(theta.max(axis=axis), bound)
            step = truncated_step(theta_hat, ps_sum, pss_sum, caps[size], size)
            theta -= np.expand_dims(step, axis)
    return psi_prime(np.maximum(theta, bound, out=theta), pot)


def _candidate_plan(shape, index, costs, pot, lam, iterations):
    """The robust loop on the entries at the sorted row-major flat ``index``.

    ``costs`` holds their costs.  Every other entry stays clamped (see
    :func:`_certified_cost`).  The line maxima and sums equal the dense
    loop's bit for bit: a maximum does not depend on order, and both
    loops sum with ``bincount`` over the active entries in row-major
    order.  Returns the :class:`PlanEntries` of the plan and the costs
    at its entries.
    """
    m, n = shape
    bound = pot.clamp_bound
    rows, cols = np.divmod(index, n)
    theta = -costs / lam
    caps = {size: phi_prime(1.0 / size, pot) for size in (m, n)}
    for _ in range(iterations):
        for lines, size in ((rows, m), (cols, n)):
            active = np.flatnonzero(theta > bound)
            values = theta[active]
            on = lines[active]
            theta_hat = np.full(size, bound)
            np.maximum.at(theta_hat, on, values)
            ps, pss = _psi_pair_inplace(values, pot)
            ps_sum = np.bincount(on, weights=ps, minlength=size)
            pss_sum = np.bincount(on, weights=pss, minlength=size)
            theta -= truncated_step(theta_hat, ps_sum, pss_sum, caps[size], size)[lines]

    active = np.flatnonzero(theta > bound)
    plan = PlanEntries(shape, index[active], psi_prime(theta[active], pot))
    return plan, costs[active]


def sinkhorn_solve(
    cost,
    lam: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
    log_space: bool = False,
) -> TransportPlan:
    """Classical scaling iterations on the kernel ``exp(-cost/lam)``.

    Uniform marginals 1/m and 1/n.  Stops when the summed row+column L1
    residual drops to ``tol`` or after ``max_iter`` iterations; residuals
    are reported either way.

    Works in kernel space by default.  If the kernel underflows to an
    all-zero row or column (or scaling factors degenerate), raises
    :class:`NumericalUnderflowError`; rerun with a larger ``lam``, a
    rescaled cost, or ``log_space=True``, which evaluates the updates with
    log-sum-exp and raises it only when ``cost/lam`` overflows the floats.
    """
    gamma = _validate_cost(cost)
    _check_lambda(lam)
    if log_space:
        return _sinkhorn_log(gamma, lam, tol, max_iter)

    m, n = gamma.shape
    with np.errstate(over="ignore"):  # a cost/lam beyond the floats gives a zero entry
        kernel = np.exp(-gamma / lam)
    if np.any(kernel.sum(axis=1) == 0.0) or np.any(kernel.sum(axis=0) == 0.0):
        raise NumericalUnderflowError(
            "kernel exp(-cost/lam) underflowed to an all-zero row/column; "
            "increase lam, rescale the cost, or pass log_space=True"
        )
    r = 1.0 / m
    c = 1.0 / n
    v = np.ones(n)
    u = np.ones(m)
    kv = kernel @ v
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        u = r / kv
        ktu = kernel.T @ u
        v = c / ktu
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NumericalUnderflowError(
                "scaling factors overflowed/underflowed; increase lam, "
                "rescale the cost, or pass log_space=True"
            )
        # Marginals of diag(u) K diag(v) without forming it; K v is the
        # next iteration's denominator.
        kv = kernel @ v
        residual = np.abs(u * kv - r).sum() + np.abs(v * ktu - c).sum()
        if residual <= tol:
            converged = True
            break
    pi = u[:, None] * kernel * v[None, :]
    return _plan_result(pi, transport_value(pi, gamma), iterations, converged)


def _sinkhorn_log(gamma: np.ndarray, lam: float, tol: float, max_iter: int):
    """Log-domain scaling: potentials f, g with pi = exp((f + g - cost)/lam)."""
    from scipy.special import logsumexp

    m, n = gamma.shape
    log_r = -math.log(m)
    log_c = -math.log(n)
    f = np.zeros(m)
    g = np.zeros(n)
    iterations = 0
    converged = False
    # A cost/lam beyond the floats makes the residual non-finite, which raises.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            f = lam * (log_r - logsumexp((g[None, :] - gamma) / lam, axis=1))
            g = lam * (log_c - logsumexp((f[:, None] - gamma) / lam, axis=0))
            residual = _stop_residual(np.exp((f[:, None] + g[None, :] - gamma) / lam), m, n)
            if not math.isfinite(residual):
                raise NumericalUnderflowError("the log-space plan is not finite; increase lam")
            if residual <= tol:
                converged = True
                break
        pi = np.exp((f[:, None] + g[None, :] - gamma) / lam)
    return _plan_result(pi, transport_value(pi, gamma), iterations, converged)


def _inner_newton(theta_star, pot, axis, size):
    """Newton iterations to convergence for the multipliers along ``axis``.

    ``axis=1`` gives the row multipliers (target 1/m), ``axis=0`` the
    column ones (target 1/n).
    """
    mult = np.zeros(theta_star.shape[1 - axis])
    for _ in range(NASA_INNER_CAP):
        ps, pss = psi_pair(theta_star - np.expand_dims(mult, axis), pot)
        step = newton_quotient(ps, pss, axis, size, np.zeros_like(mult))
        mult += step
        if not np.all(np.isfinite(mult)):
            raise NumericalUnderflowError(
                "a projection multiplier overflowed; increase lam or rescale the cost"
            )
        if np.max(np.abs(step)) <= NASA_INNER_TOL:
            break
    return mult


def nasa_solve(
    cost,
    lam: float,
    pot: Potential,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> TransportPlan:
    """Generic alternating-projection scaling for cofinite generators.

    Cycles (nonnegativity clamp, row projection, clamp, column projection,
    clamp) with the row/column multiplier found by Newton iterations run
    to convergence, until the plan's marginal residual reaches ``tol`` or
    ``max_iter`` cycles elapse.  The squared Euclidean path clamps at
    ``phi_prime(0) = -1``; the Shannon path never clamps.

    Rejects the beta potential: its conjugate domain is bounded below, so
    multi-step Newton updates can leave it (the reason the truncated
    single-step loop exists).  Raises :class:`NumericalUnderflowError`
    when a multiplier overflows, as Shannon's can on costs far above ``lam``.
    """
    if not pot.is_cofinite:
        raise UnsupportedGeneratorError(
            "nasa_solve requires a cofinite generator (shannon or "
            "sq_euclidean); use robust_solve for the beta potential"
        )
    gamma = _validate_cost(cost)
    _check_lambda(lam)
    m, n = gamma.shape

    theta_tilde = -gamma / lam
    theta_star = clamp_dual(theta_tilde, pot)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        for axis, size in ((1, m), (0, n)):
            mult = _inner_newton(theta_star, pot, axis, size)
            theta_tilde = theta_tilde - np.expand_dims(mult, axis)
            theta_star = clamp_dual(theta_tilde, pot)

        if _stop_residual(psi_prime(theta_star, pot), m, n) <= tol:
            converged = True
            break
    pi = psi_prime(theta_star, pot)
    return _plan_result(pi, transport_value(pi, gamma), iterations, converged)


def _stop_residual(pi, m, n) -> float:
    """The summed marginal residual under numpy's sums: a stopping test, never reported."""
    rows, cols = np.abs(pi.sum(axis=1) - 1.0 / m), np.abs(pi.sum(axis=0) - 1.0 / n)
    return float(rows.sum()) + float(cols.sum())


def _plan_result(pi, value, iterations, converged=None) -> TransportPlan:
    """The :class:`TransportPlan` of ``pi`` (dense or :class:`PlanEntries`) and its value."""
    row_res, col_res = marginal_residuals(pi, *pi.shape)
    return TransportPlan(pi, value, row_res, col_res, iterations, converged)


def _plan_data(plan):
    """The dense plan as an array, or the :class:`PlanEntries` of a sparse one."""
    if isinstance(plan, TransportPlan):
        plan = plan.pi if plan.entries is None else plan.entries
    return plan if isinstance(plan, PlanEntries) else np.asarray(plan, dtype=float)


def transport_value(plan, cost) -> float:
    """Frobenius inner product of a plan with the cost matrix.

    The numpy sum of the row sums of plan x cost, each added entry after
    entry (see :func:`marginal_residuals`), with no m x n temporary.
    """
    pi = _plan_data(plan)
    gamma = np.asarray(cost, dtype=float)
    if pi.shape != gamma.shape:
        raise DimensionMismatchError(
            f"plan shape {pi.shape} != cost shape {gamma.shape}"
        )
    if isinstance(pi, PlanEntries):
        return _entries_value(pi, gamma[np.divmod(pi.index, pi.shape[1])])
    return float(np.sum(_line_sums(pi, gamma)))


def _entries_value(entries: PlanEntries, costs) -> float:
    """:func:`transport_value` of a sparse plan from the costs at its entries."""
    m, n = entries.shape
    return float(np.sum(np.bincount(entries.index // n, weights=entries.values * costs,
                                    minlength=m)))


def marginal_residuals(plan, m: int, n: int) -> tuple[float, float]:
    """L1 distances of the plan's row/column sums from 1/m and 1/n.

    Each row and each column adds its entries one after another in
    row-major order: ``bincount`` over a sparse plan's nonzeros, a
    ``cumsum`` over a few rows of a dense plan (or of its transpose) at
    a time.  The two forms give the same residuals, whatever the shape
    or memory order, and the rule depends on no numpy release.
    """
    pi = _plan_data(plan)
    if isinstance(pi, PlanEntries):
        rows, cols = np.divmod(pi.index, pi.shape[1])
        row_sums = np.bincount(rows, weights=pi.values, minlength=pi.shape[0])
        col_sums = np.bincount(cols, weights=pi.values, minlength=pi.shape[1])
    else:
        row_sums, col_sums = _line_sums(pi), _line_sums(pi.T)
    row = float(np.abs(row_sums - 1.0 / m).sum())
    col = float(np.abs(col_sums - 1.0 / n).sum())
    return row, col


# Entries a dense diagnostic takes at once: its one buffer holds 2**16 floats.
_SUM_BLOCK = 1 << 16


def _line_sums(a, weights=None):
    """The rows of ``a`` (times ``weights``), each summed entry after entry."""
    m, n = a.shape
    rows = max(1, _SUM_BLOCK // n)
    sums, buf = np.empty(m), np.empty((min(rows, m), n))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        block, out = a[start:stop], buf[:stop - start]
        if weights is not None:
            block = np.multiply(block, weights[start:stop], out=out)
        sums[start:stop] = np.cumsum(block, axis=1, out=out)[:, -1]
    return sums
