"""End-to-end transport solvers and the robustness iteration budget.

Three solvers share the dual-coordinate machinery:

- :func:`robust_solve` runs the truncated single-Newton-step alternating
  scaling loop for the beta potential.  Run for at most
  :func:`iteration_budget` iterations it provably sends zero mass to any
  column whose costs all exceed the tolerance ``z``.  It clamps its dual
  implicitly: an entry at or below the clamp bound is clamped, maps to
  exactly zero mass and costs no arithmetic.  The same per-entry bound
  behind the guarantee certifies, before the loop, every entry that
  stays clamped for all T iterations.  When the remaining candidates are
  few, the loop runs on compressed arrays over them alone, allocates no
  m x n array and returns the plan sparse, as its nonzero entries.
  Otherwise it runs on the dense dual: only row half-steps write
  ``psi'``/``psi''`` buffers, column half-steps use ``bincount``, and
  the plan is dense.  Both loops give bit-identical plans, values and
  residuals.
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
``detect.detect_outliers`` work from the entries, and give the same
floats as from the dense plan: row sums and whole-matrix sums follow
numpy's pairwise summation (:func:`_sparse_row_sums`).  Solves mutate
only the dual buffers they allocate, never their inputs; concurrent
solves share nothing.
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
    sinkhorn_tol: float = 1e-9
    max_iter: int = 10000
    eps_zero: float = 1e-12


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
        if ``z`` or the bound is not finite (``z/lam`` can overflow).
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
    decrement_sum = (1.0 / m) ** (beta - 1.0) + (1.0 / n) ** (beta - 1.0)
    t_max_real = ((z / lam) * (beta - 1.0) - 1.0) / decrement_sum
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


def _candidates(gamma: np.ndarray, level: float):
    """Row-major flat indices of the costs below ``level``, or None.

    None when they are more than :data:`CANDIDATE_SHARE_MAX` of the
    entries, or when ``n == 1``: numpy sums the single column of an m x 1
    matrix pairwise, not row after row, so ``bincount`` would not
    reproduce it.  They are counted before any index is built.
    """
    below = gamma < level
    if gamma.shape[1] > 1 and np.count_nonzero(below) <= CANDIDATE_SHARE_MAX * below.size:
        return np.flatnonzero(below)
    return None


def _candidate_entries(cost, level: float):
    """Flat indices and costs of the candidates of :func:`_candidates`, or None.

    A lazily evaluated cost (``costs.SqEuclideanCost``) finds them block
    by block and stops once they are too many.
    """
    m, n = cost.shape
    if isinstance(cost, np.ndarray):
        index = _candidates(cost, level)
        return None if index is None else (index, cost[np.divmod(index, n)])
    if n == 1:
        return None
    return cost.entries_below(level, CANDIDATE_SHARE_MAX * m * n)


def robust_solve(cost, cfg: SolverConfig) -> TransportPlan:
    """Truncated alternating scaling for the beta potential.

    Initializes the dual at ``-cost/lam``, clamps, then runs exactly T
    full iterations of (row Newton step, truncation, update, clamp,
    column Newton step, truncation, update, clamp) and maps the clamped
    dual back to the primal plan.  Deterministic for fixed inputs.

    The clamp is implicit (see the module docstring): the conjugate is
    evaluated on the active entries only, and line sums keep numpy's
    order, so the plan is bit-identical to clamping a copy of the dual
    and evaluating the conjugate on all of it.

    Entries whose cost is at or above :func:`_certified_cost` stay
    clamped for all T iterations, so they carry exactly zero mass and
    take no part in any step.  When the other entries, the candidates,
    are at most :data:`CANDIDATE_SHARE_MAX` (a fifth) of the dual and
    ``n > 1``, the loop runs on compressed arrays over the candidates
    alone; otherwise it runs on the dense dual.  The two loops give
    bit-identical plans.  The crossover depends on how many candidates
    become active, which the input does not tell in advance.  Measured
    on a 2-core Xeon (T=10, candidate loop over dense loop): on the
    950x1000 detection cost rescaled, where about 0.3% of the entries
    end active, 0.31 at 7.7% candidates, 0.57 at 25%, 0.91 at 50%, 1.00
    at 60% and 1.34 at 85%; on 800x800 costs whose candidates all end
    active, 0.54 at 10%, 0.90 at 20%, 1.11 at 25% and 1.22 at 50%.  At
    a fifth neither case is slower.  The candidate loop returns a sparse
    plan (see :class:`TransportPlan`).

    ``cost`` may also be a ``costs.SqEuclideanCost``, which is never
    formed whole on the candidate loop: its rows are evaluated in blocks
    and only the candidates are kept, with their costs, from which the
    plan's value comes.  When the candidates are too many, or ``n == 1``,
    the dense matrix is formed and the dense loop runs.  The plan, value
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

    Column sums with ``n > 1`` come from ``bincount``, as in :func:`_candidate_plan`;
    pairwise sums (rows, an m x 1 column) reduce buffers zero off the active entries.
    """
    m, n = gamma.shape
    bound = pot.clamp_bound
    # A fresh C-ordered dual, so the flat views below are views even for
    # an F-ordered cost such as gamma.T.
    theta = np.negative(gamma, order="C")
    theta /= lam
    ps, pss = np.zeros((m, n)), np.zeros((m, n))
    theta_flat, ps_flat, pss_flat = theta.reshape(-1), ps.reshape(-1), pss.reshape(-1)
    caps = {size: phi_prime(1.0 / size, pot) for size in (m, n)}
    for _ in range(iterations):
        for axis, size in ((1, m), (0, n)):
            active = np.flatnonzero(theta > bound)
            ps_active, pss_active = _psi_pair_inplace(theta_flat[active], pot)
            if axis == 1 or n == 1:
                ps_flat[active], pss_flat[active] = ps_active, pss_active
                ps_sum, pss_sum = ps.sum(axis=axis), pss.sum(axis=axis)
                ps_flat[active] = pss_flat[active] = 0.0
            else:
                # Each entry's column; numpy divides by a scalar faster than % n.
                active -= active // n * n
                ps_sum = np.bincount(active, weights=ps_active, minlength=n)
                pss_sum = np.bincount(active, weights=pss_active, minlength=n)
            del active, ps_active, pss_active  # before the next half-step allocates
            theta_hat = np.maximum(theta.max(axis=axis), bound)
            step = truncated_step(theta_hat, ps_sum, pss_sum, caps[size], size)
            theta -= np.expand_dims(step, axis)

    # Free the buffers before the plan is allocated, to keep the peak low.
    del ps, pss, ps_flat, pss_flat
    return psi_prime(np.maximum(theta, bound, out=theta), pot)


def _candidate_plan(shape, index, costs, pot, lam, iterations):
    """The robust loop on the entries at the sorted row-major flat ``index``.

    ``costs`` holds their costs.  Every other entry stays clamped (see
    :func:`_certified_cost`).  The line maxima and sums equal the dense
    loop's bit for bit: a maximum does not depend on order; numpy sums
    axis 0 of a C-ordered matrix with ``n > 1`` one row after another, as
    ``bincount`` does over row-major entries; and :func:`_row_sums`
    follows numpy's pairwise summation of each row.  Returns the
    :class:`PlanEntries` of the plan and the costs at its entries.
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
            if lines is rows:
                ps_sum, pss_sum = _row_sums(index[active], on, n, m, ps, pss)
            else:
                ps_sum = np.bincount(on, weights=ps, minlength=n)
                pss_sum = np.bincount(on, weights=pss, minlength=n)
            theta -= truncated_step(theta_hat, ps_sum, pss_sum, caps[size], size)[lines]

    active = np.flatnonzero(theta > bound)
    plan = PlanEntries(shape, index[active], psi_prime(theta[active], pot))
    return plan, costs[active]


def _row_sums(index, rows, length, count, *weights):
    """:func:`_sparse_row_sums` of the entries at ``index`` in ``rows``.

    A row with at most two entries is summed by ``bincount``, exactly as
    numpy sums it: adding 0.0 changes no entry, and two entries round
    once in either order.  Only the entries of rows with three or more
    go through :func:`_sparse_row_sums`.
    """
    sums = [np.bincount(rows, weights=w, minlength=count) for w in weights]
    crowded = np.bincount(rows, minlength=count)[rows] > 2
    if crowded.any():
        crowded_rows = rows[crowded]
        exact = _sparse_row_sums(index[crowded], length, count, *(w[crowded] for w in weights))
        for total, row_total in zip(sums, exact):
            total[crowded_rows] = row_total[crowded_rows]
    return sums


# numpy sums runs of at most this many entries with 8 accumulators and
# splits longer runs in two.
_PAIRWISE_BLOCK = 128


def _sparse_row_sums(index, length, count, *weights):
    """Row sums of C-ordered ``count x length`` matrices from their nonzeros.

    Each array in ``weights`` holds a matrix's entries at the sorted
    row-major flat ``index``; its other entries are zero.  Returns, per
    array, its ``sum(axis=1)`` bit for bit, so ``length=m*n, count=1``
    gives the ``np.sum`` of a whole C-ordered matrix.

    numpy adds to 0.0 the pairwise sum of each row: a run of more than
    128 entries splits at ``h - h % 8`` (``h`` half its length) and adds
    the sums of its halves; a shorter run adds its entries to 8 strided
    accumulators, combines them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    and then adds its last ``size % 8`` entries in order, so a run
    shorter than 8 adds them all in order.  ``x + 0.0 == x`` for nonzero
    ``x`` and a zero result is +0.0 either way, so skipping the zeros
    changes no sum.  The split tree is walked level by level over the
    nonzeros only; a node is named by its path from the root behind a
    leading 1 bit.
    """
    line, offset = np.divmod(index, length)
    size = np.full_like(offset, length)
    path = np.ones_like(offset)
    while True:
        split = size > _PAIRWISE_BLOCK
        if not split.any():
            break
        cut = np.where(split, (size >> 4) << 3, size)  # h - h % 8, h = size // 2
        right = offset >= cut
        np.subtract(offset, cut, out=offset, where=right)
        size = np.where(right, size - cut, cut)
        path = (path << split) | right
    # Slots 0-7 of a run are its accumulators, 8-14 its tail in order.
    main = size - size % 8
    slot = np.where(offset < main, offset % 8, 8 + offset - main)
    head = _node_heads(line, path)
    slot += 15 * (np.cumsum(head) - 1)
    line, path = line[head], path[head]
    sums = []
    for w in weights:
        r = np.bincount(slot, weights=w, minlength=15 * line.size).reshape(-1, 15).T
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for tail in r[8:]:
            total += tail
        sums.append(total)
    # Merge sibling nodes bottom-up, the left one first, into their parent.
    for depth in range(int(path.max(initial=1)).bit_length() - 1, 0, -1):
        path = path >> (path >= 1 << depth)
        head = _node_heads(line, path)
        group = np.cumsum(head) - 1
        sums = [np.bincount(group, weights=total) for total in sums]
        line, path = line[head], path[head]
    return [np.bincount(line, weights=total, minlength=count) for total in sums]


def _node_heads(line, path):
    """Marks the first entry of each run of equal ``(line, path)``."""
    head = np.ones(line.size, dtype=bool)
    np.not_equal(line[1:], line[:-1], out=head[1:])
    head[1:] |= path[1:] != path[:-1]
    return head


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
    log-sum-exp and cannot underflow for finite costs.
    """
    gamma = _validate_cost(cost)
    _check_lambda(lam)
    if log_space:
        return _sinkhorn_log(gamma, lam, tol, max_iter)

    m, n = gamma.shape
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
    for iterations in range(1, max_iter + 1):
        f = lam * (log_r - logsumexp((g[None, :] - gamma) / lam, axis=1))
        g = lam * (log_c - logsumexp((f[:, None] - gamma) / lam, axis=0))
        pi = np.exp((f[:, None] + g[None, :] - gamma) / lam)
        row_res, col_res = marginal_residuals(pi, m, n)
        if row_res + col_res <= tol:
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
    single-step loop exists).
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

        row_res, col_res = marginal_residuals(psi_prime(theta_star, pot), m, n)
        if row_res + col_res <= tol:
            converged = True
            break
    pi = psi_prime(theta_star, pot)
    return _plan_result(pi, transport_value(pi, gamma), iterations, converged)


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

    Summation is row-major over the dense product, so repeated evaluation
    on identical inputs is bit-identical.  A sparse plan gives the same
    float from its nonzeros alone (see :func:`_sparse_row_sums`).
    """
    pi = _plan_data(plan)
    gamma = np.asarray(cost, dtype=float)
    if pi.shape != gamma.shape:
        raise DimensionMismatchError(
            f"plan shape {pi.shape} != cost shape {gamma.shape}"
        )
    if isinstance(pi, PlanEntries):
        return _entries_value(pi, gamma[np.divmod(pi.index, pi.shape[1])])
    return float(np.sum(pi * gamma))


def _entries_value(entries: PlanEntries, costs) -> float:
    """:func:`transport_value` of a sparse plan from the costs at its entries."""
    m, n = entries.shape
    return float(_sparse_row_sums(entries.index, m * n, 1, entries.values * costs)[0][0])


def marginal_residuals(plan, m: int, n: int) -> tuple[float, float]:
    """L1 distances of the plan's row/column sums from 1/m and 1/n."""
    pi = _plan_data(plan)
    if isinstance(pi, PlanEntries):
        height, width = pi.shape
        (row_sums,) = _sparse_row_sums(pi.index, width, height, pi.values)
        # Row after row, as numpy sums axis 0 of a C-ordered plan with n > 1.
        col_sums = np.bincount(pi.index % width, weights=pi.values, minlength=width)
    else:
        row_sums, col_sums = pi.sum(axis=1), pi.sum(axis=0)
    row = float(np.abs(row_sums - 1.0 / m).sum())
    col = float(np.abs(col_sums - 1.0 / n).sum())
    return row, col
