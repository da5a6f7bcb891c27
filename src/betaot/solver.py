"""End-to-end transport solvers and the robustness iteration budget.

Three solvers work in dual coordinates:

- :func:`robust_solve` runs the truncated single-Newton-step alternating
  scaling loop for the beta potential.  Run for at most
  :func:`iteration_budget` iterations it provably sends zero mass to any
  column whose costs all exceed the tolerance ``z``.  It clamps its dual
  implicitly: an entry at or below the clamp bound is clamped, maps to
  exactly zero mass and costs no arithmetic.  The same per-entry bound
  behind the guarantee certifies, before the loop, every entry that
  stays clamped for all T iterations; one walk over blocks of cost rows,
  dense or evaluated on demand, finds the remaining candidates.  When
  they are few, the loop runs on compressed arrays over them alone and
  allocates no m x n array; otherwise it runs on the dense dual.  Both
  take every step from one half-step, :func:`_half_step`: it sums each
  line's ``psi'`` and ``psi''`` with ``bincount`` over the active
  entries in row-major order, and truncates the Newton step at
  ``theta_hat - phi_prime(1/size)``, the bound behind the certificate.
  Both return the plan as its entries above the clamp bound, so they
  give bit-identical plans and diagnostics.  A large dense loop with two
  usable CPUs runs each half-step on two blocks of the dual, the second
  on a helper thread that ends with the solve (:func:`_dense_plan`), and
  gives the same bits as on one.
- :func:`sinkhorn_solve` is the classical scaling method for the Shannon
  entropy, on a kernel whose offsets keep it from underflowing.
- :func:`nasa_solve` is the alternating-projection loop for a cofinite
  generator, every half-step an exact projection: for Shannon it is
  :func:`sinkhorn_solve`, for squared Euclidean a sorted simplex shift
  per line.  It is the reference the truncated beta loop deviates from.

All solvers, and ``oracle.exact_ot``, return a :class:`TransportPlan`
carrying the plan, its cost value and the iteration count; it computes
its L1 marginal residuals itself.  A robust plan keeps its entries and
builds the dense ``pi`` only when it is read; :func:`transport_value`,
:func:`marginal_residuals` and ``detect.detect_outliers`` work from the
entries.  Those check a caller's arrays, while a solve runs their
unchecked cores on the arrays it made.  Every diagnostic a solver
reports adds each row's and each column's entries one after another in
row-major order (a value is the numpy sum of the row sums of plan x
cost), so exact zeros change nothing and a dense plan and its entries
give the same floats.  Solves mutate only the dual buffers they
allocate, never their inputs; concurrent solves share nothing, and the
dense loop's helper thread touches only its own solve's buffers.
"""

import math
import numbers
import os
import sys
from contextlib import contextmanager
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
from .potentials import SHANNON, Potential, beta_potential, phi_prime
from .potentials import _psi_pair_inplace, _psi_prime_inplace


@dataclass
class SolverConfig:
    """Hyperparameters for the robust solver.

    ``iterations`` may be given explicitly, as an integer (not a bool) of
    at least 1; otherwise it is derived from the outlier tolerance ``z``
    through :func:`iteration_budget` (in which case the zero-mass
    guarantee applies).
    """

    beta: float = 1.2
    lam: float = 2.0
    iterations: int | None = None
    z: float | None = None


class PlanEntries(NamedTuple):
    """Entries of an m x n plan at sorted row-major flat ``index``; all others are 0.

    A robust plan's are those above the clamp bound; a value can underflow to 0.
    """

    shape: tuple[int, int]
    index: np.ndarray
    values: np.ndarray


class TransportPlan:
    """A computed plan with diagnostics: the one result of every solver.

    ``TransportPlan(pi, value, iterations_run, tol=None)`` keeps the plan
    and its ``value``, the Frobenius inner product with the cost as the
    solver computed it, and computes ``row_residual_l1`` /
    ``col_residual_l1`` from ``pi``: the L1 distances of its marginals
    from 1/m and 1/n (:func:`marginal_residuals`).  ``converged`` is None
    without a ``tol`` (the robust loop, the exact oracle), else True
    exactly when the two residuals sum to at most ``tol``, whatever
    stopping test ended the loop.

    ``pi`` is given dense or, by :func:`robust_solve`, as
    :class:`PlanEntries`, kept in ``entries``; the dense ``pi`` is then
    built once, on first access.  A dense plan has ``entries`` None.
    """

    def __init__(self, pi, value, iterations_run, tol=None):
        self.entries = pi if isinstance(pi, PlanEntries) else None
        self._pi = None if self.entries is not None else pi
        self.value = value
        self.row_residual_l1, self.col_residual_l1 = row, col = _residuals(pi)
        self.iterations_run = iterations_run
        self.converged = None if tol is None else row + col <= tol

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


def _validate_cost(cost, noun: str = "cost") -> np.ndarray:
    """The input rule for a cost or plan (``noun``): a nonempty finite 2-D float array."""
    gamma = np.asarray(cost, dtype=float)
    if gamma.ndim != 2 or gamma.size == 0:
        raise DimensionMismatchError(f"{noun} must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(gamma)):
        raise ValueError(f"{noun} matrix must be finite (no NaN/Inf)")
    return gamma


def _check_lambda(lam: float) -> None:
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lambda must be finite and positive, got {lam}")


def _count(name: str, value) -> int:
    """``value`` as an int: an ``Integral`` that is not a bool and is at least 1.

    Anything else raises :class:`DomainError`; ``int()`` would truncate
    2.5 to 2 and take True for 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{name} must be >= 1 and an integer, got {value!r}")
    return int(value)


def _scaling_cost(cost, lam: float, tol: float, max_iter: int) -> np.ndarray:
    """The validated cost of a scaling solve, once its arguments are checked.

    Raises :class:`NumericalUnderflowError` when ``(max C - min C)/lam``
    overflows.
    """
    gamma = _validate_cost(cost)
    _check_lambda(lam)
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    _count("max_iter", max_iter)
    if not math.isfinite((float(gamma.max()) - float(gamma.min())) / lam):
        raise NumericalUnderflowError("the spread of cost/lam overflows the floats")
    return gamma


def iteration_budget(z: float, cfg: SolverConfig, m: int, n: int) -> IterationBudget:
    """Iteration cap under which no mass reaches columns costing >= z everywhere.

    The bound is ``t_max_real = ((z/lam)(beta-1) - 1) / ((1/m)^(beta-1) +
    (1/n)^(beta-1))`` and the usable budget is the largest integer strictly
    below it.

    Raises
    ------
    DomainError
        If ``beta`` is outside ``(1, inf)`` or ``lam`` outside ``(0, inf)``,
        where the bound is undefined, if ``m`` or ``n`` is not an integer
        of at least 1, or if ``z`` or the bound is not finite (``z/lam``
        can overflow; for a large beta the denominator can underflow).
    InfeasibleToleranceError
        If ``z <= lam / (beta - 1)``, where the bound is nonpositive.
    BudgetExhaustedError
        If the budget is below 1; rescale the problem (see
        ``costs.auto_scale``).
    """
    beta, lam = cfg.beta, cfg.lam
    beta_potential(beta)  # raises DomainError outside (1, inf)
    _check_lambda(lam)
    _count("m", m)
    _count("n", n)
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


# Below this count T*u <= 1/16 (u = 2**-53), which _certified_cost's margin
# needs; a derived budget of at least this many iterations cannot finish.
_CERTIFIED_T_LIMIT = 2**49


def _resolve_iterations(cfg: SolverConfig, m: int, n: int) -> int:
    if cfg.iterations is not None:
        return _count("iterations", cfg.iterations)
    if cfg.z is None:
        raise ValueError("SolverConfig needs either iterations or z")
    budget = iteration_budget(cfg.z, cfg, m, n).budget
    if budget >= _CERTIFIED_T_LIMIT:
        raise BudgetExhaustedError(
            f"iteration budget {budget:.3g} >= 2**49 for z={cfg.z} cannot finish; "
            "rescale the cost and z (see auto_scale)"
        )
    return budget


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
    the loop.  From ``_CERTIFIED_T_LIMIT`` (``T*u = 1/16``) every entry is kept.
    The certificate does not depend on the order in which a line's
    ``psi'``/``psi''`` terms are summed: no sum enters the bound.
    """
    if iterations >= _CERTIFIED_T_LIMIT:
        return math.inf
    bound = pot.clamp_bound
    rise = -(bound - phi_prime(1.0 / m, pot)) - (bound - phi_prime(1.0 / n, pot))
    u = sys.float_info.epsilon / 2.0  # a Python float overflows to inf silently
    level = (abs(bound) + iterations * rise) * (1.0 + 8.0 * (iterations + 2) * u)
    return lam * level * (1.0 + 4.0 * u)


# A Newton denominator below this is treated as zero (see _truncated_step).
EPS_DENOMINATOR = 1e-12


def _quotient(ps_sum, pss_sum, size: int, fallback):
    """The Newton steps ``(ps_sum - 1/size) / pss_sum``, ``fallback`` where guarded."""
    num = ps_sum - 1.0 / size
    return np.divide(num, pss_sum, out=fallback, where=pss_sum >= EPS_DENOMINATOR)


def _truncated_step(theta_hat, ps_sum, pss_sum, cap: float, size: int):
    """Truncated single Newton step from per-line reductions.

    ``theta_hat`` holds the maxima of the clamped dual along each line
    (never below ``clamp_bound``), ``ps_sum``/``pss_sum`` the sums of
    ``psi'``/``psi''`` along it, ``size`` is the marginal's count (target
    ``1/size``) and ``cap`` is ``phi_prime(1/size)``.  The step is the
    Newton step ``(ps_sum - 1/size) / pss_sum`` raised to at least
    ``theta_hat - cap``, so that after it every entry of the line is at
    most ``phi_prime(1/size)`` and carries at most ``1/size``.

    A fully clamped line has a zero denominator (the conjugate's
    curvature vanishes at the boundary) and a negative numerator, so its
    raw step diverges to ``-inf``.  A denominator below
    :data:`EPS_DENOMINATOR` pins the step to the truncation bound, the
    value the divergent step would be truncated to.  That keeps the steps
    finite and re-admits mass at the bounded per-iteration rate that
    :func:`_certified_cost` and the iteration budget rest on: every step
    is at least ``clamp_bound - cap``.

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
    on a 2-core Xeon against the dense loop on one block, before it took
    two (T=10, candidate loop over dense loop, medians of 15 interleaved
    runs): on the 950x1000 detection cost rescaled, where
    about 0.2% of the entries end active, 0.18 at 8.7% candidates, 0.44
    at 25%, 0.86 at 50%, 1.02 at 60% and 1.53 at 85%; on 800x800 costs
    whose candidates all end active, 0.50 at 10%, 0.76 at 20%, 0.80 at
    25%, 0.99 at 35% and 1.20 at 50%.  At a fifth neither case is
    slower.  Either loop returns :class:`PlanEntries`, the value and
    residuals come from them, and ``pi`` is built when read.

    ``cost`` may also be a ``costs.SqEuclideanCost``, which is never
    formed whole on the candidate loop: the walk evaluates its rows in
    blocks and keeps only the candidates, with their costs, from which
    the plan's value comes.  When the walk gives None, the dense matrix
    is formed and the dense loop runs.  The plan, value
    and residuals equal those of the dense cost bit for bit.  Its blocks
    keep the cost rule as they are evaluated, so a cost that overflows
    raises the dense cost's ``ValueError``, though after any error in
    ``cfg``.

    Raises :class:`DomainError` when the conjugate overflows, as it does
    on a dual entry ``-cost/lam`` far above the domain (a very negative
    cost); the plan would be NaN or meaningless.

    The output is an intermediate iterate on purpose: it is generally
    infeasible (nonzero marginal residuals) but, within the iteration
    budget for a tolerance z, provably transports no mass to columns
    whose costs all reach z.
    """
    # A costs.SqEuclideanCost checks each block it evaluates.
    gamma = cost if hasattr(cost, "dense") else _validate_cost(cost)
    m, n = gamma.shape
    pot = beta_potential(cfg.beta)
    iterations = _resolve_iterations(cfg, m, n)
    _check_lambda(cfg.lam)

    found = _candidate_entries(gamma, _certified_cost(pot, cfg.lam, m, n, iterations))
    caps = {size: phi_prime(1.0 / size, pot) for size in (m, n)}
    # An overflow of the conjugate makes a step non-finite, and
    # _truncated_step raises DomainError on it.
    with np.errstate(over="ignore", invalid="ignore"):
        if found is None:
            if not isinstance(gamma, np.ndarray):
                gamma = gamma.dense()
            pi, costs = _dense_plan(gamma, pot, cfg.lam, iterations, caps)
        else:
            pi, costs = _candidate_plan((m, n), *found, pot, cfg.lam, iterations, caps)
    return TransportPlan(pi, _entries_value(pi, costs), iterations)


# A dense loop of at least this many entries runs on two blocks (see _dense_plan).
_TWO_BLOCK_ENTRIES = 1 << 17


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else ``os.cpu_count``.

    The one count behind the dense loop's blocks.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _dense_plan(gamma, pot, lam, iterations, caps):
    """The robust loop on the whole dual, the conjugate on its active entries.

    The dual is kept as k C-ordered column panels, k = 2 when there are
    two usable CPUs, ``min(m, n) >= 2`` and at least
    :data:`_TWO_BLOCK_ENTRIES` entries, else k = 1, the whole dual.  One
    step serves both axes.  A row half-step runs it on k row blocks: each
    gathers its rows' active entries panel after panel into one
    ``bincount``, so a row still adds its entries in row-major order.  A
    column half-step runs it on each panel, whose columns add theirs row
    after row.  Every line maximum, sum and step is thus the one-block
    loop's bit for bit.

    With k = 2 one helper thread, which lives only as long as the call,
    takes the second block of each half-step while this thread takes the
    first; numpy releases the GIL in the per-entry work.  A
    :class:`DomainError` from either block is raised once both are done.
    Below some size the hand-offs cost more than the halves save, since
    numpy keeps the GIL on small arrays.  Measured on a 2-vCPU Xeon guest
    (squared distances between two Gaussian clouds in the plane, T=80,
    two blocks over one, medians of 15-40 interleaved runs): 4.23 at
    2,500 entries, 2.73 at 16,384, 1.87 at 32,761, 1.10 at 65,536, 1.08
    at 90,000, 0.85 at 131,044 and 0.69 at 255,000 (510 x 500, the
    size of the paper's robust-distance criterion), so the crossover
    lies between 90,000 and 131,044 entries.

    Returns what :func:`_candidate_plan` does: the :class:`PlanEntries`
    above the bound and the costs at them.
    """
    m, n = gamma.shape
    bound = pot.clamp_bound
    k = 2 if min(m, n) >= 2 and m * n >= _TWO_BLOCK_ENTRIES and _usable_cpus() >= 2 else 1
    # Fresh C-ordered panels, so their flat views are views even for an
    # F-ordered cost such as gamma.T.
    edges = [n * i // k for i in range(k + 1)]
    panels = [np.negative(gamma[:, a:b], order="C") for a, b in zip(edges, edges[1:])]
    for panel in panels:
        panel /= lam
    halves = [[panel[m * i // k:m * (i + 1) // k] for panel in panels] for i in range(k)]

    def step(blocks, axis):
        """One half-step on the rows of ``blocks`` (axis 1) or the columns of its one panel."""
        size = (n, m)[axis]
        active = [np.flatnonzero(block > bound) for block in blocks]
        values = _joined([b.reshape(-1)[i] for b, i in zip(blocks, active)])
        # Each entry's line; numpy divides by a scalar faster than % width.
        lines = _joined([i // b.shape[1] if axis else i - i // b.shape[1] * b.shape[1]
                         for b, i in zip(blocks, active)])
        del active
        theta_hat = np.full(blocks[0].shape[1 - axis], bound)
        for block in blocks:
            np.maximum(theta_hat, block.max(axis=axis), out=theta_hat)
        shift = _half_step(theta_hat, values, lines, pot, caps[size], size)
        for block in blocks:
            block -= shift[:, None] if axis else shift

    with _block_runner(k) as run:
        for _ in range(iterations):
            run(step, halves, 1)
            run(step, [[panel] for panel in panels], 0)
    theta = _joined(panels, axis=1)
    del panels, halves
    # take flattens in C order, so an F-ordered cost gives the same costs.
    return _plan_entries((m, n), theta.reshape(-1), pot, None, gamma)


def _joined(arrays, axis=0):
    """The arrays concatenated along ``axis``; a single one as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


@contextmanager
def _block_runner(k: int):
    """``run(task, blocks, *args)`` calls ``task(block, *args)`` on every block, k at a time.

    With k = 2 a helper thread takes the second block while the caller
    takes the first, under the caller's errstate for the robust loop
    (errstate does not carry over to new threads), and the first error is
    raised once both are done.  The thread ends with the ``with`` block.
    ``concurrent.futures`` is imported here, never at start-up.
    """
    if k == 1:
        yield lambda task, blocks, *args: task(blocks[0], *args)
        return
    from concurrent.futures import ThreadPoolExecutor

    def in_errstate(task, block, *args):
        with np.errstate(over="ignore", invalid="ignore"):
            task(block, *args)

    def run(task, blocks, *args):
        first, second = blocks
        later = pool.submit(in_errstate, task, second, *args)
        try:
            task(first, *args)
        finally:
            error = later.exception()
        if error is not None:
            raise error

    with ThreadPoolExecutor(max_workers=1) as pool:
        yield run


def _candidate_plan(shape, index, costs, pot, lam, iterations, caps):
    """The robust loop on the entries at the sorted row-major flat ``index``.

    ``costs`` holds their costs.  Every other entry stays clamped (see
    :func:`_certified_cost`).  The line maxima and sums equal the dense
    loop's bit for bit: a maximum does not depend on order, and both
    loops sum with :func:`_half_step` over the active entries in
    row-major order.  Returns the :class:`PlanEntries` of the plan and
    the costs at its entries.
    """
    m, n = shape
    bound = pot.clamp_bound
    rows, cols = np.divmod(index, n)
    theta = -costs / lam
    for _ in range(iterations):
        for lines, size in ((rows, m), (cols, n)):
            active = np.flatnonzero(theta > bound)
            values = theta[active]
            on = lines[active]
            theta_hat = np.full(size, bound)
            np.maximum.at(theta_hat, on, values)
            theta -= _half_step(theta_hat, values, on, pot, caps[size], size)[lines]
    return _plan_entries(shape, theta, pot, index, costs)


def _half_step(theta_hat, values, lines, pot, cap, size):
    """The truncated steps of one half-step, one per row or column.

    ``values`` are the dual's active entries (above the bound) in
    row-major order, consumed in place, and ``lines`` their rows or
    columns, counted from the first of ``theta_hat``, which holds the
    line maxima of the clamped dual; ``size`` is the marginal's count.
    Each line's ``psi'`` and ``psi''`` are summed with ``bincount``, one
    entry after another.
    """
    ps, pss = _psi_pair_inplace(values, pot)
    ps_sum = np.bincount(lines, weights=ps, minlength=theta_hat.size)
    pss_sum = np.bincount(lines, weights=pss, minlength=theta_hat.size)
    return _truncated_step(theta_hat, ps_sum, pss_sum, cap, size)


def _plan_entries(shape, theta, pot, index, costs):
    """The :class:`PlanEntries` of the flat dual ``theta`` above the bound and their costs.

    ``theta``'s entries sit at the flat ``index`` (None: at every flat
    index) and cost ``costs``, which may be the m x n cost.
    """
    active = np.flatnonzero(theta > pot.clamp_bound)
    at = active if index is None else index[active]
    return PlanEntries(shape, at, _psi_prime_inplace(theta[active], pot)), np.take(costs, active)


def sinkhorn_solve(
    cost,
    lam: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> TransportPlan:
    """Classical scaling iterations for the Shannon entropy, on an offset kernel.

    Uniform marginals 1/m and 1/n.  Stops when the summed row+column L1
    residual drops to ``tol`` (at least 0) or after ``max_iter`` (at least
    1) completed iterations; residuals are reported either way.

    The plan is ``diag(u) K diag(v)`` for ``K = exp((f_i + g_j - C_ij)/lam)``
    in one buffer (Schmitzer, SIAM J. Sci. Comput. 2019).  ``f`` starts at
    the row minima of ``C`` and ``g`` at the column minima of ``C - f``,
    with ``u = v = 1``.  A scaling outside ``[1e-50, 1e50]`` is absorbed
    (``f += lam*log(u)``, ``g += lam*log(v)``, ``u = v = 1``) long before
    a line of ``K`` could underflow.

    With the exponent formed as ``(f_i - C_ij) + g_j``, the first ``K``
    has an entry exactly 1 in every line and none above 1.  Rounding is
    monotone, so ``fl(C_ij - f_i) >= 0`` and ``g_j <= fl(C_ij - f_i) =
    -fl(f_i - C_ij)``.  At a row's minimum ``f_i - C_ij = 0``, so
    ``g_j = 0``; at a column's minimum ``fl(f_i - C_ij) = -g_j``.  The
    first update thus gives ``1/(mn) <= u <= 1/m`` and ``1/n <= v <= m``.

    Raises :class:`NumericalUnderflowError` when the spread of ``cost/lam``
    overflows the floats, or an update is not finite.
    """
    gamma = _scaling_cost(cost, lam, tol, max_iter)
    m, n = gamma.shape
    r = 1.0 / m
    c = 1.0 / n
    kernel = np.empty((m, n))
    f = gamma.min(axis=1, keepdims=True)
    g = np.subtract(gamma, f, out=kernel).min(axis=0)
    iterations = 0
    # Exponents below the floats give zeros; a non-finite update raises below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u, v, kv = _restart(gamma, f, g, lam, kernel)
        while iterations < max_iter:
            if max(u.max(), v.max(), 1 / u.min(), 1 / v.min()) > 1e50:
                f += lam * np.log(u)[:, None]
                g += lam * np.log(v)
                u, v, kv = _restart(gamma, f, g, lam, kernel)
            u = r / kv
            ktu = kernel.T @ u
            v = c / ktu
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                raise NumericalUnderflowError("scalings overflowed on the offset kernel")
            iterations += 1
            # Marginals of diag(u) K diag(v) without forming it; K v is the
            # next iteration's denominator.
            kv = kernel @ v
            residual = np.abs(u * kv - r).sum() + np.abs(v * ktu - c).sum()
            if residual <= tol:
                break
    kernel *= u[:, None]
    kernel *= v[None, :]
    return TransportPlan(kernel, _dense_value(kernel, gamma), iterations, tol)


def _restart(gamma, f, g, lam, kernel):
    """``exp(((f - C) + g)/lam)`` into ``kernel`` (``f`` a column); ``u = v = 1``, ``K v``."""
    np.subtract(f, gamma, out=kernel)
    kernel += g
    kernel /= lam
    np.exp(kernel, out=kernel)
    v = np.ones(kernel.shape[1])
    return np.ones(kernel.shape[0]), v, kernel @ v


def nasa_solve(
    cost,
    lam: float,
    pot: Potential,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> TransportPlan:
    """Alternating exact projections for the cofinite generators.

    Each half-step projects exactly onto the row-sum set (rows sum to
    1/m), then the column-sum set (1/n), until the plan's marginal
    residual reaches ``tol`` or ``max_iter`` cycles elapse.  For Shannon
    that projection is Sinkhorn's scaling, so the result is
    :func:`sinkhorn_solve`'s.  For squared Euclidean the plan is
    ``max(a, 0)`` for ``a = 1 - C/lam - tau_i - sigma_j``, and a half-step
    subtracts per line the shift ``t`` with ``sum max(a - t, 0) = 1/m``
    (or ``1/n``), found by a sort (:func:`_line_shift`); the loop keeps
    ``a``, which holds the multipliers, and never clamps it.  A feasible
    plan of this form is the unique optimum (Blondel, Seguy & Rolet,
    AISTATS 2018).  ``a`` starts from the cost less its row minima, a
    constant per row that ``tau`` absorbs, so every row starts with a 1.

    Rejects the beta potential: its conjugate domain is bounded below, so
    multi-step Newton updates can leave it (the reason the truncated
    single-step loop exists).  Raises :class:`NumericalUnderflowError`
    when the spread of ``cost/lam`` overflows.
    """
    if not pot.is_cofinite:
        raise UnsupportedGeneratorError(
            "nasa_solve requires a cofinite generator (shannon or "
            "sq_euclidean); use robust_solve for the beta potential"
        )
    if pot.kind == SHANNON:
        return sinkhorn_solve(cost, lam, tol, max_iter)
    gamma = _scaling_cost(cost, lam, tol, max_iter)
    m, n = gamma.shape

    a = 1.0 - (gamma - gamma.min(axis=1, keepdims=True)) / lam
    for iterations in range(1, max_iter + 1):
        a -= _line_shift(a, 1.0 / m)[:, None]
        a -= _line_shift(a.T, 1.0 / n)
        if _stop_residual(np.maximum(a, 0.0), m, n) <= tol:
            break
    pi = np.maximum(a, 0.0, out=a)
    return TransportPlan(pi, _dense_value(pi, gamma), iterations, tol)


def _line_shift(a, total):
    """Per row of ``a``, the shift ``t`` with ``sum_j max(a_j - t, 0) = total``.

    With the row sorted in descending order, ``t`` is ``(sum of the k
    largest - total)/k`` for the last k whose k-th entry lies above that
    value (Condat, Math. Program. 2016).  Those k form a leading run, so
    k is the run's length, and at least 1 where ``max - total`` rounds to
    the maximum itself.
    """
    top = np.sort(a, axis=1)[:, ::-1]
    shifts = np.cumsum(top, axis=1)
    shifts -= total
    shifts /= np.arange(1, a.shape[1] + 1)
    run = np.logical_and.accumulate(top > shifts, axis=1).sum(axis=1)
    return shifts[np.arange(a.shape[0]), np.maximum(run, 1) - 1]


def _stop_residual(pi, m, n) -> float:
    """The summed marginal residual under numpy's sums: a stopping test, never reported."""
    rows, cols = np.abs(pi.sum(axis=1) - 1.0 / m), np.abs(pi.sum(axis=0) - 1.0 / n)
    return float(rows.sum()) + float(cols.sum())


def _plan_data(plan):
    """A plan's entries or dense array; a caller's array goes through :func:`_validate_cost`."""
    if isinstance(plan, TransportPlan):
        return plan.pi if plan.entries is None else plan.entries
    return plan if isinstance(plan, PlanEntries) else _validate_cost(plan, "plan")


def transport_value(plan, cost) -> float:
    """Frobenius inner product of a plan with the cost matrix.

    The numpy sum of the row sums of plan x cost, each added entry after
    entry (see :func:`marginal_residuals`), with no m x n temporary.
    An empty, non-2-D or non-finite array raises :class:`DimensionMismatchError` or ``ValueError``.
    """
    pi = _plan_data(plan)
    gamma = _validate_cost(cost)
    if pi.shape != gamma.shape:
        raise DimensionMismatchError(f"plan shape {pi.shape} != cost shape {gamma.shape}")
    if isinstance(pi, PlanEntries):
        return _entries_value(pi, gamma[np.divmod(pi.index, pi.shape[1])])
    return _dense_value(pi, gamma)


def _dense_value(pi, gamma) -> float:
    """:func:`transport_value` of a dense plan, unchecked."""
    return float(np.sum(_line_sums(pi, gamma)))


def _entries_value(entries: PlanEntries, costs) -> float:
    """:func:`transport_value` of a plan's entries from the costs at them."""
    m, n = entries.shape
    return float(np.sum(np.bincount(entries.index // n, weights=entries.values * costs,
                                    minlength=m)))


def marginal_residuals(plan, m: int, n: int) -> tuple[float, float]:
    """L1 distances of the plan's row/column sums from 1/m and 1/n.

    Each row and each column adds its entries one after another in
    row-major order: ``bincount`` over a plan's entries, a
    ``cumsum`` over a few rows of a dense plan (or of its transpose) at
    a time.  A C-ordered dense plan with two or more columns takes its
    column sums from ``sum(axis=0)``, which adds row after row, at
    about a tenth of the cost.  The forms give the same residuals,
    whatever the shape or memory order (``TestSummationRule`` pins
    numpy's order at every release the package supports).  Raises
    :class:`DimensionMismatchError` for an empty or non-2-D plan array or
    unless ``(m, n)`` is its shape, ``ValueError`` for a non-finite one.
    """
    pi = _plan_data(plan)
    if pi.shape != (m, n):
        raise DimensionMismatchError(f"plan shape {pi.shape} != marginal sizes {(m, n)}")
    return _residuals(pi)


def _residuals(pi) -> tuple[float, float]:
    """:func:`marginal_residuals` of a plan's entries or dense array, unchecked."""
    m, n = pi.shape
    if isinstance(pi, PlanEntries):
        rows, cols = np.divmod(pi.index, n)
        row_sums = np.bincount(rows, weights=pi.values, minlength=m)
        col_sums = np.bincount(cols, weights=pi.values, minlength=n)
    else:
        row_sums = _line_sums(pi)
        # numpy adds a C-ordered plan's rows one after another into its
        # column sums; an m x 1 plan it sums pairwise.
        col_sums = pi.sum(axis=0) if n > 1 and pi.flags.c_contiguous else _line_sums(pi.T)
    return float(np.abs(row_sums - 1.0 / m).sum()), float(np.abs(col_sums - 1.0 / n).sum())


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
