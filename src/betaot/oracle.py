"""Exact discrete transport on small instances, for validating the solvers.

Square instances with uniform marginals reduce to the assignment problem
(an optimal vertex of the scaled Birkhoff polytope is 1/n times a
permutation matrix); rectangular ones are solved as an explicit LP over
the transport polytope.  A brute-force permutation enumeration is kept as
an independent cross-check for tiny instances and deliberately shares no
code with the assignment path.

Every path returns a dense :class:`~betaot.solver.TransportPlan` with no
iteration count.  Its ``value`` is the oracle's own arithmetic (the
assigned or enumerated costs summed over n, or the LP's objective), not
the plan's summation rule: solver values are tested against it.

The assignment and LP solvers come from scipy, imported on the first
call that needs them, so importing this module does not load scipy.
"""

import itertools
import math

import numpy as np

from .errors import NumericalUnderflowError, SizeError
from .solver import TransportPlan, _validate_cost

MAX_CELLS = 10**6
BRUTE_FORCE_MAX = 7


def exact_ot(cost) -> TransportPlan:
    """Exact minimum-cost coupling with uniform marginals 1/m, 1/n, as a dense plan.

    Square instances go through the Hungarian-style assignment solver;
    rectangular ones through an LP (HiGHS) over the transport polytope.
    This is a test oracle: instances beyond ``MAX_CELLS`` cells raise :class:`SizeError`,
    an empty, non-2-D or non-finite cost :class:`DimensionMismatchError` or ``ValueError``,
    and an LP that HiGHS fails to solve :class:`NumericalUnderflowError`.
    """
    gamma = _validate_cost(cost)
    m, n = gamma.shape
    if m * n > MAX_CELLS:
        raise SizeError(f"instance with {m * n} cells exceeds the oracle cap {MAX_CELLS}")
    if m == n:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(gamma)
        plan = np.zeros_like(gamma)
        plan[rows, cols] = 1.0 / n
        return TransportPlan(plan, float(gamma[rows, cols].sum() / n), None)
    return _exact_ot_lp(gamma)


def _exact_ot_lp(gamma: np.ndarray) -> TransportPlan:
    from scipy import sparse
    from scipy.optimize import linprog

    m, n = gamma.shape
    # Row-sum and column-sum equality constraints on the flattened plan,
    # sparse: 2mn nonzeros instead of a dense (m+n) x mn matrix.
    a_eq = sparse.vstack(
        [
            sparse.kron(sparse.eye(m), np.ones((1, n))),
            sparse.kron(np.ones((1, m)), sparse.eye(n)),
        ],
        format="csr",
    )
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)])
    # HiGHS fails on costs from about 1e19: solve on the cost times the power
    # of two that brings its largest entry into [0.5, 1), which rounds nothing.
    _, e = math.frexp(float(np.abs(gamma).max()))
    res = linprog(np.ldexp(gamma.ravel(), -e), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise NumericalUnderflowError(f"transport LP failed: {res.message}")
    return TransportPlan(res.x.reshape(m, n), math.ldexp(res.fun, e), None)


def exact_ot_bruteforce(cost) -> TransportPlan:
    """Enumerate all permutations of a square instance (n <= 7).

    Independent of the assignment path on purpose.  Ties are broken by the
    lexicographically smallest permutation (the enumeration order with
    strict improvement keeps the first optimum).  Costs follow :func:`exact_ot`'s
    rule, and a cost that is not square raises ``ValueError``.
    """
    gamma = _validate_cost(cost)
    if gamma.shape[0] != gamma.shape[1]:
        raise ValueError("brute force requires a square cost matrix")
    n = gamma.shape[0]
    if n > BRUTE_FORCE_MAX:
        raise SizeError(f"brute force capped at n={BRUTE_FORCE_MAX}, got {n}")
    idx = np.arange(n)
    best_perm = None
    best_sum = np.inf
    for perm in itertools.permutations(range(n)):
        total = gamma[idx, perm].sum()
        if total < best_sum:
            best_sum = total
            best_perm = perm
    plan = np.zeros_like(gamma)
    plan[idx, best_perm] = 1.0 / n
    return TransportPlan(plan, float(gamma[idx, best_perm].sum() / n), None)
