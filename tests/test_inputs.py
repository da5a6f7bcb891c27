"""One input rule: every public function that takes a cost or a plan rejects it alike.

A cost or a plan given as an array must be a nonempty 2-D matrix
(:class:`DimensionMismatchError`) with finite entries (``ValueError``),
with the same message wherever it enters; a plan's message says "plan".
A :class:`SqEuclideanCost` is accepted wherever a cost is, and a plan
the package made, the exact oracle's included, is not checked again.
"""

from unittest import mock

import numpy as np
import pytest

from betaot import (
    DimensionMismatchError,
    OutlierReport,
    SolverConfig,
    SqEuclideanCost,
    TransportPlan,
    auto_scale,
    baseline_detect,
    detect_outliers,
    exact_ot,
    exact_ot_bruteforce,
    marginal_residuals,
    median_threshold,
    nasa_solve,
    robust_solve,
    sinkhorn_solve,
    squared_euclidean,
    transport_value,
)
from betaot import oracle, solver

COST = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 1.0, 0.0]])
PLAN = np.full((3, 3), 1.0 / 9.0)


def _with_first_entry(value):
    out = COST.copy()
    out[0, 0] = value
    return out


# Each bad input: (array, exception type, message after the noun).
BAD = {
    "1-D": (np.array([0.0, 1.0, 2.0]), DimensionMismatchError, "must be a nonempty 2-D matrix"),
    "0x3": (np.zeros((0, 3)), DimensionMismatchError, "must be a nonempty 2-D matrix"),
    "nan": (_with_first_entry(np.nan), ValueError, "matrix must be finite (no NaN/Inf)"),
    "inf": (_with_first_entry(np.inf), ValueError, "matrix must be finite (no NaN/Inf)"),
}

# Each public function with one argument left open: (name, noun, call).
TAKERS = [
    ("robust_solve", "cost", lambda c: robust_solve(c, SolverConfig(iterations=3))),
    ("sinkhorn_solve", "cost", lambda c: sinkhorn_solve(c, 1.0)),
    ("nasa_solve", "cost", lambda c: nasa_solve(c, 1.0, squared_euclidean())),
    ("exact_ot", "cost", exact_ot),
    ("exact_ot_bruteforce", "cost", exact_ot_bruteforce),
    ("baseline_detect", "cost", lambda c: baseline_detect(c, 0.5)),
    ("median_threshold", "cost", median_threshold),
    ("auto_scale", "cost", lambda c: auto_scale(c, 1.0, SolverConfig(), (5, 10))),
    ("transport_value", "cost", lambda c: transport_value(PLAN, c)),
    ("transport_value", "plan", lambda p: transport_value(p, COST)),
    ("marginal_residuals", "plan", lambda p: marginal_residuals(p, 3, 3)),
    ("detect_outliers", "plan", detect_outliers),
]
TAKER_PARAMS = [pytest.param(noun, call, id=f"{name}-{noun}") for name, noun, call in TAKERS]


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("noun, call", TAKER_PARAMS)
def test_every_entry_point_rejects_a_bad_array_alike(noun, call, bad):
    array, kind, message = BAD[bad]
    with pytest.raises(kind) as info:
        call(array)
    assert type(info.value) is kind
    assert str(info.value) == f"{noun} {message}"


@pytest.mark.parametrize("noun, call", TAKER_PARAMS)
def test_every_entry_point_accepts_the_valid_array(noun, call):
    call(PLAN if noun == "plan" else COST)


def _bits(result):
    """A result as bytes and exact values, so equal bits compare equal."""
    if isinstance(result, TransportPlan):
        return (result.pi.tobytes(), result.value.hex(), result.row_residual_l1.hex(),
                result.col_residual_l1.hex(), result.iterations_run, result.converged)
    if isinstance(result, OutlierReport):
        return result.flagged, result.n, result.method
    return result.hex()


# Two point clouds whose cost is 4 x 3, and two whose cost is square.
LAZY = SqEuclideanCost([[0.0, 0.5], [1.0, 0.0], [0.3, 2.0], [2.0, 1.5]],
                       [[0.1, 0.2], [1.5, 1.0], [0.0, 1.7]])
LAZY_SQUARE = SqEuclideanCost([[0.0], [1.0], [2.5]], [[0.2], [3.0], [1.1]])

# Each function that forms a lazy cost through _validate_cost: (name, call, cost).
LAZY_TAKERS = [
    ("median_threshold", median_threshold, LAZY),
    ("baseline_detect", lambda c: baseline_detect(c, 0.5), LAZY),
    ("transport_value", lambda c: transport_value(np.full((4, 3), 1.0 / 12.0), c), LAZY),
    ("sinkhorn_solve", lambda c: sinkhorn_solve(c, 1.0), LAZY),
    ("nasa_solve", lambda c: nasa_solve(c, 1.0, squared_euclidean()), LAZY),
    ("exact_ot", exact_ot, LAZY),
    ("exact_ot_bruteforce", exact_ot_bruteforce, LAZY_SQUARE),
]


@pytest.mark.parametrize("call, cost", [pytest.param(c, k, id=n) for n, c, k in LAZY_TAKERS])
def test_a_lazy_cost_gives_the_bits_of_its_dense_matrix(call, cost):
    assert _bits(call(cost)) == _bits(call(cost.dense()))


def _solver_results():
    return [robust_solve(COST, SolverConfig(iterations=3)), sinkhorn_solve(COST, 1.0),
            nasa_solve(COST, 1.0, squared_euclidean()), exact_ot(COST), exact_ot_bruteforce(COST)]


def test_the_diagnostics_accept_every_solver_result():
    for plan in _solver_results():
        assert marginal_residuals(plan, 3, 3) == (plan.row_residual_l1, plan.col_residual_l1)
        assert transport_value(plan, COST) == pytest.approx(plan.value, rel=1e-12, abs=1e-15)
        assert detect_outliers(plan).n == 3


def test_a_plan_the_package_made_is_not_checked_again():
    sparse, *dense = _solver_results()
    with mock.patch.object(solver, "_validate_cost", side_effect=AssertionError):
        for plan in (sparse, sparse.entries, *dense):
            marginal_residuals(plan, 3, 3)
            detect_outliers(plan)


@pytest.mark.parametrize("solve", [
    pytest.param(lambda c: sinkhorn_solve(c, 1.0), id="sinkhorn_solve"),
    pytest.param(lambda c: nasa_solve(c, 1.0, squared_euclidean()), id="nasa_solve"),
    pytest.param(exact_ot, id="exact_ot"),
    pytest.param(lambda c: exact_ot(c[:2]), id="exact_ot-lp"),
])
def test_a_solve_checks_the_cost_once(solve):
    spy = mock.Mock(wraps=solver._validate_cost)
    with mock.patch.object(solver, "_validate_cost", spy), \
            mock.patch.object(oracle, "_validate_cost", spy):
        solve(COST)
    assert spy.call_count == 1
