"""One input rule: every public function that takes a cost or a plan rejects it alike.

A cost or a plan given as an array must be a nonempty 2-D matrix
(:class:`DimensionMismatchError`) with finite entries (``ValueError``),
with the same message wherever it enters; a plan's message says "plan".
"""

from unittest import mock

import numpy as np
import pytest

from betaot import (
    DimensionMismatchError,
    SolverConfig,
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
from betaot import solver

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


def test_a_plan_the_package_made_is_not_checked_again():
    sparse = robust_solve(COST, SolverConfig(iterations=3))
    dense = sinkhorn_solve(COST, 1.0)
    with mock.patch.object(solver, "_validate_cost", side_effect=AssertionError):
        for plan in (sparse, sparse.entries, dense):
            marginal_residuals(plan, 3, 3)
            detect_outliers(plan)
