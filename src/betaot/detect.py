"""Outlier identification from transport plans and a min-distance baseline.

A target point is declared an outlier when its entire plan column carries
no mass (the zero-column rule).  Run within the iteration budget for a
tolerance z, the truncated solver yields exact zero columns for every
point at cost >= z from all sources, so the rule needs no threshold
tuning; ``eps_zero`` exists only as floating-point hygiene for user data.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .solver import PlanEntries, _plan_data, _validate_cost

ZERO_COLUMN = "zero_column"
BASELINE = "baseline"


@dataclass
class OutlierReport:
    """Flagged column indices, the number of columns and the rule that flagged them."""

    flagged: list[int]
    n: int
    method: str


@dataclass
class DetectionMetrics:
    """Recall on true outliers and specificity on true inliers, both in [0, 1]."""

    outlier_recall: float
    inlier_specificity: float


def _check_eps_zero(eps_zero: float) -> None:
    """Reject a NaN threshold: no plan entry compares at most NaN, so it would flag nothing."""
    if np.isnan(eps_zero):
        raise ValueError("eps_zero must not be NaN")


def detect_outliers(plan, eps_zero: float = 1e-12) -> OutlierReport:
    """Flag every column whose largest plan entry is at most ``eps_zero``.

    The caller is responsible for having produced the plan within a valid
    iteration budget.  A degenerate all-zero plan flags every column
    (surfaced, not hidden).  A NaN ``eps_zero``, which flags nothing, raises ``ValueError``,
    a non-finite plan array too, an empty or non-2-D one :class:`DimensionMismatchError`.
    """
    _check_eps_zero(eps_zero)
    pi = _plan_data(plan)
    if isinstance(pi, PlanEntries):
        # Plan entries are nonnegative, so the zeros left out set the floor.
        col_max = np.zeros(pi.shape[1])
        np.maximum.at(col_max, pi.index % pi.shape[1], pi.values)
    else:
        col_max = pi.max(axis=0)
    flagged = np.flatnonzero(col_max <= eps_zero)
    return OutlierReport(flagged=[int(j) for j in flagged], n=pi.shape[1], method=ZERO_COLUMN)


def baseline_detect(cost, z: float) -> OutlierReport:
    """Flag every column whose minimum cost strictly exceeds ``z``.

    Strict inequality: a point exactly at distance z is treated as an
    inlier by this method.  A negative or NaN ``z`` or a non-finite cost
    raises ``ValueError``, an empty or non-2-D cost :class:`DimensionMismatchError`.
    """
    gamma = _validate_cost(cost)
    if not z >= 0.0:
        raise ValueError(f"z must be nonnegative, got {z}")
    flagged = np.flatnonzero(gamma.min(axis=0) > z)
    return OutlierReport(flagged=[int(j) for j in flagged], n=gamma.shape[1], method=BASELINE)


def detection_metrics(report: OutlierReport, truth) -> DetectionMetrics:
    """Score flagged indices against a ground-truth outlier set.

    Recall is the fraction of true outliers flagged (1 when there are
    none); specificity is the fraction of true inliers left unflagged
    (1 when every point is an outlier).  A truth index that is not an
    integer (a bool is not) in [0, n) raises ``ValueError``.
    """
    truth = list(truth)
    if not all(isinstance(j, numbers.Integral) and not isinstance(j, bool) and 0 <= j < report.n
               for j in truth):
        raise ValueError(f"truth indices must be integers in [0, {report.n}), not bools or floats")
    truth_set = {int(j) for j in truth}
    flagged_set = set(report.flagged)
    n_inliers = report.n - len(truth_set)
    recall = len(flagged_set & truth_set) / len(truth_set) if truth_set else 1.0
    specificity = (n_inliers - len(flagged_set - truth_set)) / n_inliers if n_inliers > 0 else 1.0
    return DetectionMetrics(outlier_recall=recall, inlier_specificity=specificity)
