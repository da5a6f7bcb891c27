"""Outlier identification from transport plans and a min-distance baseline.

A target point is declared an outlier when its entire plan column carries
no mass (the zero-column rule).  Run within the iteration budget for a
tolerance z, the truncated solver yields exact zero columns for every
point at cost >= z from all sources, so the rule needs no threshold
tuning; ``eps_zero`` exists only as floating-point hygiene for user data.
"""

from dataclasses import dataclass

import numpy as np

from .solver import PlanEntries, _plan_data

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


def detect_outliers(plan, eps_zero: float = 1e-12) -> OutlierReport:
    """Flag every column whose largest plan entry is at most ``eps_zero``.

    The caller is responsible for having produced the plan within a valid
    iteration budget.  A degenerate all-zero plan flags every column
    (surfaced, not hidden).  A NaN ``eps_zero``, which flags nothing, raises ``ValueError``.
    """
    if np.isnan(eps_zero):
        raise ValueError("eps_zero must not be NaN")
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
    inlier by this method.
    """
    gamma = np.asarray(cost, dtype=float)
    if z < 0.0:
        raise ValueError(f"z must be nonnegative, got {z}")
    flagged = np.flatnonzero(gamma.min(axis=0) > z)
    return OutlierReport(flagged=[int(j) for j in flagged], n=gamma.shape[1], method=BASELINE)


def detection_metrics(report: OutlierReport, truth) -> DetectionMetrics:
    """Score flagged indices against a ground-truth outlier set.

    Recall is the fraction of true outliers flagged (1 when there are
    none); specificity is the fraction of true inliers left unflagged
    (1 when every point is an outlier).
    """
    truth_set = {int(j) for j in truth}
    if truth_set and (min(truth_set) < 0 or max(truth_set) >= report.n):
        raise ValueError("truth indices must lie in [0, n)")
    flagged_set = set(report.flagged)
    n_inliers = report.n - len(truth_set)
    if truth_set:
        recall = len(flagged_set & truth_set) / len(truth_set)
    else:
        recall = 1.0
    if n_inliers > 0:
        false_flags = len(flagged_set - truth_set)
        specificity = (n_inliers - false_flags) / n_inliers
    else:
        specificity = 1.0
    return DetectionMetrics(outlier_recall=recall, inlier_specificity=specificity)
