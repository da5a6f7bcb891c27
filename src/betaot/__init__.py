"""Outlier-robust regularized optimal transport.

Transport plans are computed by alternating dual-coordinate scaling under
a beta power regularizer whose conjugate domain is bounded below; run for
a bounded number of truncated Newton steps, the solver provably sends
zero mass to any target point whose costs to every source point reach a
tolerance z.  That exact-zero structure doubles as an outlier detector.
The classical entropy-regularized scaling solver, a generic alternating
projection solver for cofinite regularizers, and an exact small-instance
reference are included for comparison and validation.
"""

from .costs import (
    SqEuclideanCost,
    auto_scale,
    estimate_z,
    median_threshold,
    sq_euclidean_cost,
)
from .detect import (
    DetectionMetrics,
    OutlierReport,
    baseline_detect,
    detect_outliers,
    detection_metrics,
)
from .errors import (
    AutoScaleError,
    BetaOTError,
    BudgetExhaustedError,
    DimensionMismatchError,
    DomainError,
    FormatError,
    InfeasibleToleranceError,
    NumericalUnderflowError,
    SizeError,
    UnsupportedGeneratorError,
)
from .oracle import ExactSolution, exact_ot, exact_ot_bruteforce
from .potentials import (
    Potential,
    beta_potential,
    bregman_div,
    phi,
    phi_prime,
    psi_prime,
    psi_second,
    shannon,
    squared_euclidean,
)
from .solver import (
    IterationBudget,
    SolverConfig,
    TransportPlan,
    iteration_budget,
    marginal_residuals,
    nasa_solve,
    robust_solve,
    sinkhorn_solve,
    transport_value,
)

__version__ = "0.1.0"

__all__ = [
    "AutoScaleError",
    "BetaOTError",
    "BudgetExhaustedError",
    "DetectionMetrics",
    "DimensionMismatchError",
    "DomainError",
    "ExactSolution",
    "FormatError",
    "InfeasibleToleranceError",
    "IterationBudget",
    "NumericalUnderflowError",
    "OutlierReport",
    "Potential",
    "SizeError",
    "SolverConfig",
    "SqEuclideanCost",
    "TransportPlan",
    "UnsupportedGeneratorError",
    "auto_scale",
    "baseline_detect",
    "beta_potential",
    "bregman_div",
    "detect_outliers",
    "detection_metrics",
    "estimate_z",
    "exact_ot",
    "exact_ot_bruteforce",
    "iteration_budget",
    "marginal_residuals",
    "median_threshold",
    "nasa_solve",
    "phi",
    "phi_prime",
    "psi_prime",
    "psi_second",
    "robust_solve",
    "shannon",
    "sinkhorn_solve",
    "sq_euclidean_cost",
    "squared_euclidean",
    "transport_value",
]
