#!/usr/bin/env python3
"""Transport-plan heatmap data with outliers on the source side.

The source histogram holds 495 standard-normal samples plus 5 points
pinned at 70; the target histogram holds 500 standard-normal samples.
Solving on the transposed cost within the iteration budget for z = 1000
sends exactly zero mass from the 5 outlier rows.  The plan is written as
dense CSV (sorted by sample position) ready for external heatmap tooling,
into a fresh temporary directory whose path is printed.
"""

import tempfile
from pathlib import Path

import numpy as np

from betaot import SolverConfig, iteration_budget, robust_solve, sq_euclidean_cost
from betaot.fileio import write_matrix

rng = np.random.default_rng(303)
targets = np.sort(rng.standard_normal(500))[:, None]
source = np.concatenate([rng.standard_normal(495), np.full(5, 70.0)])
order = np.argsort(source)
source = source[order][:, None]
outlier_rows = np.flatnonzero(source[:, 0] == 70.0)

gamma = sq_euclidean_cost(source, targets)

z = 1000.0
cfg = SolverConfig(beta=1.2, lam=2.0, z=z)
budget = iteration_budget(z, cfg, gamma.shape[1], gamma.shape[0])
print(f"tolerance z={z}, iteration budget T={budget.budget}")

plan_t = robust_solve(gamma.T, cfg)  # rows of the transpose = targets
plan = plan_t.pi.T

print("mass transported from the 5 outlier rows:", plan[outlier_rows, :].sum())
print("largest plan entry:", plan.max())
print("row residual:", round(plan_t.col_residual_l1, 6),
      " column residual:", round(plan_t.row_residual_l1, 6))

out_path = Path(tempfile.mkdtemp(prefix="betaot-heatmap-")) / "heatmap_plan.csv"
write_matrix(out_path, plan)
print(f"dense plan written to {out_path} "
      f"({plan.shape[0]} source rows x {plan.shape[1]} target columns)")
