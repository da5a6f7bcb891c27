#!/usr/bin/env python3
"""Distance between two Gaussian clouds, with and without contamination.

Two 500-point clouds sit at means (0,0) and (5,5).  Ten points drawn
uniformly from the box [-50, 50]^2 are then mixed into the first cloud.
The classical entropy-regularized scaling estimate inflates badly under
contamination; the truncated beta-potential solver barely moves, because
the far points never receive mass within its iteration count.
"""

import numpy as np

from betaot import (
    SolverConfig,
    exact_ot,
    median_threshold,
    robust_solve,
    sinkhorn_solve,
    sq_euclidean_cost,
)

rng = np.random.default_rng(20260809)
red = rng.standard_normal((500, 2))
blue = np.array([5.0, 5.0]) + rng.standard_normal((500, 2))
box_outliers = rng.uniform(-50.0, 50.0, size=(10, 2))
red_dirty = np.vstack([red, box_outliers])

g_clean = sq_euclidean_cost(red, blue)
g_dirty = sq_euclidean_cost(red_dirty, blue)

print("exact transport value (clean pair):", round(exact_ot(g_clean).value, 3))
print()

for name, gamma in (("clean", g_clean), ("contaminated", g_dirty)):
    z = median_threshold(gamma)
    cfg = SolverConfig(beta=1.2, lam=2.0, z=z, iterations=80)
    plan = robust_solve(gamma, cfg)
    outlier_mass = plan.pi[500:, :].sum() if name == "contaminated" else 0.0
    print(f"robust ({name}): value={plan.value:.3f}  "
          f"median z={z:.1f}  mass on planted outliers={outlier_mass:.2e}")

print()
for name, gamma in (("clean", g_clean), ("contaminated", g_dirty)):
    plan = sinkhorn_solve(gamma, 2.0, tol=1e-6, max_iter=20000)
    print(f"entropy-regularized ({name}): value={plan.value:.3f}")
