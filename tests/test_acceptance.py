"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; see the README for how these
checks relate to the library's guarantees.
"""

import importlib.util
import json
import math
import os
import pathlib
import time

import numpy as np
import pytest

from betaot import (
    InfeasibleToleranceError,
    SolverConfig,
    beta_potential,
    bregman_div,
    exact_ot,
    exact_ot_bruteforce,
    iteration_budget,
    median_threshold,
    phi_prime,
    psi_prime,
    psi_second,
    robust_solve,
    sinkhorn_solve,
    sq_euclidean_cost,
    transport_value,
)
from betaot.cli import main as cli_main
from betaot.fileio import write_point_cloud


def _report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_zero_mass_guarantee_exact():
    """50 randomized instances: planted far columns receive bit-exact zeros."""
    start = time.perf_counter()
    rng = np.random.default_rng(2001)
    for _ in range(50):
        beta = rng.uniform(1.2, 1.5)
        lam = rng.uniform(2.0, 14.0)
        m = int(rng.integers(10, 201))
        n = int(rng.integers(10, 201))
        d = (1.0 / m) ** (beta - 1.0) + (1.0 / n) ** (beta - 1.0)
        # place z so the derived budget is a small positive integer
        z = (lam / (beta - 1.0)) * (1.0 + d * rng.uniform(1.3, 5.0))
        assert z > lam / (beta - 1.0)
        gamma = rng.uniform(0.0, 0.8 * z, size=(m, n))
        planted = rng.choice(n, size=max(1, n // 10), replace=False)
        gamma[:, planted] = rng.uniform(z, 2.0 * z, size=(m, planted.size))
        cfg = SolverConfig(beta=beta, lam=lam, z=z)
        budget = iteration_budget(z, cfg, m, n)
        plan = robust_solve(gamma, cfg)
        assert plan.iterations_run == budget.budget
        assert np.all(plan.pi[:, planted] == 0.0), "columns must be bit-exact zero"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "zero-mass guarantee, 50 randomized instances")


def test_criterion_2_two_gaussians_with_uniform_outliers():
    """Distance stability on the 500+500 Gaussian pair with 10 box outliers.

    The robust runs use the median cost as the tolerance parameter and an
    explicit iteration count (80) large enough for the inlier block to
    equilibrate yet far below the ~293-iteration protection headroom of the
    planted outliers; see the README's notes on choosing T for distance
    estimation.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    red = rng.standard_normal((500, 2))
    blue = np.array([5.0, 5.0]) + rng.standard_normal((500, 2))
    outliers = rng.uniform(-50.0, 50.0, size=(10, 2))
    red_dirty = np.vstack([red, outliers])

    g_clean = sq_euclidean_cost(red, blue)
    g_dirty = sq_euclidean_cost(red_dirty, blue)

    exact_clean = exact_ot(g_clean).value
    assert 47.0 <= exact_clean <= 53.0

    robust_values = {}
    for name, gamma in (("clean", g_clean), ("dirty", g_dirty)):
        z = median_threshold(gamma)
        cfg = SolverConfig(beta=1.2, lam=2.0, z=z, iterations=80)
        robust_values[name] = robust_solve(gamma, cfg).value
    assert abs(robust_values["clean"] - robust_values["dirty"]) <= 0.05 * robust_values["clean"]
    assert abs(robust_values["clean"] - exact_clean) <= 0.05 * exact_clean
    assert abs(robust_values["dirty"] - exact_clean) <= 0.05 * exact_clean

    # The dirty cost's plain kernel underflows; the solver offsets it.
    sk_clean = sinkhorn_solve(g_clean, 2.0, tol=1e-6, max_iter=20000).value
    sk_dirty = sinkhorn_solve(g_dirty, 2.0, tol=1e-6, max_iter=20000).value
    assert sk_dirty >= 1.5 * sk_clean

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, "Gaussian-pair distance stability at paper scale")


def test_criterion_3_source_side_outliers_via_transpose():
    """495+5 source samples: the 5 far rows transport exactly nothing."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    targets = rng.standard_normal((500, 1))
    source_inliers = rng.standard_normal((495, 1))
    source = np.vstack([source_inliers, np.full((5, 1), 70.0)])
    outlier_rows = np.arange(495, 500)

    gamma = sq_euclidean_cost(source, targets)  # sources are rows
    z = 1000.0
    transposed = gamma.T  # outliers become columns
    assert transposed[:, outlier_rows].min() >= z  # far from every target
    cfg = SolverConfig(beta=1.2, lam=2.0, z=z)
    budget = iteration_budget(z, cfg, *transposed.shape)
    plan = robust_solve(transposed, cfg)
    assert plan.iterations_run == budget.budget
    assert np.all(plan.pi[:, outlier_rows] == 0.0)
    # mapped back: the source-side outlier rows carry no mass at all
    assert plan.pi.T[outlier_rows, :].sum() == 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    _report(3, "source-side outliers via transposed solve")


def test_criterion_4_oracle_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(20):
        gamma = rng.uniform(0.1, 1.0, size=(6, 6))
        lam = 0.01 * float(gamma.mean())
        plan = sinkhorn_solve(gamma, lam, tol=1e-4, max_iter=200000)
        exact = exact_ot(gamma).value
        assert abs(plan.value - exact) / exact <= 0.02

    for _ in range(100):
        n = int(rng.integers(2, 8))
        gamma = rng.uniform(0.0, 1.0, size=(n, n))
        assert exact_ot(gamma).value == exact_ot_bruteforce(gamma).value

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s"
    _report(4, "scaling solver and assignment agree with references")


def test_criterion_5_potential_calculus():
    start = time.perf_counter()
    rng = np.random.default_rng(505)

    for _ in range(1000):
        b = rng.uniform(1.1, 3.0)
        pot = beta_potential(b)
        t = pot.domain_lower_dual + rng.uniform(0.01, 50.0)
        back = phi_prime(psi_prime(t, pot), pot)
        assert abs(back - t) <= 1e-9 * max(1.0, abs(t))

    h = 1e-5
    for _ in range(500):
        b = rng.uniform(1.1, 3.0)
        pot = beta_potential(b)
        t = pot.domain_lower_dual + rng.uniform(0.1, 20.0)
        numeric = (psi_prime(t + h, pot) - psi_prime(t - h, pot)) / (2.0 * h)
        assert abs(psi_second(t, pot) - numeric) / max(1.0, psi_second(t, pot)) <= 1e-5

    pot2 = beta_potential(2.0)
    for _ in range(1000):
        b = rng.uniform(1.1, 3.0)
        p = rng.uniform(0.0, 5.0)
        q = rng.uniform(0.01, 5.0)
        assert bregman_div(p, q, beta_potential(b)) >= 0.0
        assert abs(bregman_div(p, q, pot2) - 0.5 * (p - q) ** 2) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.1f}s"
    _report(5, "potential calculus: duality, curvature, divergence")


def test_criterion_6_plan_bounds_and_determinism():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(10):
        m = int(rng.integers(5, 60))
        n = int(rng.integers(5, 60))
        gamma = rng.uniform(0.0, 25.0, size=(m, n))
        cfg = SolverConfig(beta=rng.uniform(1.1, 2.0), lam=rng.uniform(1.0, 5.0),
                           iterations=int(rng.integers(1, 12)))
        first = robust_solve(gamma, cfg)
        assert np.all(first.pi >= 0.0)
        assert np.all(first.pi <= 1.0 / n + 1e-12)
        second = robust_solve(gamma, cfg)
        assert np.array_equal(first.pi, second.pi)
        assert first.value == second.value
        recomputed = transport_value(first.pi, gamma)
        assert abs(first.value - recomputed) <= 1e-9 * max(1.0, abs(recomputed))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 6 took {elapsed:.1f}s"
    _report(6, "plan bounds, bit-identical reruns, value recompute")


def test_criterion_7_synthetic_detection(tmp_path):
    """detect command, 99th-percentile tolerance, 10 seeds: full recall,
    specificity at least 95% per seed."""
    start = time.perf_counter()
    specificities = []
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        clean = rng.standard_normal((950, 10))
        inliers = rng.standard_normal((950, 10))
        directions = rng.standard_normal((50, 10))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        dirty = np.vstack([inliers, 100.0 * directions])

        clean_path = tmp_path / f"clean_{seed}.csv"
        dirty_path = tmp_path / f"dirty_{seed}.csv"
        truth_path = tmp_path / f"truth_{seed}.txt"
        report_path = tmp_path / f"report_{seed}.txt"
        write_point_cloud(clean_path, clean)
        write_point_cloud(dirty_path, dirty)
        truth_path.write_text("\n".join(str(i) for i in range(950, 1000)) + "\n")

        code = cli_main([
            "detect", "--clean", str(clean_path), "--dirty", str(dirty_path),
            "--percentile", "99", "--seed", str(seed), "--auto-scale",
            "--truth", str(truth_path), "--out", str(report_path),
        ])
        assert code == 0
        with open(str(report_path) + ".json", "r", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["outlier_recall"] == 1.0
        assert report["inlier_specificity"] >= 0.95
        specificities.append(report["inlier_specificity"])

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"
    _report(7, f"synthetic detection (min specificity {min(specificities):.3f})")


def _load_idx_reader():
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "convert_idx_to_csv.py"
    spec = importlib.util.spec_from_file_location("convert_idx_to_csv", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(
    "BETAOT_MNIST_DIR" not in os.environ,
    reason="set BETAOT_MNIST_DIR to a directory holding fashion/ and mnist/ "
    "train-images-idx3-ubyte[.gz] files to run the image-data check",
)
def test_criterion_7_extended_image_detection():
    """Optional 1000-point image check: recall >= 90%, specificity >= 80%."""
    start = time.perf_counter()
    base = pathlib.Path(os.environ["BETAOT_MNIST_DIR"])
    reader = _load_idx_reader()

    def find_images(subdir):
        for name in ("train-images-idx3-ubyte.gz", "train-images-idx3-ubyte"):
            candidate = base / subdir / name
            if candidate.exists():
                return reader.read_idx_images(candidate)
        pytest.skip(f"no IDX image file under {base / subdir}")

    fashion = find_images("fashion")
    mnist = find_images("mnist")
    rng = np.random.default_rng(77)
    clean = fashion[rng.choice(len(fashion), size=1000, replace=False)].astype(float)
    inliers = fashion[rng.choice(len(fashion), size=950, replace=False)].astype(float)
    planted = mnist[rng.choice(len(mnist), size=50, replace=False)].astype(float)
    dirty = np.vstack([inliers, planted])

    from betaot import auto_scale, detect_outliers, detection_metrics, estimate_z

    z = estimate_z(clean, 99.0, seed=77)
    gamma = sq_euclidean_cost(clean, dirty)
    cfg = SolverConfig(beta=1.2, lam=2.0)
    scale, gamma_s, z_s = auto_scale(gamma, z, cfg, (1, 19))
    cfg.iterations = iteration_budget(z_s, cfg, *gamma.shape).budget
    plan = robust_solve(gamma_s, cfg)
    metrics = detection_metrics(detect_outliers(plan), set(range(950, 1000)))
    assert metrics.outlier_recall >= 0.90
    assert metrics.inlier_specificity >= 0.80
    elapsed = time.perf_counter() - start
    _report(7, f"extended image detection in {elapsed:.1f}s")


def test_criterion_8_budget_arithmetic():
    start = time.perf_counter()
    cfg = SolverConfig(beta=1.2, lam=2.0)
    result = iteration_budget(100.0, cfg, 1000, 1000)
    # independent evaluation, different arithmetic arrangement
    d = 2.0 * math.pow(1000.0, -0.2)
    independent = (100.0 * (1.2 - 1.0) - 2.0) / (2.0 * d)
    assert abs(result.t_max_real - independent) <= 1e-6
    assert result.budget == 17

    with pytest.raises(InfeasibleToleranceError):
        iteration_budget(1.0, SolverConfig(beta=2.0, lam=1.0), 4, 4)

    exact_integer = iteration_budget(4.0, SolverConfig(beta=2.0, lam=1.0), 2, 2)
    assert exact_integer.t_max_real == 3.0
    assert exact_integer.budget == 2

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 8 took {elapsed:.1f}s"
    _report(8, "iteration budget arithmetic and boundary handling")
