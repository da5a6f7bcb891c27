"""Command-line surface: CSV formats, reports, exit codes, determinism."""

import argparse
import ast
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from dense_reference import dense_robust_solve, dense_sinkhorn_log
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from betaot import (
    DomainError,
    SolverConfig,
    TransportPlan,
    auto_scale,
    beta_potential,
    detect_outliers,
    estimate_z,
    exact_ot,
    iteration_budget,
    nasa_solve,
    robust_solve,
    sinkhorn_solve,
    sq_euclidean_cost,
    squared_euclidean,
    transport_value,
)
from betaot.cli import build_parser, main, sample_spec
from betaot.fileio import read_cost_matrix, read_point_cloud, write_matrix, write_point_cloud
from betaot.solver import _candidate_entries, _certified_cost


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    return main([str(a) for a in args])


def load_json_report(path):
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def numeric_fields(report):
    return {k: v for k, v in report.items() if k != "wall_ms"}


class Hang(BaseException):
    """Raised by :func:`_deadline`; no handler in the CLI catches it."""


@contextlib.contextmanager
def _deadline(seconds):
    """Raise :class:`Hang` in the block once ``seconds`` of wall time pass."""

    def ring(signum, frame):
        raise Hang(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestGen:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = "gaussian:mean=0,0:scale=1:count=500"
        assert run_cli("gen", "--spec", spec, "--seed", 7, "--out", a) == 0
        assert run_cli("gen", "--spec", spec, "--seed", 7, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_uniform_box_bounds(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run_cli("gen", "--spec", "uniform:box=-50,50:dim=2:count=10",
                       "--seed", 1, "--out", out) == 0
        pts = read_point_cloud(out)
        assert pts.shape == (10, 2)
        assert np.all(pts >= -50.0) and np.all(pts <= 50.0)

    def test_zero_count_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run_cli("gen", "--spec", "gaussian:mean=1,2,3:scale=1:count=0",
                       "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines == ["x0,x1,x2"]
        assert read_point_cloud(out).shape == (0, 3)

    def test_mixture_spec(self, tmp_path):
        out = tmp_path / "mix.csv"
        spec = "gaussian:mean=0,0:scale=1:count=20 + uniform:box=-50,50:dim=2:count=5"
        assert run_cli("gen", "--spec", spec, "--seed", 3, "--out", out) == 0
        assert read_point_cloud(out).shape == (25, 2)

    def test_bad_spec_is_input_error(self, tmp_path):
        assert run_cli("gen", "--spec", "triangle:count=3", "--out", tmp_path / "x.csv") == 2
        assert run_cli("gen", "--spec", "gaussian:mean=0:count=oops", "--out", tmp_path / "y.csv") == 2

    @pytest.mark.parametrize("spec", [
        # A traceback (OverflowError) before:
        "uniform:box=-1e308,1e308:dim=1:count=2",
        "uniform:box=0,inf:dim=2:count=3",
        "uniform:box=nan,1:dim=2:count=3",
        # Non-finite points written before:
        "gaussian:mean=0:scale=nan:count=3",
        "gaussian:mean=inf:scale=1:count=2",
        "gaussian:mean=0:scale=1e308:count=50",
    ])
    def test_non_finite_spec_exits_two_without_output(self, tmp_path, capsys, spec):
        out = tmp_path / "x.csv"
        assert run_cli("gen", "--spec", spec, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_dimension_mismatch_in_mixture(self, tmp_path):
        spec = "gaussian:mean=0,0:scale=1:count=2 + uniform:box=0,1:dim=3:count=2"
        assert run_cli("gen", "--spec", spec, "--out", tmp_path / "m.csv") == 2

    def test_point_mass_component(self):
        pts = sample_spec("gaussian:mean=70:scale=0:count=5", seed=0)
        np.testing.assert_array_equal(pts, np.full((5, 1), 70.0))

    def test_mixture_takes_the_documented_draws_in_order(self):
        spec = ("gaussian:mean=1,-2:scale=3:count=4 + uniform:box=-5,7:dim=2:count=3"
                " + gaussian:mean=0.5,0:count=2")
        rng = np.random.default_rng(29)
        expected = np.vstack([
            np.array([1.0, -2.0]) + 3.0 * rng.standard_normal((4, 2)),
            rng.uniform(-5.0, 7.0, (3, 2)),
            np.array([0.5, 0.0]) + 1.0 * rng.standard_normal((2, 2)),
        ])
        assert sample_spec(spec, 29).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [-1, True, 2.0, None])
    def test_seeds_that_are_not_nonnegative_integers_are_rejected(self, seed):
        with pytest.raises(DomainError, match=f"^seed must be >= 0 and an integer, got {seed!r}$"):
            sample_spec("gaussian:mean=0:count=3", seed)

    @pytest.mark.parametrize("command", ["gen", "detect"])
    def test_negative_seed_exits_two_naming_it(self, tmp_path, capsys, command):
        # numpy's own message named neither the option nor the value.
        out = tmp_path / "out.csv"
        if command == "gen":
            argv = ["gen", "--spec", "gaussian:mean=0:count=3", "--out", out]
        else:
            clean = tmp_path / "clean.csv"
            write_point_cloud(clean, np.arange(12.0).reshape(6, 2))
            argv = ["detect", "--clean", clean, "--dirty", clean, "--out", out]
        assert run_cli(*argv, "--seed", -1) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0 and an integer, got -1\n"
        assert not out.exists()

    def test_spec_too_large_for_memory_exits_two_without_output(self, tmp_path, capsys):
        # 728 TiB exceeds the user address space, so the allocation fails at once.
        out = tmp_path / "x.csv"
        assert run_cli("gen", "--spec", "gaussian:mean=0:count=100000000000000",
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestDistance:
    def test_identical_files_exact_distance_zero(self, tmp_path):
        pts = np.random.default_rng(5).standard_normal((12, 2))
        f = tmp_path / "p.csv"
        write_point_cloud(f, pts)
        out = tmp_path / "rep.txt"
        assert run_cli("distance", "--x", f, "--y", f, "--mode", "exact", "--out", out) == 0
        report = load_json_report(out)
        assert report["value"] <= 1e-12

    def test_infeasible_tolerance_exits_three(self, tmp_path):
        pts = np.random.default_rng(6).standard_normal((8, 2))
        f = tmp_path / "p.csv"
        write_point_cloud(f, pts)
        # z == lambda/(beta-1) exactly for beta=2, lambda=1
        code = run_cli("distance", "--x", f, "--y", f, "--mode", "robust",
                       "--beta", 2.0, "--lambda", 1.0, "--z", 1.0)
        assert code == 3

    @pytest.mark.parametrize("beta", ["1", "0.5"])
    def test_beta_outside_domain_exits_two(self, tmp_path, capsys, beta):
        f = tmp_path / "a.csv"
        write_point_cloud(f, np.random.default_rng(8).standard_normal((6, 2)))
        assert run_cli("distance", "--x", f, "--y", f, "--beta", beta) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "budget_args",
        [("--lambda", "1e-300", "--z", "1e10"), ("--z", "inf"), ("--z", "nan")],
    )
    def test_non_finite_budget_exits_two(self, tmp_path, capsys, budget_args):
        f = tmp_path / "a.csv"
        write_point_cloud(f, np.random.default_rng(9).standard_normal((3, 2)))
        assert run_cli("distance", "--x", f, "--y", f, *budget_args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "NaN to integer" not in err

    def test_underflowing_budget_denominator_exits_two(self, tmp_path, capsys):
        # (1/30)^399 underflows to 0, so the bound is not finite.
        rng = np.random.default_rng(14)
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_point_cloud(x, rng.standard_normal((30, 2)))
        write_point_cloud(y, rng.standard_normal((30, 2)))
        assert run_cli("distance", "--x", x, "--y", y, "--beta", 400) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "underflows" in err

    def test_overflowing_log_space_sinkhorn_exits_four(self, tmp_path, capsys):
        # cost/lambda overflows: the plain kernel underflows, and no offset gives a finite plan.
        rng = np.random.default_rng(15)
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_point_cloud(x, rng.standard_normal((8, 2)))
        write_point_cloud(y, rng.standard_normal((8, 2)) + 1.0)
        out = tmp_path / "rep.txt"
        assert run_cli("distance", "--x", x, "--y", y, "--mode", "sinkhorn",
                       "--lambda", "1e-308", "--out", out) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_file_exits_two(self, tmp_path):
        assert run_cli("distance", "--x", tmp_path / "nope.csv",
                       "--y", tmp_path / "nope.csv", "--mode", "exact") == 2

    def test_sinkhorn_mode_with_report(self, tmp_path):
        rng = np.random.default_rng(7)
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_point_cloud(x, rng.standard_normal((6, 2)))
        write_point_cloud(y, rng.standard_normal((9, 2)))
        out = tmp_path / "rep.txt"
        assert run_cli("distance", "--x", x, "--y", y, "--mode", "sinkhorn",
                       "--lambda", 1.0, "--out", out) == 0
        report = load_json_report(out)
        assert report["converged"] is True
        assert report["row_residual_l1"] <= 1e-9
        assert report["m"] == 6 and report["n"] == 9

    def test_robust_mode_derives_median_and_certifies(self, tmp_path):
        rng = np.random.default_rng(8)
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_point_cloud(x, 10.0 * rng.standard_normal((20, 2)))
        write_point_cloud(y, 10.0 * rng.standard_normal((20, 2)))
        out = tmp_path / "rep.txt"
        assert run_cli("distance", "--x", x, "--y", y, "--mode", "robust",
                       "--auto-scale", "--out", out) == 0
        report = load_json_report(out)
        assert report["robustness_certified"] is True
        assert report["T"] >= 1
        gamma = sq_euclidean_cost(read_point_cloud(x), read_point_cloud(y))
        assert report["z"] == pytest.approx(float(np.median(gamma)), rel=1e-12)

    @pytest.mark.parametrize("rescale", [False, True])
    def test_robust_value_is_on_the_input_cost(self, tmp_path, rescale):
        rng = np.random.default_rng(13)
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_point_cloud(x, 10.0 * rng.standard_normal((30, 2)))
        write_point_cloud(y, 10.0 * rng.standard_normal((40, 2)))
        out = tmp_path / "rep.txt"
        flags = ["--auto-scale"] if rescale else ["--T", 4]
        assert run_cli("distance", "--x", x, "--y", y, "--mode", "robust",
                       *flags, "--out", out) == 0
        report = load_json_report(out)
        assert (report["scale"] != 1.0) == rescale
        gamma = sq_euclidean_cost(read_point_cloud(x), read_point_cloud(y))
        cfg = SolverConfig(beta=1.2, lam=2.0, iterations=report["T"])
        plan = robust_solve(report["scale"] * gamma, cfg)
        assert report["value"] == transport_value(plan.pi, gamma)

    @pytest.mark.parametrize(
        "budget_args",
        [("--beta", 400), ("--z", 1.0), ("--lambda", "1e-300", "--z", "1e10"), ("--z", "inf")],
    )
    def test_explicit_iterations_without_a_budget_run_uncertified(self, tmp_path, capsys,
                                                                   budget_args):
        # With --T, any reason iteration_budget cannot give a bound (here a
        # denominator underflowing to 0, an infeasible z, a bound or a z
        # that is not finite) leaves the run uncertified instead of failing.
        rng = np.random.default_rng(14)
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_point_cloud(x, rng.standard_normal((30, 2)))
        write_point_cloud(y, rng.standard_normal((30, 2)))
        out = tmp_path / "rep.txt"
        assert run_cli("distance", "--x", x, "--y", y, *budget_args, "--T", 3, "--out", out) == 0
        report = load_json_report(out)
        assert report["robustness_certified"] is False
        assert report["T"] == 3
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        if budget_args[:2] in (("--beta", 400), ("--lambda", "1e-300")):
            # The clamp bound 1/(1-beta) lies just below 0, or every dual
            # entry -cost/lambda far below it: three iterations leave the
            # plan all zeros, which one warning line names.
            assert report["value"] == 0.0
            assert report["row_residual_l1"] == report["col_residual_l1"] == 1.0
            assert warnings == ["warning: the robust plan is all zeros; it moves no mass"]
        else:
            assert warnings == []

    @pytest.mark.parametrize(
        "args",
        [
            ("--beta", 1, "--T", 3),
            ("--lambda", 0, "--T", 3),
            ("--mode", "sinkhorn", "--max-iter", 0),
            ("--mode", "nasa-euclidean", "--max-iter", -3),
            ("--mode", "sinkhorn", "--sinkhorn-tol", -1),
            ("--mode", "nasa-euclidean", "--sinkhorn-tol", "nan"),
            ("--lambda", "inf", "--T", 3),
            ("--lambda", "inf"),
            ("--beta", "inf", "--T", 3),
            ("--beta", "inf"),
            ("--mode", "sinkhorn", "--lambda", "inf"),
            ("--mode", "nasa-euclidean", "--lambda", "inf"),
        ],
    )
    def test_invalid_solver_arguments_exit_two(self, tmp_path, capsys, args):
        f = tmp_path / "a.csv"
        write_point_cloud(f, np.random.default_rng(8).standard_normal((6, 2)))
        assert run_cli("distance", "--x", f, "--y", f, *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_explicit_iterations_not_certified(self, tmp_path):
        rng = np.random.default_rng(9)
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_point_cloud(x, rng.standard_normal((10, 2)))
        write_point_cloud(y, rng.standard_normal((10, 2)))
        out = tmp_path / "rep.txt"
        assert run_cli("distance", "--x", x, "--y", y, "--mode", "robust",
                       "--T", 3, "--out", out) == 0
        assert load_json_report(out)["robustness_certified"] is False

    def test_gen_then_exact_distance_end_to_end(self, tmp_path):
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        assert run_cli("gen", "--spec", "gaussian:mean=0,0:scale=1:count=80",
                       "--seed", 11, "--out", x) == 0
        assert run_cli("gen", "--spec", "gaussian:mean=5,5:scale=1:count=80",
                       "--seed", 12, "--out", y) == 0
        out = tmp_path / "rep.txt"
        assert run_cli("distance", "--x", x, "--y", y, "--mode", "exact",
                       "--out", out) == 0
        report = load_json_report(out)
        # two unit Gaussians centered 50 apart in squared distance
        assert 38.0 <= report["value"] <= 65.0
        assert report["row_residual_l1"] <= 1e-9


class TestSolve:
    def test_hand_traced_plan_file(self, tmp_path):
        cost = tmp_path / "c.csv"
        cost.write_text("0,0\n0,0\n")
        plan_path = tmp_path / "plan.csv"
        assert run_cli("solve", "--cost", cost, "--mode", "robust", "--beta", 2.0,
                       "--lambda", 1.0, "--T", 1, "--out", plan_path) == 0
        assert plan_path.read_text() == "0.25,0.25\n0.25,0.25\n"

    def test_dense_loop_plan_file_is_the_dense_reference(self, tmp_path):
        # Every cost lies below the certified level, so the dense loop runs;
        # the file holds the plan built from its entries.
        gamma = np.random.default_rng(23).uniform(0.0, 30.0, size=(12, 9))
        cost, plan_path, expected = tmp_path / "c.csv", tmp_path / "p.csv", tmp_path / "e.csv"
        write_matrix(cost, gamma)
        gamma = read_cost_matrix(cost)
        level = _certified_cost(beta_potential(1.2), 2.0, 12, 9, 4)
        assert _candidate_entries(gamma, level) is None
        assert run_cli("solve", "--cost", cost, "--mode", "robust", "--T", 4,
                       "--out", plan_path) == 0
        pi, _ = dense_robust_solve(gamma, 1.2, 2.0, 4)
        assert 0 < np.count_nonzero(pi) < pi.size
        write_matrix(expected, pi)
        assert plan_path.read_bytes() == expected.read_bytes()

    def test_cost_rescaled_beyond_the_floats_exits_two(self, tmp_path, capsys):
        # --auto-scale multiplies this cost by about 9.6; a numpy overflow
        # warning escaped before the solver rejected the inf entry.  The
        # file is finite, so the error names the scaled cost.
        cost, plan_path = tmp_path / "c.csv", tmp_path / "p.csv"
        cost.write_text("1e308,0\n0,1\n")
        assert run_cli("solve", "--cost", cost, "--z", 20, "--auto-scale",
                       "--out", plan_path) == 2
        assert capsys.readouterr().err == "error: scaled cost matrix must be finite (no NaN/Inf)\n"
        assert not plan_path.exists()

    def test_sinkhorn_closed_form_value_in_report(self, tmp_path):
        cost = tmp_path / "c.csv"
        cost.write_text("0,1\n1,0\n")
        plan_path = tmp_path / "plan.csv"
        assert run_cli("solve", "--cost", cost, "--mode", "sinkhorn",
                       "--lambda", 1.0, "--out", plan_path) == 0
        report = load_json_report(str(plan_path) + ".report")
        assert report["value"] == pytest.approx(0.2689414213699951, rel=1e-6)

    def test_non_rectangular_cost_exits_two(self, tmp_path):
        cost = tmp_path / "c.csv"
        cost.write_text("0,1\n1\n")
        assert run_cli("solve", "--cost", cost, "--out", tmp_path / "p.csv") == 2

    def test_negative_cost_exits_two(self, tmp_path):
        cost = tmp_path / "c.csv"
        cost.write_text("0,-1\n1,0\n")
        assert run_cli("solve", "--cost", cost, "--out", tmp_path / "p.csv") == 2

    def test_zero_entries_written_as_literal_zero(self, tmp_path):
        # the far column exceeds the tolerance, so its entries are exact zeros
        cost = tmp_path / "c.csv"
        cost.write_text("1,400\n2,400\n")
        plan_path = tmp_path / "plan.csv"
        assert run_cli("solve", "--cost", cost, "--mode", "robust", "--beta", 1.5,
                       "--lambda", 2.0, "--z", 100.0, "--out", plan_path) == 0
        rows = [line.split(",") for line in plan_path.read_text().strip().splitlines()]
        assert rows[0][1] == "0" and rows[1][1] == "0"

    def test_report_value_matches_emitted_plan(self, tmp_path):
        rng = np.random.default_rng(11)
        gamma = rng.uniform(0.0, 30.0, size=(7, 5))
        cost = tmp_path / "c.csv"
        write_matrix(cost, gamma)
        plan_path = tmp_path / "plan.csv"
        assert run_cli("solve", "--cost", cost, "--mode", "robust",
                       "--z", 200.0, "--out", plan_path) == 0
        report = load_json_report(str(plan_path) + ".report")
        plan = read_cost_matrix(plan_path)
        recomputed = transport_value(plan, read_cost_matrix(cost))
        assert abs(report["value"] - recomputed) <= 1e-9 * max(1.0, abs(recomputed))

    def test_missing_out_is_a_usage_error(self, tmp_path, capsys):
        cost = tmp_path / "c.csv"
        cost.write_text("0,1\n1,0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--cost", cost, "--mode", "sinkhorn")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--out" in err
        assert "Traceback" not in err

    def test_nasa_overflowing_spread_exits_four(self, tmp_path, capsys):
        # The spread of cost/lambda (1e310) overflows the floats, as for Sinkhorn.
        cost = tmp_path / "c.csv"
        cost.write_text("0,1e300\n5,0\n")
        plan_path = tmp_path / "plan.csv"
        assert run_cli("solve", "--cost", cost, "--mode", "nasa-euclidean",
                       "--lambda", "1e-10", "--out", plan_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "spread" in err
        assert not plan_path.exists()

    def test_failed_exact_lp_exits_four(self, tmp_path, capsys, monkeypatch):
        failed = mock.Mock(success=False, message="forced failure")
        monkeypatch.setattr("scipy.optimize.linprog", lambda *args, **kwargs: failed)
        cost = tmp_path / "c.csv"
        cost.write_text("1e200,0,1e200\n0,1e200,0\n")
        plan_path = tmp_path / "plan.csv"
        assert run_cli("solve", "--cost", cost, "--mode", "exact", "--out", plan_path) == 4
        assert capsys.readouterr().err == "error: transport LP failed: forced failure\n"
        assert not plan_path.exists()

    def test_exact_mode_plan(self, tmp_path):
        cost = tmp_path / "c.csv"
        cost.write_text("0,1\n1,0\n")
        plan_path = tmp_path / "plan.csv"
        assert run_cli("solve", "--cost", cost, "--mode", "exact", "--out", plan_path) == 0
        np.testing.assert_array_equal(read_cost_matrix(plan_path), 0.5 * np.eye(2))


# Report keys of every ``distance``/``solve`` run, of each command and of each mode.
COMMON_KEYS = {"command", "mode", "m", "n", "value", "row_residual_l1", "col_residual_l1",
               "wall_ms"}
COMMAND_KEYS = {"distance": {"sha256_x", "sha256_y"}, "solve": {"sha256_cost", "plan_out"}}
MODE_KEYS = {
    "robust": {"beta", "lambda", "z", "T", "scale", "robustness_certified", "iterations_run"},
    "sinkhorn": {"lambda", "iterations_run", "converged"},
    "exact": set(),
    "nasa-euclidean": {"lambda", "iterations_run", "converged"},
}


DETECT_KEYS = {"command", "m", "n", "percentile", "seed", "eps_zero", "sha256_clean",
               "sha256_dirty", "beta", "lambda", "z", "T", "scale", "robustness_certified",
               "flagged", "n_flagged", "row_residual_l1", "col_residual_l1", "iterations_run",
               "wall_ms"}


def _library_plan(mode, gamma):
    """The plan array and value the library gives for the CLI's defaults in ``mode``."""
    if mode == "exact":
        plan = exact_ot(gamma)
    elif mode == "robust":
        plan = robust_solve(gamma, SolverConfig(beta=1.2, lam=2.0, iterations=3))
    elif mode == "sinkhorn":
        plan = sinkhorn_solve(gamma, 2.0)
    else:
        plan = nasa_solve(gamma, 2.0, squared_euclidean())
    return plan.pi, plan.value


class TestModeReports:
    """Every mode of ``distance`` and ``solve``: exit code, report keys, sidecar, output."""

    def _run(self, tmp_path, capsys, command, mode, x, y, *flags):
        """Runs one command; returns its stdout, report file, JSON sidecar and cost."""
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_point_cloud(x_path, x)
        write_point_cloud(y_path, y)
        gamma = sq_euclidean_cost(x, y)
        if command == "distance":
            out = report = tmp_path / "rep.txt"
            inputs = ["--x", x_path, "--y", y_path]
        else:
            cost = tmp_path / "c.csv"
            write_matrix(cost, gamma)
            gamma = read_cost_matrix(cost)
            out, report = tmp_path / "plan.csv", tmp_path / "plan.csv.report"
            inputs = ["--cost", cost]
        capsys.readouterr()
        assert run_cli(command, *inputs, "--mode", mode, *flags, "--out", out) == 0
        stdout = capsys.readouterr().out
        return stdout, report, load_json_report(report), gamma

    @pytest.mark.parametrize("mode", sorted(MODE_KEYS))
    @pytest.mark.parametrize("command", ["distance", "solve"])
    def test_mode_report(self, tmp_path, capsys, command, mode):
        rng = np.random.default_rng(31)
        x, y = rng.standard_normal((6, 2)), rng.standard_normal((9, 2))
        flags = ["--T", 3] if mode == "robust" else []
        stdout, report, sidecar, gamma = self._run(
            tmp_path, capsys, command, mode, x, y, *flags
        )
        keys = COMMON_KEYS | COMMAND_KEYS[command] | MODE_KEYS[mode]
        assert report.read_text() == stdout
        assert {line.split("=", 1)[0] for line in stdout.splitlines()} == keys
        assert set(sidecar) == keys
        assert (sidecar["command"], sidecar["mode"], sidecar["m"], sidecar["n"]) == (
            command, mode, 6, 9
        )
        pi, value = _library_plan(mode, gamma)
        assert sidecar["value"] == value
        if command == "solve":
            assert sidecar["plan_out"] == str(tmp_path / "plan.csv")
            # The writer prints -0.0 as 0, so compare values, not bits.
            assert np.array_equal(read_cost_matrix(tmp_path / "plan.csv"), pi)

    @pytest.mark.parametrize("command", ["distance", "solve"])
    @pytest.mark.parametrize("log_space", [False, True])
    def test_sinkhorn_log_space(self, tmp_path, capsys, command, log_space):
        # Clusters about 60 apart with lambda=1: the plain kernel underflows,
        # so the solver offsets it and reports no extra key.  The value is
        # the library's, and with log_space it is checked against the
        # log-space loop that such costs once needed.
        rng = np.random.default_rng(32)
        x = rng.standard_normal((8, 2))
        y = np.array([60.0, 60.0]) + rng.standard_normal((8, 2))
        stdout, report, sidecar, gamma = self._run(
            tmp_path, capsys, command, "sinkhorn", x, y, "--lambda", 1.0
        )
        assert report.read_text() == stdout
        assert set(sidecar) == COMMON_KEYS | COMMAND_KEYS[command] | MODE_KEYS["sinkhorn"]
        assert sidecar["converged"] is True
        if log_space:
            pi, _, converged = dense_sinkhorn_log(gamma, 1.0, 1e-9, 10000)
            assert converged
            assert sidecar["value"] == pytest.approx(transport_value(pi, gamma), rel=1e-9)
        else:
            assert sidecar["value"] == sinkhorn_solve(gamma, 1.0).value

    @pytest.mark.parametrize("flags, extra", [
        (["--auto-scale"], set()),
        (["--auto-scale", "--truth", "truth.txt"], {"outlier_recall", "inlier_specificity"}),
        (["--z", 300, "--T", 3], set()),
    ])
    def test_detect_report(self, tmp_path, capsys, flags, extra):
        rng = np.random.default_rng(33)
        clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        write_point_cloud(clean, rng.standard_normal((20, 3)))
        write_point_cloud(dirty, np.vstack([rng.standard_normal((8, 3)), [[40.0, 0.0, 0.0]]]))
        (tmp_path / "truth.txt").write_text("8\n")
        flags = [tmp_path / f if f == "truth.txt" else f for f in flags]
        out = tmp_path / "rep.txt"
        capsys.readouterr()
        assert run_cli("detect", "--clean", clean, "--dirty", dirty, *flags, "--out", out) == 0
        stdout = capsys.readouterr().out
        keys = DETECT_KEYS | extra
        assert out.read_text() == stdout
        assert {line.split("=", 1)[0] for line in stdout.splitlines()} == keys
        assert set(load_json_report(out)) == keys


class TestUnfinishableBudget:
    """A derived budget of 2**49 or more iterations exits 3 at once; it once ran unbounded."""

    HINT = "hint: --auto-scale can rescale the problem into budget"

    def test_solve_exits_three_within_a_second(self, tmp_path, capsys):
        cost, out = tmp_path / "c.csv", tmp_path / "plan.csv"
        cost.write_text("0,1\n1,0\n")
        start = time.perf_counter()
        with _deadline(5.0):
            code = run_cli("solve", "--mode", "robust", "--z", "1e308",
                           "--cost", cost, "--out", out)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        error, hint = capsys.readouterr().err.splitlines()
        assert error.startswith("error: iteration budget ") and hint == self.HINT
        assert not out.exists()

    def test_unreachable_auto_scale_range_exits_three_within_a_second(self, tmp_path, capsys):
        # Every scale overflows at z=1e-320; auto_scale once tried all 10**9 targets.
        cost, out = tmp_path / "c.csv", tmp_path / "plan.csv"
        cost.write_text("0,1\n1,0\n")
        start = time.perf_counter()
        with _deadline(5.0):
            code = run_cli("solve", "--z", "1e-320", "--auto-scale", "--target-T",
                           "1..1000000000", "--cost", cost, "--out", out)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        (error,) = capsys.readouterr().err.splitlines()
        assert error.startswith("error: no scale places the iteration budget inside ")
        assert not out.exists()

    def test_auto_scale_range_reaching_the_solver_limit_exits_three(self, tmp_path, capsys):
        cost, out = tmp_path / "c.csv", tmp_path / "plan.csv"
        cost.write_text("0,1\n1,0\n")
        code = run_cli("solve", "--z", "30", "--auto-scale", "--target-T",
                       "1000000000000000..2000000000000000", "--cost", cost, "--out", out)
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: target range [1000000000000000, 2000000000000000] reaches 2**49, where "
            "the robust solver refuses the iteration budget; choose targets below it"
        ]
        assert not out.exists()

    def test_auto_scale_still_rescales_into_the_target_range(self, tmp_path):
        cost, out = tmp_path / "c.csv", tmp_path / "plan.csv"
        cost.write_text("0,1\n1,0\n")
        assert run_cli("solve", "--mode", "robust", "--z", "1e308", "--auto-scale",
                       "--cost", cost, "--out", out) == 0
        report = load_json_report(str(out) + ".report")
        assert 1 <= report["T"] <= 20 and report["robustness_certified"] is True


class TestDetect:
    def _write_clouds(self, tmp_path, seed=0, n_clean=60, n_out=3, dim=5, radius=60.0):
        rng = np.random.default_rng(seed)
        clean = rng.standard_normal((n_clean, dim))
        inliers = rng.standard_normal((n_clean - n_out, dim))
        directions = rng.standard_normal((n_out, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        dirty = np.vstack([inliers, radius * directions])
        clean_path, dirty_path = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        write_point_cloud(clean_path, clean)
        write_point_cloud(dirty_path, dirty)
        truth = list(range(n_clean - n_out, n_clean))
        return clean_path, dirty_path, truth

    def test_clean_copy_flags_nothing(self, tmp_path):
        rng = np.random.default_rng(13)
        clean = rng.standard_normal((40, 4))
        clean_path = tmp_path / "clean.csv"
        write_point_cloud(clean_path, clean)
        out = tmp_path / "rep.txt"
        for pct in (95.0, 99.0):
            assert run_cli("detect", "--clean", clean_path, "--dirty", clean_path,
                           "--percentile", pct, "--auto-scale", "--out", out) == 0
            assert load_json_report(out)["flagged"] == []

    def test_all_zero_sparse_plan_warns_without_densifying(self, tmp_path, capsys):
        # At lambda 1e-300 no entry is a candidate, so the plan has no entries.
        clean_path, dirty_path, _ = self._write_clouds(tmp_path)
        densify = property(lambda plan: pytest.fail("the sparse plan was densified"))
        with mock.patch.object(TransportPlan, "pi", densify):
            assert run_cli("detect", "--clean", clean_path, "--dirty", dirty_path,
                           "--lambda", "1e-300", "--z", "1e10", "--T", 3) == 0
        err = capsys.readouterr().err
        assert err == "warning: the robust plan is all zeros; it moves no mass\n"

    def test_planted_far_points_are_flagged_exactly(self, tmp_path):
        clean_path, dirty_path, truth = self._write_clouds(tmp_path)
        truth_path = tmp_path / "truth.txt"
        truth_path.write_text("\n".join(str(i) for i in truth) + "\n")
        out = tmp_path / "rep.txt"
        assert run_cli("detect", "--clean", clean_path, "--dirty", dirty_path,
                       "--percentile", 99.0, "--auto-scale",
                       "--truth", truth_path, "--out", out) == 0
        report = load_json_report(out)
        assert report["outlier_recall"] == 1.0
        assert set(truth) <= set(report["flagged"])

    def test_metrics_omitted_without_truth(self, tmp_path):
        clean_path, dirty_path, _ = self._write_clouds(tmp_path, seed=1)
        out = tmp_path / "rep.txt"
        assert run_cli("detect", "--clean", clean_path, "--dirty", dirty_path,
                       "--percentile", 99.0, "--auto-scale", "--out", out) == 0
        report = load_json_report(out)
        assert "outlier_recall" not in report
        assert "inlier_specificity" not in report
        assert "flagged" in report

    def test_nan_eps_zero_exits_two(self, tmp_path, capsys):
        # No plan entry compares at most NaN, so it would flag nothing.
        clean_path, dirty_path, _ = self._write_clouds(tmp_path)
        out = tmp_path / "rep.txt"
        assert run_cli("detect", "--clean", clean_path, "--dirty", dirty_path,
                       "--auto-scale", "--eps-zero", "nan", "--out", out) == 2
        assert capsys.readouterr().err == "error: eps_zero must not be NaN\n"
        assert not out.exists()

    def test_nan_eps_zero_is_rejected_before_any_input_is_read(self, tmp_path, capsys):
        # The threshold is checked first: no file is read, no z estimated, nothing solved.
        _, dirty_path, _ = self._write_clouds(tmp_path)
        out = tmp_path / "rep.txt"
        assert run_cli("detect", "--clean", tmp_path / "missing.csv", "--dirty", dirty_path,
                       "--eps-zero", "nan", "--out", out) == 2
        assert capsys.readouterr().err == "error: eps_zero must not be NaN\n"
        assert not out.exists()

    def test_budget_infeasible_without_rescale_exits_three(self, tmp_path):
        clean_path, dirty_path, _ = self._write_clouds(tmp_path, seed=2)
        # the estimated tolerance for a unit cluster sits below lambda/(beta-1)
        assert run_cli("detect", "--clean", clean_path, "--dirty", dirty_path,
                       "--percentile", 99.0) == 3

    @pytest.mark.parametrize("case, message", [
        ("far point", "cost matrix must be finite (no NaN/Inf)"),
        ("other dimension", "point dimensions differ: 3 vs 2"),
        ("header only", "point cloud must be a nonempty 2-D array"),
    ])
    def test_cost_errors_exit_two(self, tmp_path, capsys, case, message):
        rng = np.random.default_rng(21)
        clean = rng.standard_normal((40, 3 if case == "other dimension" else 2))
        dirty = rng.standard_normal((0 if case == "header only" else 30, 2))
        if case == "far point":
            dirty[-1, 0] = 1e200  # its squared distances overflow to inf
        clean_path, dirty_path = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        write_point_cloud(clean_path, clean)
        write_point_cloud(dirty_path, dirty)
        assert run_cli("detect", "--clean", clean_path, "--dirty", dirty_path,
                       "--auto-scale") == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cost_rescaled_beyond_the_floats_names_the_scaled_cost(self, tmp_path, capsys):
        # Every distance is finite, at most 1e308; --auto-scale multiplies them by about 9.
        clean_path, dirty_path = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        write_point_cloud(clean_path, [[0.0], [1.0], [2.0], [3.0]])
        write_point_cloud(dirty_path, [[0.5], [1e154]])
        assert np.isfinite(sq_euclidean_cost(read_point_cloud(clean_path),
                                             read_point_cloud(dirty_path))).all()
        assert run_cli("detect", "--clean", clean_path, "--dirty", dirty_path, "--z", 20,
                       "--auto-scale") == 2
        assert capsys.readouterr().err == "error: scaled cost matrix must be finite (no NaN/Inf)\n"

    def test_single_dirty_point_matches_the_dense_pipeline(self, tmp_path):
        rng = np.random.default_rng(22)
        clean_path, dirty_path = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        write_point_cloud(clean_path, rng.standard_normal((40, 2)))
        write_point_cloud(dirty_path, [[0.1, -0.2]])
        out = tmp_path / "rep.txt"
        assert run_cli("detect", "--clean", clean_path, "--dirty", dirty_path,
                       "--percentile", 99.0, "--auto-scale", "--out", out) == 0
        report = load_json_report(out)
        clean, dirty = read_point_cloud(clean_path), read_point_cloud(dirty_path)
        cfg = SolverConfig(beta=1.2, lam=2.0)
        z = estimate_z(clean, 99.0, 0)
        scale, gamma, scaled_z = auto_scale(sq_euclidean_cost(clean, dirty), z, cfg, (1, 20))
        cfg.iterations = iteration_budget(scaled_z, cfg, 40, 1).budget
        plan = robust_solve(gamma, cfg)
        assert (report["n"], report["z"], report["scale"]) == (1, z, scale)
        assert report["T"] == cfg.iterations
        assert report["flagged"] == detect_outliers(plan).flagged == []
        assert report["row_residual_l1"] == plan.row_residual_l1
        assert report["col_residual_l1"] == plan.col_residual_l1


class TestDeterminism:
    def test_numeric_report_fields_are_reproducible(self, tmp_path):
        clean_path = tmp_path / "clean.csv"
        dirty_path = tmp_path / "dirty.csv"
        rng = np.random.default_rng(17)
        write_point_cloud(clean_path, rng.standard_normal((30, 3)))
        write_point_cloud(dirty_path, rng.standard_normal((25, 3)))
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["detect", "--clean", clean_path, "--dirty", dirty_path,
                "--percentile", 95.0, "--seed", 4, "--auto-scale"]
        assert run_cli(*args, "--out", out_a) == 0
        assert run_cli(*args, "--out", out_b) == 0
        a, b = load_json_report(out_a), load_json_report(out_b)
        assert numeric_fields(a) == numeric_fields(b)


class TestProcessEntryPoint:
    def test_module_invocation(self, tmp_path):
        cost = tmp_path / "c.csv"
        cost.write_text("0,0\n0,0\n")
        plan_path = tmp_path / "plan.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "betaot", "solve", "--cost", str(cost),
             "--mode", "robust", "--beta", "2.0", "--lambda", "1.0",
             "--T", "1", "--out", str(plan_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "value=" in proc.stdout
        assert plan_path.exists()


# Run in a fresh interpreter: argv is the source directory, the cost CSV,
# an output directory and a cost CSV whose plain Sinkhorn kernel
# underflows.  Prints, as its last line, the exit codes and the scipy
# modules loaded before and after the exact solve.
STARTUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from betaot.cli import main
cost, out, far = sys.argv[2], sys.argv[3], sys.argv[4]
runs = [
    ["solve", "--cost", cost, "--mode", "sinkhorn", "--out", out + "/sinkhorn.csv"],
    ["solve", "--cost", far, "--mode", "sinkhorn", "--out", out + "/far.csv"],
    ["solve", "--cost", cost, "--mode", "robust", "--T", "5", "--out", out + "/robust.csv"],
    ["solve", "--cost", cost, "--mode", "nasa-euclidean", "--out", out + "/nasa.csv"],
    ["gen", "--spec", "gaussian:mean=0,0:scale=1:count=5", "--out", out + "/gen.csv"],
    ["--version"],
]
codes = []
for argv in runs:
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
before = scipy_modules()
codes.append(main(["solve", "--cost", cost, "--mode", "exact", "--out", out + "/exact.csv"]))
print(json.dumps({"codes": codes, "before": before, "after": len(scipy_modules())}))
"""


class TestStartup:
    def test_only_commands_that_call_scipy_load_it(self, tmp_path):
        cost, far = tmp_path / "c.csv", tmp_path / "far.csv"
        gamma = np.random.default_rng(23).uniform(0.0, 4.0, size=(6, 8))
        write_matrix(cost, gamma)
        gamma[0] += 2000.0  # exp(-2000/2) underflows: the plain kernel's first row is zero
        write_matrix(far, gamma)
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_CHILD, str(SRC), str(cost), str(tmp_path), str(far)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        assert child["codes"] == [0] * 7
        assert child["before"] == []
        assert child["after"] > 0

        plan_path = tmp_path / "exact_here.csv"
        assert run_cli("solve", "--cost", cost, "--mode", "exact", "--out", plan_path) == 0
        fresh = tmp_path / "exact.csv"
        assert fresh.read_bytes() == plan_path.read_bytes()
        here = numeric_fields(load_json_report(str(plan_path) + ".report"))
        there = numeric_fields(load_json_report(str(fresh) + ".report"))
        assert here.pop("plan_out") == str(plan_path)
        assert there.pop("plan_out") == str(fresh)
        assert here == there

    def test_importing_the_package_loads_no_projections(self):
        """The solver owns its half-step; the projection wrappers load only on request."""
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); import betaot; "
            "package = 'betaot.projections' in sys.modules; import betaot.cli; "
            "print(package, 'betaot.projections' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_importing_the_cli_loads_no_thread_pool(self):
        """The dense loop imports ``concurrent.futures`` only when it starts a thread."""
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import betaot.cli; "
                 "print('concurrent.futures' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_cdist_is_imported_and_called_only_by_the_lazy_cost(self):
        """One ``cdist`` site in the package, in ``SqEuclideanCost.__getitem__``."""

        def sites(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    inner = f"{scope}.{child.name}"
                if isinstance(child, ast.ImportFrom) and "cdist" in {a.name for a in child.names}:
                    yield "import", inner
                if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "cdist":
                    yield "call", inner
                yield from sites(child, inner)

        found = sorted(
            site
            for path in (SRC / "betaot").glob("*.py")
            for site in sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        )
        where = "costs.SqEuclideanCost.__getitem__"
        assert found == [("call", where), ("import", where)]


# Numbers that have ended in tracebacks, hangs or wrong exit codes before.
NUMBERS = ["0", "-0", "1", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "2.0",
           "-3.0"]
# Ordinary values per option; with them a command runs to its end.
ORDINARY = {
    "beta": ["1.2", "1.5", "2"], "lam": ["2", "1"], "z": ["20", "50", "100"],
    "T": ["1", "3", "8"], "seed": ["0", "3"], "percentile": ["99", "50", "100"],
    "eps_zero": ["1e-12", "0.01"], "sinkhorn_tol": ["1e-9", "1e-3"],
    "max_iter": ["1", "50", "200"], "target_T": ["1..20", "3..5", "2..2"],
}
BAD_RANGES = ["x", "5..1", "0..3", "1..1e3", "-1..2"]
# Point-cloud, cost and truth files by option.
FILE_OPTIONS = {"x": ["a.csv", "b.csv"], "y": ["b.csv", "a.csv"], "clean": ["a.csv", "b.csv"],
                "dirty": ["b.csv", "a.csv"], "cost": ["c.csv"], "truth": ["t.txt"]}


def _one_in(draw, k):
    """True about once in ``k`` draws."""
    return draw(st.sampled_from([False] * (k - 1) + [True]))


def _csv(draw, rows, tokens):
    """The CSV ``rows``; about once in 5 with one defect: a ragged row, a blank
    line, no content, or an entry replaced by one of ``tokens``."""
    rows, defect = [list(row) for row in rows], None
    if _one_in(draw, 5):
        defect = draw(st.sampled_from(["ragged", "blank", "empty", "token"]))
    if defect == "ragged" and len(rows[-1]) > 1:
        rows[-1].pop()
    elif defect == "blank":
        rows.insert(1, [])
    elif defect == "empty":
        return ""
    elif defect == "token":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(tokens))
    return "".join(",".join(row) + "\n" for row in rows)


@st.composite
def _cloud(draw, dim):
    count = draw(st.integers(4, 8))
    values = st.floats(-3.0, 3.0, allow_subnormal=False).map(repr)
    rows = [[draw(values) for _ in range(dim)] for _ in range(count)]
    if draw(st.booleans()):
        rows.insert(0, [f"x{k}" for k in range(dim)])
    return _csv(draw, rows, ["nan", "inf", "1e200", "abc", ""])


@st.composite
def _cost(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = st.floats(0.0, 100.0, allow_subnormal=False).map(repr)
    rows = [[draw(values) for _ in range(n)] for _ in range(m)]
    return _csv(draw, rows, ["-1", "nan", "inf", "abc", "1e308", "x0"])


@st.composite
def _spec(draw):
    def number():
        return draw(st.sampled_from(NUMBERS if _one_in(draw, 6) else ["0", "1.5", "-2"]))

    dim = draw(st.integers(1, 3))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        count = draw(st.sampled_from(["-1", "2.0"] if _one_in(draw, 8) else ["0", "1", "4"]))
        if draw(st.booleans()):
            mean = ",".join(number() for _ in range(dim))
            parts.append(f"gaussian:mean={mean}:scale={number().lstrip('-')}:count={count}")
        else:
            box = draw(st.sampled_from(["2,1", "-1e308,1e308", "nan,1", "0,inf"]
                                       if _one_in(draw, 6) else ["-1,1"]))
            dims = 0 if _one_in(draw, 8) else dim
            parts.append(f"uniform:box={box}:dim={dims}:count={count}")
    return "triangle:count=3" if _one_in(draw, 10) else " + ".join(parts)


@st.composite
def _cli_case(draw):
    """An argv built from the parser's own option table, with the files it names.

    Paths are relative to ``{d}``, the example's own directory.
    """
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    command = draw(st.sampled_from(sorted(subparsers.choices)))
    dim = draw(st.integers(1, 3))
    other = dim % 3 + 1 if _one_in(draw, 8) else dim
    files = {"a.csv": draw(_cloud(dim)), "b.csv": draw(_cloud(other)), "c.csv": draw(_cost()),
             "t.txt": "x\n" if _one_in(draw, 5) else "0\n2\n"}
    argv = [command]
    for action in subparsers.choices[command]._actions:
        flag, dest = (action.option_strings or [None])[0], action.dest
        if flag is None or dest == "help":
            continue
        # A scaling solve runs to --max-iter: give it a short one.
        if not (action.required or dest == "max_iter" or draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(flag)
            continue
        odd = _one_in(draw, 8)
        if dest in FILE_OPTIONS:
            names = ["missing.csv"] if odd else FILE_OPTIONS[dest]
            value = "{d}/" + draw(st.sampled_from(names))
        elif dest == "out":
            value = "{d}/out.csv"
        elif dest == "spec":
            value = draw(_spec())
        elif action.choices:
            value = "bogus" if odd else draw(st.sampled_from(sorted(action.choices)))
        elif dest == "target_T" and odd:
            value = draw(st.sampled_from(BAD_RANGES))
        else:
            value = draw(st.sampled_from(NUMBERS if odd else ORDINARY[dest]))
        argv.append(f"{flag}={value}")
    if _one_in(draw, 20):
        argv.append("--bogus")
    return argv, files


class TestFuzz:
    """Random argv over every command: a documented exit, one error line, no traceback.

    Each argv comes from the parser's own option table and is mostly
    well formed.  Its numbers come from :data:`NUMBERS`, values that broke
    the CLI before, or from ordinary ones, and its files are small clouds
    and costs with at most one defect each.  Every example runs in-process
    under a deadline, so a hang fails the test, and warnings are errors.

    Left out on purpose are draws that only ask for a legitimately long
    run: a large ``--T`` or ``--max-iter``, and a derived budget between
    about 10^4 and 2**49 iterations.  Costs and clouds stay small, so a
    derived budget is at most a few hundred or, from ``z=1e308`` or a
    median near it, at least 2**49, which exits 3.
    """

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(case=_cli_case())
    @example(case=(["solve", "--cost={d}/c.csv", "--out={d}/out.csv", "--mode=robust",
                    "--z=1e308"], {"c.csv": "0,1\n1,0\n"}))
    @example(case=(["gen", "--spec=gaussian:mean=0:count=100000000000000", "--out={d}/out.csv"],
                   {}))
    def test_every_argv_exits_as_documented(self, case):
        argv, files = case
        with tempfile.TemporaryDirectory() as d:
            for name, text in files.items():
                Path(d, name).write_text(text)
            argv = [arg.replace("{d}", d) for arg in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                with _deadline(5.0):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejected the argv
                        code = exc.code
            written = sorted(set(os.listdir(d)) - set(files))
        lines = err.getvalue().splitlines()
        errors = [line for line in lines if "error: " in line]
        assert code in (0, 2, 3, 4), (argv, lines)
        if code == 0:
            assert all(line.startswith("warning: ") for line in lines), (argv, lines)
        else:
            assert len(errors) == 1, (argv, lines)
            assert written == [], (argv, written)
