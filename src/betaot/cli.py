"""Command-line entry points: gen, distance, detect, solve.

Every command echoes a key-sorted ``key=value`` report to stdout and,
with ``--out``, writes output files plus a JSON report sidecar.  Fixed
seeds and inputs reproduce every report field except wall-clock timing.

Exit codes: 0 success; 2 input/format error, or an input too large for
memory; 3 infeasible tolerance or iteration budget, a derived budget of
2**49 or more included; 4 numerical failure.
"""

import argparse
import math
import sys
import time

import numpy as np

from . import __version__
from .costs import (
    SqEuclideanCost,
    auto_scale,
    estimate_z,
    median_threshold,
    sq_euclidean_cost,
)
from .detect import _check_eps_zero, detect_outliers, detection_metrics
from .errors import (
    AutoScaleError,
    BetaOTError,
    BudgetExhaustedError,
    FormatError,
    InfeasibleToleranceError,
    NumericalUnderflowError,
)
from .fileio import (
    read_cost_matrix,
    read_point_cloud,
    read_truth,
    render_report,
    sha256_file,
    write_matrix,
    write_point_cloud,
    write_report,
)
from .oracle import exact_ot
from .potentials import squared_euclidean
from .solver import (
    SolverConfig,
    _count,
    iteration_budget,
    nasa_solve,
    robust_solve,
    sinkhorn_solve,
    transport_value,
)

MODES = ("robust", "sinkhorn", "exact", "nasa-euclidean")


def _parse_target_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise FormatError(f"--target-T expects 'LO..HI', got {text!r}") from exc


def _parse_dist_component(text: str):
    """``(dim, draw)`` for one spec component; ``draw(rng)`` samples its points."""
    parts = text.strip().split(":")
    kind = parts[0].strip().lower()
    params = {}
    for part in parts[1:]:
        if "=" not in part:
            raise FormatError(f"malformed spec component field {part!r}")
        key, value = part.split("=", 1)
        params[key.strip()] = value.strip()
    try:
        if kind == "gaussian":
            mean = np.array([float(v) for v in params["mean"].split(",")])
            scale = float(params.get("scale", "1"))
            count = int(params["count"])
            if not (0 <= scale < math.inf and np.isfinite(mean).all()) or count < 0:
                raise ValueError
            return mean.size, lambda rng: mean + scale * rng.standard_normal((count, mean.size))
        if kind == "uniform":
            lo, hi = (float(v) for v in params["box"].split(","))
            dim = int(params["dim"])
            count = int(params["count"])
            # A NaN or infinite bound makes the width non-finite too.
            if hi < lo or not math.isfinite(hi - lo) or dim < 1 or count < 0:
                raise ValueError
            return dim, lambda rng: rng.uniform(lo, hi, size=(count, dim))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"invalid spec component {text!r}") from exc
    raise FormatError(f"unknown distribution kind {kind!r}")


def sample_spec(spec: str, seed: int) -> np.ndarray:
    """Sample a point cloud from a distribution spec string.

    Grammar: components joined by '+', each either
    ``gaussian:mean=M1,M2,...:scale=S:count=N`` (isotropic, standard
    deviation S) or ``uniform:box=LO,HI:dim=D:count=N`` (the box [LO,HI]^D).
    All components must share one dimension.  Every number must be finite,
    as must the box width HI - LO and every point drawn; otherwise
    :class:`FormatError`.  The components draw in order from one
    ``default_rng(seed)``, ``seed`` an integer >= 0 (else :class:`DomainError`):
    ``mean + S * standard_normal((N, D))`` and ``uniform(LO, HI, (N, D))``.
    """
    components = [_parse_dist_component(c) for c in spec.split("+")]
    dims = {dim for dim, _ in components}
    if len(dims) != 1:
        raise FormatError(f"spec components disagree on dimension: {sorted(dims)}")
    rng = np.random.default_rng(_count("seed", seed, 0))
    with np.errstate(over="ignore"):  # a point beyond the floats raises below
        points = np.vstack([draw(rng) for _, draw in components])
    if not np.all(np.isfinite(points)):
        raise FormatError(f"spec {spec!r} draws points beyond the floats")
    return points


def _run_robust(gamma, z, args, fields):
    """Shared robust-mode pipeline: optional rescale, then ``--T`` or the budget's iterations.

    Returns the plan; the reported value is always w.r.t. the unscaled
    input cost.
    """
    cfg = SolverConfig(beta=args.beta, lam=args.lam)
    scale, gamma_solve, z_solve = 1.0, gamma, z
    if args.auto_scale:
        scale, gamma_solve, z_solve = auto_scale(
            gamma, z, cfg, _parse_target_range(args.target_T)
        )
    certified = True  # a derived budget is, by its definition
    if args.T is not None:
        # Any reason the bound cannot be computed leaves T uncertified; an
        # invalid beta or lambda still fails in the solver.
        try:
            certified = args.T <= iteration_budget(z_solve, cfg, *gamma.shape).budget
        except BetaOTError:
            certified = False
    cfg.iterations, cfg.z = args.T, z_solve
    plan = robust_solve(gamma_solve, cfg)
    if not np.any(plan.entries.values):
        sys.stderr.write("warning: the robust plan is all zeros; it moves no mass\n")
    fields.update({"beta": args.beta, "lambda": args.lam, "z": float(z), "T": plan.iterations_run,
                   "scale": float(scale), "robustness_certified": certified})
    return plan


def _plan_fields(fields, plan):
    """Record the plan's residuals, iteration count and convergence (None is left out)."""
    fields.update(row_residual_l1=plan.row_residual_l1, col_residual_l1=plan.col_residual_l1,
                  iterations_run=plan.iterations_run, converged=plan.converged)


def _solve_mode(gamma, args, fields):
    """Run the ``--mode`` solver on the dense cost ``gamma``; record its report fields.

    Returns the :class:`TransportPlan`.  Its ``pi`` is not read here, so
    a robust plan stays as its entries unless the caller reads it.
    """
    fields["mode"] = args.mode
    if args.mode == "exact":
        # No iteration count: a None field is left out of the report.
        plan = exact_ot(gamma)
    elif args.mode == "robust":
        z = args.z if args.z is not None else median_threshold(gamma)
        plan = _run_robust(gamma, z, args, fields)
    elif args.mode == "nasa-euclidean":
        fields["lambda"] = args.lam
        plan = nasa_solve(
            gamma, args.lam, squared_euclidean(), args.sinkhorn_tol, args.max_iter
        )
    else:
        fields["lambda"] = args.lam
        plan = sinkhorn_solve(gamma, args.lam, args.sinkhorn_tol, args.max_iter)
    # The solve ran on gamma itself unless robust mode rescaled it.
    rescaled = fields.get("scale", 1.0) != 1.0
    fields["value"] = transport_value(plan, gamma) if rescaled else plan.value
    _plan_fields(fields, plan)
    return plan


def _fields(command, shape, **inputs):
    """A report's header: the command, the cost's shape and each input file's sha256."""
    m, n = shape
    hashes = {f"sha256_{name}": sha256_file(path) for name, path in inputs.items()}
    return {"command": command, "m": m, "n": n, **hashes}


def _finish(fields, start: float, report_path) -> int:
    """Time the command since ``start``, echo its report and write it to ``report_path``."""
    fields["wall_ms"] = (time.perf_counter() - start) * 1000.0
    sys.stdout.write(render_report(fields))
    if report_path:
        write_report(report_path, fields)
    return 0


def cmd_gen(args) -> int:
    start = time.perf_counter()
    points = sample_spec(args.spec, args.seed)
    write_point_cloud(args.out, points)
    count, dim = points.shape
    fields = {"command": "gen", "spec": args.spec, "seed": args.seed, "count": count,
              "dim": dim, "out": args.out, "sha256_out": sha256_file(args.out)}
    return _finish(fields, start, None)


def cmd_distance(args) -> int:
    start = time.perf_counter()
    x, y = read_point_cloud(args.x), read_point_cloud(args.y)
    gamma = sq_euclidean_cost(x, y)
    fields = _fields("distance", gamma.shape, x=args.x, y=args.y)
    _solve_mode(gamma, args, fields)
    return _finish(fields, start, args.out)


def cmd_detect(args) -> int:
    start = time.perf_counter()
    _check_eps_zero(args.eps_zero)  # before the inputs are read and solved
    clean, dirty = read_point_cloud(args.clean), read_point_cloud(args.dirty)
    gamma = SqEuclideanCost(clean, dirty)
    fields = _fields("detect", gamma.shape, clean=args.clean, dirty=args.dirty)
    fields.update(percentile=args.percentile, seed=args.seed, eps_zero=args.eps_zero)
    z = args.z if args.z is not None else estimate_z(clean, args.percentile, args.seed)
    plan = _run_robust(gamma, z, args, fields)
    _plan_fields(fields, plan)
    report = detect_outliers(plan, eps_zero=args.eps_zero)
    fields.update(flagged=report.flagged, n_flagged=len(report.flagged))
    if args.truth:
        metrics = detection_metrics(report, read_truth(args.truth))
        fields.update(
            outlier_recall=metrics.outlier_recall,
            inlier_specificity=metrics.inlier_specificity,
        )
    return _finish(fields, start, args.out)


def cmd_solve(args) -> int:
    start = time.perf_counter()
    gamma = read_cost_matrix(args.cost)
    fields = _fields("solve", gamma.shape, cost=args.cost)
    fields["plan_out"] = args.out
    plan = _solve_mode(gamma, args, fields)
    write_matrix(args.out, plan.pi)
    return _finish(fields, start, str(args.out) + ".report")


def _add_common_solver_flags(p):
    p.add_argument("--beta", type=float, default=1.2)
    p.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--auto-scale", dest="auto_scale", action="store_true")
    p.add_argument("--target-T", dest="target_T", default="1..20")


def _add_mode_flags(p):
    p.add_argument("--mode", choices=MODES, default="robust")
    p.add_argument("--sinkhorn-tol", dest="sinkhorn_tol", type=float, default=1e-9)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=10000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betaot",
        description="Outlier-robust regularized optimal transport on CSV files.",
    )
    parser.add_argument("--version", action="version", version=f"betaot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a synthetic point cloud to CSV")
    gen.add_argument("--spec", required=True, help="distribution spec string")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    dist = sub.add_parser("distance", help="transport value between two point clouds")
    dist.add_argument("--x", required=True)
    dist.add_argument("--y", required=True)
    dist.add_argument("--out", default=None)
    _add_common_solver_flags(dist)
    _add_mode_flags(dist)
    dist.set_defaults(func=cmd_distance)

    det = sub.add_parser("detect", help="flag outliers in a contaminated cloud")
    det.add_argument("--clean", required=True)
    det.add_argument("--dirty", required=True)
    det.add_argument("--percentile", type=float, default=99.0)
    det.add_argument("--seed", type=int, default=0)
    det.add_argument("--truth", default=None)
    det.add_argument("--eps-zero", dest="eps_zero", type=float, default=1e-12)
    det.add_argument("--out", default=None)
    _add_common_solver_flags(det)
    det.set_defaults(func=cmd_detect)

    solve = sub.add_parser("solve", help="run a solver on a raw cost matrix")
    solve.add_argument("--cost", required=True)
    solve.add_argument("--out", required=True, help="plan CSV; the report goes to OUT.report")
    _add_common_solver_flags(solve)
    _add_mode_flags(solve)
    solve.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleToleranceError, BudgetExhaustedError, AutoScaleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if not getattr(args, "auto_scale", True):
            sys.stderr.write("hint: --auto-scale can rescale the problem into budget\n")
        return 3
    except NumericalUnderflowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except MemoryError as exc:  # an input too large for memory
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 2
    except (FormatError, OSError, BetaOTError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
