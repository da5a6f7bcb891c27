"""Per-layer tracing from outside the package, and the per-layer metrics.

:class:`Tracer` replaces every public function of the eight ``betaot``
modules, in every ``betaot`` module namespace that binds it, with a
wrapper that records a span (inclusive and self time, call count) and,
for a few functions, counts taken from the arguments and the result.
The package source is untouched.  Calls inside the package resolve those
names at call time, so the spans follow the package's own call sequence:
``cli`` -> ``fileio``/``costs``/``solver``/``detect`` -> ``projections``
-> ``potentials``.  Functions are found by name: one that a later version
renames or removes is simply not wrapped, and the metrics built on it
are reported as absent instead of failing the run.

Spans are aggregated per *unit* (one set-up or one operation) in memory.
Counting work happens outside the spans and is subtracted from the spans
that enclose it.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "fileio", "costs", "solver", "projections", "potentials", "detect", "oracle")
# Called once per matrix entry by the CSV writers: a span each would cost
# more than the work it measures.
UNWRAPPED = {"fileio.format_value"}


class Unit:
    """Spans and counts of one set-up or one operation."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0.0, 0.0, 0])  # name -> [inclusive s, self s, calls]
        self.counts = defaultdict(float)


class Tracer:
    """By-name span wrappers around the public functions of ``betaot``."""

    def __init__(self):
        self.present = set()
        self.broken = set()
        self.unit = None
        self._stack = []
        self._patches = []
        self._wrappers = self._build_wrappers()

    def _build_wrappers(self) -> dict:
        wrappers = {}
        for short in MODULES:
            try:
                module = importlib.import_module(f"betaot.{short}")
            except ImportError:
                continue
            for attr, value in vars(module).items():
                qualname = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or qualname in UNWRAPPED
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                wrappers[id(value)] = (value, self._wrap(qualname, value))
                self.present.add(qualname)
        return wrappers

    def install(self):
        for name, module in list(sys.modules.items()):
            if name != "betaot" and not name.startswith("betaot."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def begin(self):
        self.unit = Unit()

    def end(self) -> Unit:
        unit, self.unit = self.unit, None
        return unit

    def _wrap(self, qualname: str, fn):
        counter = COUNTERS.get(qualname)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            unit = tracer.unit
            if unit is None:
                return fn(*args, **kwargs)
            frame = [0.0, 0.0]  # time in child spans, time excluded (counting)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start - frame[1]
                tracer._stack.pop()
                span = unit.spans[qualname]
                span[0] += duration
                span[1] += duration - frame[0]
                span[2] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += duration
            if counter is not None and qualname not in tracer.broken:
                counted = time.perf_counter()
                try:
                    params = signature.bind(*args, **kwargs).arguments
                    counter(unit.counts, params, out)
                except (TypeError, ValueError, AttributeError, KeyError, IndexError, OSError):
                    tracer.broken.add(qualname)
                spent = time.perf_counter() - counted
                for enclosing in tracer._stack:
                    enclosing[1] += spent
            return out

        return wrapper


# --- counters: (counts, bound arguments, return value) ---------------------


def _count_psi_pair(counts, params, out):
    counts["psi_pair.cells"] += out[1].size
    counts["psi_pair.active"] += np.count_nonzero(out[1])


def _count_guarded(axis: int, key: str):
    """Fully clamped rows (axis=1) or columns (axis=0): the Newton guard's case."""

    def count(counts, params, out):
        theta = np.asarray(params["theta_star"])
        unclamped = theta > params["pot"].clamp_bound
        counts[key] += np.count_nonzero(~unclamped.any(axis=axis))

    return count


def _count_robust(counts, params, out):
    counts["robust.iterations"] += out.iterations_run
    counts["robust.nnz"] += np.count_nonzero(out.pi)
    counts["robust.cells"] += out.pi.size


def _count_sinkhorn(counts, params, out):
    counts["sinkhorn.iterations"] += out.iterations_run


def _count_flagged(counts, params, out):
    counts["detect.n_flagged"] += len(out.flagged)


def _count_bytes(key: str, *suffixes: str):
    def count(counts, params, out):
        path = str(params["path"])
        counts[key] += sum(os.path.getsize(path + suffix) for suffix in suffixes)

    return count


COUNTERS = {
    "potentials.psi_pair": _count_psi_pair,
    "projections.row_newton_decrement": _count_guarded(1, "guarded_rows"),
    "projections.col_newton_decrement": _count_guarded(0, "guarded_cols"),
    "solver.robust_solve": _count_robust,
    "solver.sinkhorn_solve": _count_sinkhorn,
    "detect.detect_outliers": _count_flagged,
    "fileio.read_point_cloud": _count_bytes("bytes_read", ""),
    "fileio.read_cost_matrix": _count_bytes("bytes_read", ""),
    "fileio.read_truth": _count_bytes("bytes_read", ""),
    "fileio.sha256_file": _count_bytes("bytes_read", ""),
    "fileio.write_matrix": _count_bytes("bytes_written", ""),
    "fileio.write_point_cloud": _count_bytes("bytes_written", ""),
    "fileio.write_report": _count_bytes("bytes_written", "", ".json"),
}


# --- per-layer metrics: name -> value from one unit, or None when absent ---


def _usable(tracer, names):
    return any(n in tracer.present and n not in tracer.broken for n in names)


def _span(*names):
    """Total inclusive time of ``names``; absent unless every one of them exists."""

    def value(tracer, unit):
        if not all(n in tracer.present for n in names):
            return None
        return sum((unit.spans[n][0] for n in names if n in unit.spans), 0.0)

    return value


def _count(key, *names):
    def value(tracer, unit):
        if names and not _usable(tracer, names):
            return None
        return unit.counts.get(key, 0.0)

    return value


def _ratio(numerator, denominator):
    def value(tracer, unit):
        num, den = numerator(tracer, unit), denominator(tracer, unit)
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    return value


def _layer_self(layer):
    def value(tracer, unit):
        return sum(
            (s[1] for name, s in unit.spans.items() if name.startswith(layer + ".")), 0.0
        )

    return value


_NEWTON = ("projections.row_newton_decrement", "projections.col_newton_decrement")
_ROBUST = _span("solver.robust_solve")
_ROBUST_ITERS = _count("robust.iterations", "solver.robust_solve")
_SINKHORN = _span("solver.sinkhorn_solve")
_SINKHORN_ITERS = _count("sinkhorn.iterations", "solver.sinkhorn_solve")
_READERS = ("fileio.read_point_cloud", "fileio.read_cost_matrix", "fileio.read_truth",
            "fileio.sha256_file")
_WRITERS = ("fileio.write_matrix", "fileio.write_point_cloud", "fileio.write_report")

LAYER_METRICS = {
    "potentials.psi_pair.s": _span("potentials.psi_pair"),
    "potentials.psi_pair.cells": _count("psi_pair.cells", "potentials.psi_pair"),
    "potentials.psi_pair.active_frac": _ratio(
        _count("psi_pair.active", "potentials.psi_pair"),
        _count("psi_pair.cells", "potentials.psi_pair"),
    ),
    "projections.newton_decrement.s": _span(*_NEWTON),
    "projections.truncate.s": _span(
        "projections.truncate_row_decrement", "projections.truncate_col_decrement"
    ),
    "projections.apply.s": _span("projections.apply_row", "projections.apply_col"),
    "projections.clamp_dual.s": _span("projections.clamp_dual"),
    "projections.guarded_rows": _count("guarded_rows", _NEWTON[0]),
    "projections.guarded_cols": _count("guarded_cols", _NEWTON[1]),
    "solver.robust_solve.s": _ROBUST,
    "solver.robust_solve.iterations": _ROBUST_ITERS,
    "solver.robust_solve.s_per_iter": _ratio(_ROBUST, _ROBUST_ITERS),
    "solver.plan.nnz_frac": _ratio(
        _count("robust.nnz", "solver.robust_solve"),
        _count("robust.cells", "solver.robust_solve"),
    ),
    "solver.sinkhorn_solve.s": _SINKHORN,
    "solver.sinkhorn_solve.iterations": _SINKHORN_ITERS,
    "solver.sinkhorn_solve.s_per_iter": _ratio(_SINKHORN, _SINKHORN_ITERS),
    "solver.transport_value.s": _span("solver.transport_value"),
    "solver.marginal_residuals.s": _span("solver.marginal_residuals"),
    "fileio.read_point_cloud.s": _span("fileio.read_point_cloud"),
    "fileio.read_cost_matrix.s": _span("fileio.read_cost_matrix"),
    "fileio.write_matrix.s": _span("fileio.write_matrix"),
    "fileio.write_report.s": _span("fileio.write_report"),
    "fileio.sha256_file.s": _span("fileio.sha256_file"),
    "fileio.bytes_read": _count("bytes_read", *_READERS),
    "fileio.bytes_written": _count("bytes_written", *_WRITERS),
    "costs.sq_euclidean_cost.s": _span("costs.sq_euclidean_cost"),
    "costs.estimate_z.s": _span("costs.estimate_z"),
    "costs.auto_scale.s": _span("costs.auto_scale"),
    "costs.median_threshold.s": _span("costs.median_threshold"),
    "detect.detect_outliers.s": _span("detect.detect_outliers"),
    "detect.n_flagged": _count("detect.n_flagged", "detect.detect_outliers"),
    # Computed by the detect workload's check (flagged columns whose
    # minimum cost reaches z), not by a wrapper.
    "detect.n_certified": _count("quality.n_certified"),
    "oracle.exact_ot.s": _span("oracle.exact_ot"),
    "cli.self.s": _layer_self("cli"),
}
# Metrics of work done during set-up rather than during the operation.
SETUP_METRICS = {"oracle.exact_ot.s"}
# Step metrics whose shares of solver.robust_solve.s the record reports.
ROBUST_STEPS = (
    "potentials.psi_pair.s",
    "projections.newton_decrement.s",
    "projections.truncate.s",
    "projections.apply.s",
    "projections.clamp_dual.s",
    "solver.transport_value.s",
    "solver.marginal_residuals.s",
)


def layer_values(tracer: Tracer, name: str, units: list) -> list | None:
    """Values of one per-layer metric over ``units``; None when absent."""
    values = [LAYER_METRICS[name](tracer, unit) for unit in units]
    return None if any(v is None for v in values) else values


def span_table(units: list) -> dict:
    """Median inclusive/self seconds and calls per unit for every span seen."""
    names = sorted({n for unit in units for n in unit.spans})
    table = {}
    for name in names:
        rows = [unit.spans[name] if name in unit.spans else (0.0, 0.0, 0) for unit in units]
        table[name] = {
            "incl_s": float(np.median([r[0] for r in rows])),
            "self_s": float(np.median([r[1] for r in rows])),
            "calls": float(np.median([r[2] for r in rows])),
        }
    return table
