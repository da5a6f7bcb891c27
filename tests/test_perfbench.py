"""Offline smoke test of the benchmark's workloads in ``perfbench/workloads.py``.

Each workload is set up in a temporary directory, and its operation runs
and is checked twice.  Every check must pass, and both runs must give
the same fingerprint (plan hash, value, report fields), as the benchmark
requires of every operation.  A traced run, with the per-layer tracer of
``perfbench/spans.py``, must give every per-layer metric a value and
reproduce the untraced output.  The modules are imported from their
files and used as they are.
"""

import importlib.util
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.mark.parametrize("name", ["detect", "distance"])
def test_workload_checks_pass_and_repeat(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    case = workload.setup(workload.default_seed, tmp_path)
    verdicts = [workload.check(case, workload.op(case)) for _ in range(2)]
    for verdict in verdicts:
        assert verdict.ok, verdict.problems
    assert verdicts[0].fingerprint is not None
    assert verdicts[0].fingerprint == verdicts[1].fingerprint


def _traced(tracer, call):
    """``call()`` with the tracer installed; returns its result and the unit."""
    tracer.install()
    try:
        tracer.begin()
        out = call()
        return out, tracer.end()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", ["detect", "distance"])
def test_traced_run_gives_every_layer_metric(workloads, spans, name, tmp_path):
    # As perfbench/run.py does with --trace 1: a traced set-up, then an
    # untraced and a traced operation.
    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    case, setup_unit = _traced(tracer, lambda: workload.setup(workload.default_seed, tmp_path))
    untraced = workload.check(case, workload.op(case))
    out, op_unit = _traced(tracer, lambda: workload.op(case))
    traced = workload.check(case, out)
    for key, value in traced.quality.items():
        op_unit.counts["quality." + key] = value

    assert untraced.ok, untraced.problems
    assert traced.ok, traced.problems
    assert traced.fingerprint == untraced.fingerprint
    assert tracer.broken == set()
    for metric in spans.LAYER_METRICS:
        unit = setup_unit if metric in spans.SETUP_METRICS else op_unit
        values = spans.layer_values(tracer, metric, [unit])
        assert values is not None, f"{metric} is absent"
        assert isinstance(values[0], (int, float)) and math.isfinite(values[0]), (metric, values)
