"""Offline smoke test of the benchmark's workloads in ``perfbench/workloads.py``.

Each workload is set up in a temporary directory, and its operation runs
and is checked twice.  Every check must pass, and both runs must give
the same fingerprint (plan hash, value, report fields), as the benchmark
requires of every operation.  The module is imported from its file and
used as it is.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["detect", "distance"])
def test_workload_checks_pass_and_repeat(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    case = workload.setup(workload.default_seed, tmp_path)
    verdicts = [workload.check(case, workload.op(case)) for _ in range(2)]
    for verdict in verdicts:
        assert verdict.ok, verdict.problems
    assert verdicts[0].fingerprint is not None
    assert verdicts[0].fingerprint == verdicts[1].fingerprint
