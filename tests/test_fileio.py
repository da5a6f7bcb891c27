"""CSV readers and writers: the fast reader against the one line parser, the
writers (with and without helper processes) against ``format_value``."""

import contextlib
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from betaot import SolverConfig, _csvrows, fileio, robust_solve
from betaot.fileio import (
    format_value,
    read_cost_matrix,
    read_point_cloud,
    write_matrix,
    write_point_cloud,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Mostly valid nonnegative fields, one in ten of the odd kind: negative,
# non-finite, empty, non-numeric, or "1_0", which float() accepts and
# np.loadtxt does not.  Any of them may be padded.
VALID = st.one_of(
    st.floats(0.0, 1e6).map(repr),
    st.integers(0, 1000).map(str),
    st.sampled_from(["+1e5", "-0", "1.", ".5"]),
)
ODD = st.one_of(
    st.floats(-1e6, -1e-6).map(repr),
    st.sampled_from(["1e400", "inf", "-inf", "nan", "1_0", "", "x", "1 2"]),
)
FIELDS = (
    st.integers(0, 9)
    .flatmap(lambda k: ODD if k == 0 else VALID)
    .flatmap(lambda f: st.sampled_from([f, f" {f}", f"{f} ", f"\t{f} "]))
)


@st.composite
def csv_texts(draw, header):
    """CSV text with optional header, blank lines, CRLF ends and ragged rows."""
    width = draw(st.integers(1, 4))
    lines = []
    if header and draw(st.booleans()):
        lines.append(",".join(f"x{i}" for i in range(width)))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "ragged", "trailing"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        count = width + draw(st.sampled_from([-1, 1])) if kind == "ragged" else width
        fields = draw(st.lists(FIELDS, min_size=max(count, 1), max_size=max(count, 1)))
        lines.append(",".join(fields) + ("," if kind == "trailing" else ""))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(read, path):
    """The array read, or the type and message of the error raised."""
    try:
        return read(path)
    except Exception as exc:  # the comparison needs the exact error
        return type(exc), str(exc)


def _same(fast, slow):
    if isinstance(fast, np.ndarray) and isinstance(slow, np.ndarray):
        return (
            fast.dtype == slow.dtype
            and fast.shape == slow.shape
            and np.array_equal(fast.view(np.int64), slow.view(np.int64))
        )
    return not isinstance(fast, np.ndarray) and fast == slow


def _compare(text, read):
    """``read`` against itself with the ``np.loadtxt`` fast path turned off.

    Without the fast path every file goes through the one line parser
    (``fileio._parse_table``), and ``read_cost_matrix`` still adds its
    negativity check to what the parser returns.
    """
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        fast = _outcome(read, path)
        with mock.patch.object(fileio, "_load_rows", lambda fh, pos: None):
            reference = _outcome(read, path)
    finally:
        os.unlink(path)
    event("array" if isinstance(reference, np.ndarray) else "error")
    assert _same(fast, reference), (text, fast, reference)


class TestFastReaderMatchesLineParser:
    @settings(max_examples=300, deadline=None)
    @given(csv_texts(header=True))
    def test_point_cloud(self, text):
        _compare(text, read_point_cloud)

    @settings(max_examples=300, deadline=None)
    @given(csv_texts(header=False))
    # The shared reader skips a header row only for point clouds.
    @example("x0,x1\n1,2\n")
    @example("x0,x1\n")
    def test_cost_matrix(self, text):
        _compare(text, read_cost_matrix)

    def test_header_only_file_gives_empty_cloud_without_warning(self, tmp_path, recwarn):
        path = tmp_path / "header.csv"
        path.write_text("x0,x1,x2\n\n")
        assert read_point_cloud(path).shape == (0, 3)
        assert not recwarn.list


# Values where the written text changes form: signed zeros, the smallest
# subnormal, repr's switches to exponent notation below 1e-4 and from
# 1e16 on, and the non-finite values.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 9.999999999999999e-05, 1e-4,
               999999999999999.9, 1e15, 9999999999999998.0, 1e16,
               np.inf, -np.inf, np.nan, -1.5, -2.5e-7]
ENTRIES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())


@st.composite
def matrices(draw):
    """Small float matrices, including 0 x n and m x 0 shapes."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    values = draw(st.lists(ENTRIES, min_size=m * n, max_size=m * n))
    return np.array(values, dtype=float).reshape(m, n)


def _per_entry(mat) -> str:
    return "".join(",".join(format_value(v) for v in row) + "\n" for row in mat)


def _written(write, mat, **kwargs) -> bytes:
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write(path, mat, **kwargs)
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.unlink(path)


class TestWritersMatchFormatValue:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    @example(np.zeros((0, 3)))
    @example(np.zeros((3, 0)))
    @example(np.array([EDGE_VALUES]))
    @example(np.array(EDGE_VALUES).reshape(4, 4))
    def test_matrix(self, mat):
        assert _written(write_matrix, mat) == _per_entry(mat).encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(matrices())
    @example(np.zeros((0, 3)))
    @example(np.zeros((3, 0)))
    def test_point_cloud(self, points):
        head = ",".join(f"x{i}" for i in range(points.shape[1])) + "\n"
        expected = (head + _per_entry(points)).encode("utf-8")
        assert _written(write_point_cloud, points) == expected


@contextlib.contextmanager
def helpers_on(cpus, min_entries=1):
    """Helpers from ``min_entries`` entries on, for ``cpus`` usable CPUs.

    Yields the list of the row counts this process formats itself, one
    per call of ``fileio._format_rows``.  A write whose helpers all work
    makes one such call, for its first chunk.
    """
    formatted = []
    format_rows = fileio._format_rows

    def recording(fh, rows):
        formatted.append(len(rows))
        format_rows(fh, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_MIN_HELPER_ENTRIES", min_entries)
        mp.setattr(fileio, "_usable_cpus", lambda: cpus)
        mp.setattr(fileio, "_format_rows", recording)
        yield formatted


def _in_helpers(write, mat, **kwargs) -> bytes:
    """What ``write`` writes with every chunk but the first in a helper."""
    with helpers_on(3) as formatted:
        out = _written(write, mat, **kwargs)
    assert len(formatted) == 1
    return out


class TestWritersInHelpersMatchFormatValue:
    """The writers' test above with three chunks, two of them in helpers.

    A matrix with fewer rows takes one chunk per row; one without
    entries is written here.
    """

    @settings(max_examples=100, deadline=None)
    @given(matrices())
    @example(np.zeros((0, 3)))
    @example(np.zeros((3, 0)))
    @example(np.array([EDGE_VALUES]))
    @example(np.array(EDGE_VALUES).reshape(2, 8))
    @example(np.array(EDGE_VALUES).reshape(4, 4))
    def test_matrix(self, mat):
        assert _in_helpers(write_matrix, mat) == _per_entry(mat).encode("utf-8")

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    @example(np.zeros((0, 3)))
    @example(np.zeros((3, 0)))
    @example(np.array(EDGE_VALUES).reshape(8, 2))
    def test_point_cloud(self, points):
        head = ",".join(f"x{i}" for i in range(points.shape[1])) + "\n"
        expected = (head + _per_entry(points)).encode("utf-8")
        assert _in_helpers(write_point_cloud, points) == expected


def _plan(m, n):
    """A robust plan on a cost with far columns, so it holds exact zeros."""
    rng = np.random.default_rng(5)
    gamma = rng.uniform(0.0, 4.0, size=(m, n))
    gamma[:, : n // 10] += 1e3
    return robust_solve(gamma, SolverConfig(beta=1.2, lam=1.0, iterations=5)).pi


class TestHelpers:
    def test_plan_at_the_real_threshold(self, capfd):
        plan = _plan(600, 600)
        assert (plan == 0.0).any() and (plan > 0.0).any()
        assert plan.size // fileio._MIN_HELPER_ENTRIES == 3
        with helpers_on(3, fileio._MIN_HELPER_ENTRIES) as formatted:
            out = _written(write_matrix, plan)
        assert out == _per_entry(plan).encode("utf-8")
        assert formatted == [200]
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize(
        "executable", ["", "/nonexistent/python", "/bin/false", "/bin/true", "rows-then-exit-1"]
    )
    def test_a_failed_helper_changes_no_byte(self, executable, tmp_path, capfd, monkeypatch):
        mat = np.array(EDGE_VALUES * 4).reshape(8, 8)
        if executable == "rows-then-exit-1":
            # As many lines as each helper's chunk has rows (3 of 8), then a failure.
            fake = tmp_path / "python"
            fake.write_text("#!/bin/sh\nprintf 'x\\nx\\nx\\n'\nexit 1\n")
            fake.chmod(0o755)
            executable = str(fake)
        monkeypatch.setattr(sys, "executable", executable)
        with helpers_on(3) as formatted:
            out = _written(write_matrix, mat)
        assert out == _per_entry(mat).encode("utf-8")
        assert sum(formatted) == 8  # every row, none from a helper
        assert capfd.readouterr().out == ""

    def test_an_error_in_the_parent_reaps_every_helper(self, monkeypatch):
        started = []

        class Recording(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        def failing(values):
            raise RuntimeError("parent failed")

        monkeypatch.setattr(subprocess, "Popen", Recording)
        monkeypatch.setattr(_csvrows, "format_row", failing)
        with helpers_on(3), pytest.raises(RuntimeError, match="parent failed"):
            _written(write_matrix, np.ones((9, 4)))
        assert len(started) == 2
        assert all(proc.returncode is not None for proc in started)

    def test_parent_memory_stays_per_row(self, monkeypatch):
        # A 1000 x 1000 matrix is 8 MB; the parent may hold a few rows.
        mat = np.random.default_rng(7).uniform(0.0, 1.0, size=(1000, 1000))
        monkeypatch.setattr(fileio, "_usable_cpus", lambda: 2)
        fd, path = tempfile.mkstemp(suffix=".csv")
        os.close(fd)
        tracemalloc.start()
        try:
            write_matrix(path, mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            os.unlink(path)
        assert peak < 2_000_000

    def test_importing_the_cli_loads_no_subprocess(self):
        probe = "import sys; import betaot.cli; print('subprocess' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]
