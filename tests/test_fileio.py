"""CSV readers and writers: the fast reader against the one line parser, the
writers and their numpy kernel against ``format_value``."""

import builtins
import contextlib
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from decimal import Context, Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from betaot import SolverConfig, _ryu, fileio, robust_solve, solver
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
    """``read`` against itself with the ``strtold`` and ``np.loadtxt`` paths turned off.

    Without them every file goes through the one line parser
    (``fileio._parse_table``), and ``read_cost_matrix`` still adds its
    negativity check to what the parser returns.
    """
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        fast = _outcome(read, path)
        with mock.patch.object(fileio, "_fast_table", lambda path, table: None), \
                mock.patch.object(fileio, "_load_rows", lambda fh, pos: None):
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


def _midpoint(d: float, side: int) -> str:
    """The exact decimal midpoint of ``d`` and the next double up, times ``1 + side * 1e-40``."""
    with localcontext(Context(prec=1200)):  # exact: a double has at most 767 digits
        top = d == sys.float_info.max  # its upper neighbour is 2**1024, beyond the doubles
        up = Decimal(2) ** 1024 if top else Decimal(float(np.nextafter(d, np.inf)))
        return str((Decimal(d) + up) / 2 * (1 + side * Decimal("1e-40")))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SIGNS = st.sampled_from(["", "-", "+"])
TOKENS = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda x: "%.17g" % x),
    st.builds("{}{}e{}".format, SIGNS, st.integers(0, 10**4), st.integers(-30, 30)),
    st.builds("{}{}.{}e{}".format, SIGNS, st.integers(0, 9),
              st.text("0123456789", min_size=20, max_size=40), st.integers(-340, 320)),
    st.builds(_midpoint, FINITE, st.sampled_from([-1, 0, 1])),
    st.floats(-3e-308, 3e-308).map(repr),
    st.sampled_from(["2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400", "-0",
                     "1.7976931348623158e308", "1.7976931348623159e308", "1e309", "-1e400"]),
)
# Ties of the second rounding: to even gives 1.0 where 1 + 2**-52 is nearest, and the reverse.
TIES = [_midpoint(1.0, 1), _midpoint(1.0 + 2**-52, -1), _midpoint(-1.0 - 2**-52, 1),
        _midpoint(sys.float_info.max, -1), _midpoint(2.0**-1022, -1)]


def _fast(text: str, **patches):
    """``fileio._fast_table`` on a point-cloud file holding ``text``."""
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("ascii"))
        with mock.patch.multiple(fileio, **patches) if patches else contextlib.nullcontext():
            return fileio._fast_table(path, fileio._POINTS)
    finally:
        os.unlink(path)


class TestStrtoldPathMatchesFloat:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TOKENS, min_size=1, max_size=30), st.booleans())
    @example(TIES, False)
    @example(TIES, True)
    def test_every_value_has_the_bits_of_float(self, tokens, column):
        text = ("\n" if column else ",").join(tokens) + "\n"
        expected = np.array([float(tok) for tok in tokens])
        # The default chunks, and chunks of a few lines in two halves on two threads.
        for patches in ({}, {"_CHUNK_BYTES": 64, "_TWO_HALF_BYTES": 0}):
            with mock.patch.object(solver, "_usable_cpus", lambda: 2):
                got = _fast(text, **patches)
            if not np.isfinite(expected).all():
                assert got is None
                continue
            assert got is not None and got.shape == ((len(tokens), 1) if column
                                                     else (1, len(tokens)))
            assert got.reshape(-1).tobytes() == expected.tobytes(), (tokens, patches)

    def test_a_file_without_the_last_line_end_reads_whole(self):
        assert _fast("1,2\n3,4").tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("text", ["1,2\r\n3,4\r\n", "1,2\n3\n", "1,2\n\n3,4\n", " 1,2\n",
                                      "1,2\n1,,2\n", "0\n1.2.3\n", "0\n1e\n", "1,2\n3,1e999\n",
                                      "\n1\n"])
    def test_what_it_does_not_vouch_for_goes_to_the_earlier_reader(self, text):
        assert _fast(text) is None


def _matrix_file(tmp_path, m=40, n=50):
    """A cost CSV of random entries and the matrix it holds, bit for bit."""
    mat = np.random.default_rng(11).uniform(0.0, 10.0, size=(m, n))
    path = tmp_path / "cost.csv"
    write_matrix(path, mat)
    return path, mat


class TestStrtoldPathThreads:
    """Small chunks and no size threshold, so every read runs many two-half steps."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        monkeypatch.setattr(fileio, "_CHUNK_BYTES", 2048)
        monkeypatch.setattr(fileio, "_TWO_HALF_BYTES", 0)

    def test_one_cpu_starts_no_thread(self, tmp_path, monkeypatch):
        path, mat = _matrix_file(tmp_path)

        def refusing(*args, **kwargs):
            raise AssertionError("a one-CPU read started a thread")

        monkeypatch.setattr(solver, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(threading, "Thread", refusing)
        assert read_cost_matrix(path).tobytes() == mat.tobytes()

    def test_two_cpus_join_the_helper_on_return(self, tmp_path, monkeypatch):
        path, mat = _matrix_file(tmp_path)
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(threading, "Thread", Recorded)
        assert read_cost_matrix(path).tobytes() == mat.tobytes()
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_an_error_in_either_half_is_raised_once_both_are_done(self, tmp_path, monkeypatch,
                                                                   failing):
        path, _ = _matrix_file(tmp_path)
        parse, finished, helpers = fileio._parse_piece, [], set()

        def piece(job, line):
            on_helper = threading.current_thread() is not threading.main_thread()
            if on_helper:
                helpers.add(threading.current_thread())
            if on_helper == (failing == "helper"):
                raise RuntimeError(f"the {failing} half failed")
            time.sleep(0.05)
            parse(job, line)
            finished.append(on_helper)

        monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(fileio, "_parse_piece", piece)
        with pytest.raises(RuntimeError, match=f"the {failing} half failed"):
            read_cost_matrix(path)
        # The other half ran to its end, and the helper thread is gone.
        assert finished == [failing == "caller"]
        (helper,) = helpers
        assert not helper.is_alive()


class TestStrtoldPathMemory:
    def test_a_large_read_holds_the_table_and_a_few_mb(self, tmp_path, monkeypatch):
        # The 1000 x 1000 table is 8 MB; a chunk's text and values add about 2 MB.
        path, mat = _matrix_file(tmp_path, 1000, 1000)
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            gamma = read_cost_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gamma.tobytes() == mat.tobytes()
        assert peak < mat.nbytes + 4_000_000


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


def _kernel(values) -> bytes:
    """The kernel's line for ``values`` as one row."""
    return _ryu.csv_rows(np.array([values], dtype=float))


def _line(values) -> bytes:
    return (",".join(format_value(v) for v in values) + "\n").encode("ascii")


def _neighbours(values):
    """``values``, their neighbouring doubles and the negatives of all three."""
    out = []
    for v in values:
        out += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    return out + [-v for v in out]


# Ryu's general case: an exact vr (powers of two, integers, short binary
# fractions) or an exponent where a bound may be exact (2**52 to 2**130).
GENERAL = [0.5, 0.25, 3.0, 123.0, 1e22, 1e23, 2.0**54, 2.0**54 + 4, 2.0**60 + 2**9,
           2.0**75, 1.5, 9007199254740992.0, 4503599627370497.0]


class TestKernelMatchesFormatValue:
    """``_ryu.csv_rows``, the writers' kernel, gives ``format_value`` per entry."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ENTRIES, min_size=1, max_size=40))
    @example(EDGE_VALUES)
    def test_any_floats(self, values):
        assert _kernel(values) == _line(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20261020).integers(0, 2**64, 200_000, dtype=np.uint64,
                                                         endpoint=False)
        top = np.uint64(0x7FF << 52)
        bits ^= ((bits & top) == top).astype(np.uint64) << np.uint64(52)  # NaN/inf -> finite
        values = bits.view(np.float64).reshape(200, 1000)
        assert np.isfinite(values).all()
        assert _written(write_matrix, values) == _per_entry(values).encode("ascii")

    def test_powers_of_two_and_ten(self):
        values = _neighbours([math.ldexp(1.0, e) for e in range(-1074, 1024)]
                             + [float(f"1e{e}") for e in range(-323, 309)])
        assert _kernel(values) == _line(values)

    def test_integers_subnormals_and_switch_points(self):
        rng = np.random.default_rng(3)
        integers = np.concatenate([
            np.arange(100_000), 2**53 - np.arange(1000), rng.integers(0, 2**53, 20_000),
        ]).astype(float)
        subnormals = (rng.integers(1, 2**52, 20_000, dtype=np.uint64)).view(np.float64)
        switches = _neighbours([1e-5, 1e-4, 1e15, 1e16, 1e17, 0.001, 2.0**53])
        values = np.concatenate([integers, -integers, subnormals, -subnormals, switches])
        assert _kernel(values) == _line(values)

    def test_a_block_of_integers_skips_ryu(self, monkeypatch):
        rng = np.random.default_rng(4)
        values = np.concatenate([
            np.arange(-1000, 1000), rng.integers(-2**53, 2**53, 10_000),
            [9999999999999998, -9999999999999998, 2**53, 2**53 - 1, 0],
        ]).astype(float)
        values = np.append(values, -0.0)
        expected = _line(values)

        def refusing(bits):
            raise AssertionError("Ryu ran on a block of integers")

        monkeypatch.setattr(_ryu, "_shortest", refusing)
        assert _kernel(values) == expected

    def test_general_case_runs_in_the_kernel(self):
        values = np.array(_neighbours(GENERAL) + list(range(1, 500)), dtype=float)
        values = values[values != 0.0]  # _shortest takes nonzero finite doubles
        expected = _line(values)
        t = _ryu._tables()  # built once, before repr is refused
        bits = np.abs(values).view(np.uint64)
        field = (bits >> np.uint64(52)).view(np.int64)
        m2 = (bits & _ryu._MANT) | np.where(field > 0, np.uint64(1 << 52), np.uint64(0))
        general = ((m2 & t.tz_mask[field]) == 0) | t.rare[field]
        assert general[np.isin(np.abs(values), GENERAL)].all()

        def refusing(obj):
            raise AssertionError(f"repr({obj!r}) called")

        with mock.patch.object(builtins, "repr", refusing):
            written = _kernel(values)
            output, exponent = _ryu._shortest(bits)
        assert written == expected
        # Integers skip Ryu in the writer; Ryu's own digits for them are repr's too.
        for value, digits, power in zip(values, output, exponent):
            sign, shown, exp = Decimal(repr(abs(float(value)))).normalize().as_tuple()
            assert (int(digits), int(power)) == (int("".join(map(str, shown))), exp), value

    def test_a_write_starts_no_process_or_thread(self, monkeypatch):
        plan = _plan(600, 600)  # 360,000 entries: past the size that once took helpers

        def refusing(*args, **kwargs):
            raise AssertionError("a write started a process or a thread")

        monkeypatch.setattr(subprocess, "Popen", refusing)
        monkeypatch.setattr(threading, "Thread", refusing)
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 4)
        assert _written(write_matrix, plan) == _per_entry(plan).encode("utf-8")


def _plan(m, n):
    """A robust plan on a cost with far columns, so it holds exact zeros."""
    rng = np.random.default_rng(5)
    gamma = rng.uniform(0.0, 4.0, size=(m, n))
    gamma[:, : n // 10] += 1e3
    return robust_solve(gamma, SolverConfig(beta=1.2, lam=1.0, iterations=5)).pi


class TestHelpers:
    """What a write holds and loads: one block at a time, and no ``subprocess``."""

    def test_parent_memory_stays_per_row(self, monkeypatch):
        # A 1000 x 1000 matrix is 8 MB; the parent may hold a few rows.
        mat = np.random.default_rng(7).uniform(0.0, 1.0, size=(1000, 1000))
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
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
