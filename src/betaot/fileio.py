"""CSV and report serialization shared by the command-line entry points.

Point-cloud files are one point per row, comma-separated decimals, with
an optional single header row (detected by a non-numeric first row).
Cost matrices and plans are dense comma-separated rows without headers.
Both are read by one reader: ``np.loadtxt``, else one line parser, so
each error reads the same.  Plans are written with full round-trip
precision and exact zeros as the literal ``0``.

Nearly all of a large write is ``repr`` of each float, under the GIL.
So a write of at least ``2 * _MIN_HELPER_ENTRIES`` entries, with two or
more usable CPUs, spreads its rows over helper processes: the same
interpreter running the numpy-free ``_csvrows`` module, which holds the
one row formatter.  Each helper formats one contiguous chunk of rows
into an anonymous temporary file; this process formats the first chunk
and appends the helpers' files in order.  The bytes are the same as
without helpers, since any chunk whose helper fails is formatted here,
and no helper outlives the call.

Reports are line-oriented ``key=value`` text, key-sorted for stable
diffs, plus a JSON sidecar with the same fields.
"""

import hashlib
import json
import shutil
import sys
import tempfile
from collections import namedtuple

import numpy as np

from . import _csvrows, solver
from .errors import FormatError

# Entries per helper process.  Formatting them takes about 0.15 s, far
# more than the 15-30 ms a helper takes to start.
_MIN_HELPER_ENTRIES = 100_000


def _parse_numeric_row(line: str):
    try:
        return [float(tok) for tok in line.split(",")]
    except ValueError:
        return None


def _next_line(fh):
    """Position and text of the next nonblank line; the text is None at the end."""
    while True:
        pos = fh.tell()
        line = fh.readline()
        if not line or line.strip():
            return pos, line or None


def _load_rows(fh, pos):
    """The rows from ``pos`` on, parsed by ``np.loadtxt``, or None.

    None when ``np.loadtxt`` rejects them or reads a non-finite entry:
    then the line parser decides, so every error reads the same.
    """
    fh.seek(pos)
    try:
        rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if np.isfinite(rows).all() else None


# The format of a CSV table: whether a non-numeric first row is a header
# (else it is an error), and the nouns of the parser's messages.
_Table = namedtuple("_Table", "header file row entries")
_POINTS = _Table(True, "point-cloud file", "data row", "coordinates")
_COSTS = _Table(False, "cost file", "row", "cost entries")


def read_point_cloud(path) -> np.ndarray:
    """Read a point cloud CSV, skipping an optional header row.

    Returns an array of shape (k, d); a header-only file yields (0, d).
    """
    return _read_table(path, _POINTS)


def read_cost_matrix(path) -> np.ndarray:
    """Read a dense cost matrix CSV; entries must be finite and nonnegative."""
    gamma = _read_table(path, _COSTS)
    if np.any(gamma < 0.0):
        raise FormatError(f"{path}: negative cost entries")
    return gamma


def _read_table(path, table: _Table) -> np.ndarray:
    """The finite table at ``path``: ``np.loadtxt`` if it reads it, else the line parser."""
    with open(path, "r", encoding="utf-8") as fh:
        pos, first = _next_line(fh)
        if first is not None:
            dim = len(first.split(","))
            if table.header and _parse_numeric_row(first.strip()) is None:
                pos, line = _next_line(fh)
                if line is None:
                    return np.zeros((0, dim))
            rows = _load_rows(fh, pos)
            if rows is not None and rows.shape[1] == dim:
                return rows
        fh.seek(0)
        return _parse_table(path, fh, table)


def _parse_table(path, fh, table: _Table) -> np.ndarray:
    """The line parser behind :func:`_read_table`: every format error it raises."""
    lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty {table.file}")
    dim = len(lines[0].split(","))
    if table.header and _parse_numeric_row(lines[0]) is None:
        lines = lines[1:]
    rows = []
    for ln in lines:
        row = _parse_numeric_row(ln)
        if row is None:
            raise FormatError(f"{path}: non-numeric {table.row} {ln!r}")
        if len(row) != dim:
            raise FormatError(f"{path}: ragged row with {len(row)} fields, expected {dim}")
        rows.append(row)
    values = np.array(rows, dtype=float).reshape(len(rows), dim)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: non-finite {table.entries}")
    return values


def format_value(v: float) -> str:
    """Shortest round-trip decimal; exact zeros become the literal '0'."""
    if v == 0.0:
        return "0"
    return repr(float(v))


def _format_rows(fh, rows):
    """Format ``rows`` here, one row at a time as Python floats."""
    for row in rows:
        fh.write(_csvrows.format_row(row.tolist()))


def _write_rows(fh, mat: np.ndarray):
    """Write the rows of ``mat`` as :func:`format_value` writes each entry.

    With k = min(usable CPUs, entries // ``_MIN_HELPER_ENTRIES``, rows)
    of at least 2, the rows are split into k contiguous chunks.  Chunks
    2..k go to helper processes while this process formats the first;
    then each helper's output is appended in order.  A chunk whose
    helper cannot start, exits nonzero or leaves other than one line per
    row is formatted here instead, so the bytes never depend on helpers.
    """
    m = mat.shape[0]
    k = min(solver._usable_cpus(), mat.size // _MIN_HELPER_ENTRIES, m)
    if k < 2 or not sys.executable:
        _format_rows(fh, mat)
        return
    bounds = [m * i // k for i in range(k + 1)]
    first, *rest = [mat[a:b] for a, b in zip(bounds, bounds[1:])]
    helpers = []
    try:
        for chunk in rest:
            helper = _start_helper(chunk)
            if helper is None:
                break
            helpers.append(helper)
        _format_rows(fh, first)
        for chunk, (proc, out) in zip(rest, helpers):
            if proc.wait() == 0 and _holds_rows(out, len(chunk)):
                fh.flush()
                shutil.copyfileobj(out, fh.buffer)
            else:
                _format_rows(fh, chunk)
        for chunk in rest[len(helpers):]:
            _format_rows(fh, chunk)
    finally:
        for proc, out in helpers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            out.close()


def _start_helper(chunk):
    """A helper formatting ``chunk`` into an anonymous file, or None if none starts.

    The helper reads the chunk's doubles from a file of their bytes,
    written row by row from the array's buffer.  ``subprocess`` is
    imported here, not at start-up, which only a large write pays for.
    """
    import subprocess

    argv = [sys.executable, "-I", "-S", _csvrows.__file__, str(chunk.shape[1])]
    out = None
    try:
        with tempfile.TemporaryFile() as source:
            for row in chunk:
                source.write(np.ascontiguousarray(row))
            source.seek(0)
            out = tempfile.TemporaryFile()
            proc = subprocess.Popen(argv, stdin=source, stdout=out, stderr=subprocess.DEVNULL)
    except OSError:  # no temporary file or no process
        if out is not None:
            out.close()
        return None
    return proc, out


def _holds_rows(out, rows: int) -> bool:
    """Whether the file ``out`` holds exactly ``rows`` complete lines; rewinds it."""
    out.seek(0)
    count, last = 0, b""
    for block in iter(lambda: out.read(1 << 16), b""):
        count += block.count(b"\n")
        last = block[-1:]
    out.seek(0)
    return count == rows and last == b"\n"


def write_point_cloud(path, points: np.ndarray):
    """Write a point cloud with a coordinate header row (x0, x1, ...)."""
    points = np.asarray(points, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i}" for i in range(points.shape[1])) + "\n")
        _write_rows(fh, points)


def write_matrix(path, mat: np.ndarray):
    """Write a dense matrix row-major at full round-trip precision.

    Each entry is :func:`format_value` of it.  With two or more usable
    CPUs, a matrix of 200,000 or more entries is formatted in helper
    processes as well as this one (see the module docstring); the file
    is the same byte for byte, and this process still holds only about
    one row as Python objects.
    """
    mat = np.asarray(mat, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, mat)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_value(v)
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def render_report(fields: dict) -> str:
    """Key-sorted ``key=value`` lines; None values are omitted."""
    lines = []
    for key in sorted(fields):
        if fields[key] is None:
            continue
        lines.append(f"{key}={_render_value(fields[key])}")
    return "\n".join(lines) + "\n"


def write_report(path, fields: dict):
    """Write the textual report to ``path`` and a JSON sidecar to ``path + '.json'``."""
    text = render_report(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    clean = {k: v for k, v in fields.items() if v is not None}
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(clean, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_truth(path) -> set[int]:
    """Read ground-truth outlier indices: integers separated by commas/newlines."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    tokens = [tok for chunk in text.split() for tok in chunk.split(",") if tok]
    try:
        return {int(tok) for tok in tokens}
    except ValueError as exc:
        raise FormatError(f"{path}: truth file must contain integer indices") from exc
