"""CSV and report serialization shared by the command-line entry points.

Point-cloud files are one point per row, comma-separated decimals, with
an optional single header row (detected by a non-numeric first row).
Cost matrices and plans are dense comma-separated rows without headers.
Both are read by one reader: ``np.loadtxt``, else one line parser, so
each error reads the same.  Plans are written with full round-trip
precision and exact zeros as the literal ``0``: each entry is
:func:`format_value` of it, ``repr`` of the float.

The writers format blocks of about ``_BLOCK_ENTRIES`` entries (whole
rows) with one numpy kernel, ``_ryu.csv_rows``, which gives ``repr``'s
shortest digits and layout from the IEEE bits (NaN and the infinities
get ``repr``'s text from a table).  A write runs on the calling thread
in this process, holds about one block at a time, and starts no
process or thread.

Reports are line-oriented ``key=value`` text, key-sorted for stable
diffs, plus a JSON sidecar with the same fields.
"""

import hashlib
import json
from collections import namedtuple

import numpy as np

from . import _ryu
from .errors import FormatError

# Entries per written block: the kernel's arrays for one block stay
# near 1 MB, and the numpy calls it makes per block stay cheap.
_BLOCK_ENTRIES = 8192


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


def _write_rows(fh, mat: np.ndarray):
    """Write the rows of ``mat`` to the binary file ``fh``, each entry as :func:`format_value`."""
    m, n = mat.shape
    if n == 0:
        fh.write(b"\n" * m)
        return
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, m, step):
        fh.write(_ryu.csv_rows(np.ascontiguousarray(mat[start:start + step])))


def write_point_cloud(path, points: np.ndarray):
    """Write a point cloud with a coordinate header row (x0, x1, ...)."""
    points = np.asarray(points, dtype=float)
    with open(path, "wb") as fh:
        fh.write(",".join(f"x{i}" for i in range(points.shape[1])).encode("ascii") + b"\n")
        _write_rows(fh, points)


def write_matrix(path, mat: np.ndarray):
    """Write a dense matrix row-major at full round-trip precision.

    Each entry is :func:`format_value` of it, formatted a block of rows
    at a time by one numpy kernel (see the module docstring).
    """
    mat = np.asarray(mat, dtype=float)
    with open(path, "wb") as fh:
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
