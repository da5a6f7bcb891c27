"""CSV and report serialization shared by the command-line entry points.

Point-cloud files are one point per row, comma-separated decimals, with
an optional single header row (detected by a non-numeric first row).
Cost matrices and plans are dense comma-separated rows without headers.
Both are read by one reader.  Its fast path streams the file in chunks
of whole lines, a few hundred KB each, checks each chunk's shape with
one ``bytes.translate`` and parses it with ``np.fromstring`` as
``np.longdouble``, glibc's correctly rounded ``strtold``; the rare
values that its second rounding could get wrong are re-read by
``float()`` (see :func:`_parse_piece`), so every value has the bits of
``float(token)``.  Large files are parsed in two halves per chunk, on
the calling thread and one helper thread, when two CPUs are usable.
Any file that the fast path does not vouch for goes to the earlier
reader: ``np.loadtxt``, else one line parser, so each error reads the
same.  Plans are written with full round-trip precision and exact zeros
as the literal ``0``: each entry is :func:`format_value` of it, ``repr``
of the float.

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
import os
from collections import namedtuple

import numpy as np

from . import _ryu, solver
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
    """The finite table at ``path``: the fast path, else ``np.loadtxt``, else the line parser."""
    rows = _fast_table(path, table)
    if rows is not None:
        return rows
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


# Bytes of whole lines parsed per chunk: a chunk's text, its longdouble
# values and their temporaries stay within 2-4 MB.
_CHUNK_BYTES = 1 << 19

# From this many bytes of rows on, a chunk is parsed as two halves on two
# threads when two CPUs are usable; numpy releases the GIL in the parse.
# Measured on a 2-vCPU Xeon guest (rows of 1000 costs written with
# ``%.17g``, one chunk): one thread against two took 0.49 against 0.56 ms
# at 39 KB, 0.73 against 0.69 ms at 77 KB, 1.9 against 1.2 ms at 134 KB,
# and 0.27 against 0.16 s for a whole 19 MB file.  The threshold sits
# higher, so that small files such as ``detect``'s point clouds (about
# 200 KB) do not pay the first two-half read's import of
# ``concurrent.futures`` (about 11 ms, once per process) for about 1 ms.
_TWO_HALF_BYTES = 1 << 20

# The characters of the numbers the fast path reads; deleting them from
# valid rows leaves only the commas and line ends.
_NUMBER_CHARS = b"0123456789.eE+-"

# Whether np.longdouble is x87's 80-bit format, little-endian in 16 bytes
# (1.5 is significand 0xC000000000000000, biased exponent 0x3FFF): the
# layout that _parse_piece reads the bits of.
_X87 = (np.dtype(np.longdouble).itemsize == 16
        and np.array(1.5, np.longdouble).tobytes()[:10] == bytes(7) + b"\xc0\xff\x3f")

# x87's biased exponent of the smallest normal double, 2**-1022.
_X87_MIN_NORMAL_EXPONENT = 0x3FFF - 1022


class _Declined(Exception):
    """The fast path does not vouch for a piece; the earlier reader reads the file."""


def _fast_table(path, table: _Table):
    """The table at ``path`` read in chunks by ``strtold``, or None.

    None when the first line is blank or holds a CR, when ``np.longdouble``
    is not x87's format, or when a piece of a chunk fails its check,
    ``np.fromstring`` stops early (a ``ValueError``, or a
    ``DeprecationWarning`` that the warning filters raise) or a value is
    not finite: the earlier reader then reads the file, so every error
    and header rule stays its own.  Each chunk is ``k`` pieces of whole
    lines, parsed by
    :func:`_parse_piece` on ``solver._block_runner(k)``; this thread then
    casts their values straight into one output, sized from the first
    chunk and the file's length, so the read holds the table and about
    one chunk.
    """
    if not _X87:
        return None
    with open(path, "rb") as fh:
        first = fh.readline()
        try:
            text = first.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if not text.strip() or "\r" in text:
            return None
        if not table.header or _parse_numeric_row(text.strip()) is not None:
            fh.seek(0)
        start = fh.tell()
        size = os.fstat(fh.fileno()).st_size - start
        k = 2 if size >= _TWO_HALF_BYTES and solver._usable_cpus() >= 2 else 1
        line = b"," * text.count(",") + b"\n"
        out, count = np.empty(0), 0
        try:
            with solver._block_runner(k) as run:
                while jobs := _next_chunk(fh, k):
                    run(_parse_piece, jobs, line)
                    total = count + sum(job[0].size for job in jobs)
                    if total > out.size:
                        # The file so far predicts the rest.
                        out.resize(max(total, total * size // (fh.tell() - start)), refcheck=False)
                    while jobs:  # emptied, so that no chunk outlives its turn
                        count = _cast(out, count, *jobs.pop(0))
        except (_Declined, ValueError, DeprecationWarning):
            return None
    out.resize(count, refcheck=False)
    return out.reshape(-1, len(line))


def _next_chunk(fh, k: int) -> list:
    """The next ``k`` pieces of whole lines of ``fh``, each in a list of its own; [] at the end."""
    jobs = [[fh.read(_CHUNK_BYTES // k) + fh.readline()] for _ in range(k)]
    return jobs if jobs[0][0] else []


def _cast(out, at: int, values, redo, exact) -> int:
    """Store a piece's values as doubles in ``out`` from ``at`` on; the end of the piece."""
    dest = out[at:at + values.size]
    with np.errstate(over="ignore"):  # an infinity declines below
        dest[...] = values
    dest[redo] = exact
    if not np.isfinite(dest).all():
        raise _Declined
    return at + values.size


def _parse_piece(job, line):
    """Check and parse the rows ``job[0]``; ``job`` then holds their
    longdouble values, the positions of those to re-read, and the values
    re-read.

    The piece is checked whole: deleting the characters of numbers from
    it must leave ``line * rows``, ``line`` being ``dim - 1`` commas and
    a line end.  That rules out any other character, a ragged or blank
    line, CR and whitespace, and each of the ``len(line) * rows`` fields
    ends in one separator.

    ``np.fromstring`` reads each token by ``strtold``, which rounds its
    exact value x to L, the nearest number with a 64-bit significand; the
    cast to float64 then rounds L to the nearest double.  That gives x's
    nearest double, as ``float()`` does, unless L is a midpoint of two
    adjacent doubles.  Every double and every midpoint p has at most 54
    significant bits, so x87's format holds it, 2**1024 beyond the
    largest double included.  Rounding is monotone and keeps such p
    fixed, so x < p gives L <= p and x > p gives L >= p.  So when L is no
    midpoint, L and x lie on the same side of every midpoint and round to
    the same double (or both overflow, and the read declines as not
    finite).  For |L| at or above the smallest normal double, L is a
    midpoint exactly when its significand ends in the 11 bits ``0x400``
    (the 54th bit set, the ten below clear).  Below it the doubles are
    spaced more widely than 53 bits, so every nonzero L there counts.
    These tokens are re-read by ``float()``.

    Text written with ``%.17g`` never has one: its error is under 5e-17
    of the value and a midpoint lies over 2**-54 (5.55e-17) of it away,
    so L stays about a hundred 64-bit units clear of any midpoint.
    """
    piece = job[0]
    if piece and not piece.endswith(b"\n"):  # the file's last line, unterminated
        piece += b"\n"
    skeleton = piece.translate(None, _NUMBER_CHARS)
    rows = len(skeleton) // len(line)
    if skeleton != line * rows:
        raise _Declined
    text = piece.replace(b"\n", b",")
    values = np.fromstring(text, dtype=np.longdouble, sep=",")
    # Where a token is malformed the parse stops after it: numpy raises
    # ValueError, or in older releases warns and returns the values so
    # far.  Then the count falls short, or the token is the last one,
    # which float() checks (it takes the numbers that strtold reads whole).
    if values.size != len(skeleton):
        raise _Declined
    if values.size:
        float(text[text.rfind(b",", 0, -1) + 1:-1])
    words = values.view(np.uint64)
    significand, exponent = words[0::2], words[1::2] & 0x7FFF
    redo = np.flatnonzero(((significand & 0x7FF) == 0x400)
                          | ((exponent < _X87_MIN_NORMAL_EXPONENT) & (significand != 0)))
    tokens = text.split(b",") if redo.size else []
    job[:] = values, redo, [float(tokens[i]) for i in redo]


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
