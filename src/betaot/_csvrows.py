"""The CSV row formatter, free of numpy so that helper processes can run it.

:func:`format_row` is the one rule for a written row: each entry is the
shortest round-trip decimal (``repr``), and an exact zero of either
sign is the literal ``0``.  ``fileio`` calls it for the rows it formats
itself.

Run as a script, the module is such a helper::

    python -I -S _csvrows.py WIDTH < doubles > rows.csv

It reads native-endian doubles from standard input until the end, then
writes them to standard output as rows of ``WIDTH`` entries.
"""

import sys


def format_row(values) -> str:
    """One CSV line of the Python floats ``values``, newline included."""
    if 0.0 in values:
        return ",".join([repr(v) if v else "0" for v in values]) + "\n"
    return ",".join(map(repr, values)) + "\n"


def _main(width: int) -> None:
    data = memoryview(sys.stdin.buffer.read()).cast("d")
    write = sys.stdout.write
    for start in range(0, len(data), width):
        write(format_row(data[start:start + width].tolist()))


if __name__ == "__main__":
    _main(int(sys.argv[1]))
