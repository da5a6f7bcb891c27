"""CSV readers: the ``np.loadtxt`` fast path against the line parser."""

import os
import tempfile

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from betaot.fileio import (
    _parse_cost_matrix,
    _parse_point_cloud,
    read_cost_matrix,
    read_point_cloud,
)

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


def _compare(text, read, parse):
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))

        def slow(p):
            with open(p, "r", encoding="utf-8") as fh:
                return parse(p, fh)

        fast, reference = _outcome(read, path), _outcome(slow, path)
    finally:
        os.unlink(path)
    event("array" if isinstance(reference, np.ndarray) else "error")
    assert _same(fast, reference), (text, fast, reference)


class TestFastReaderMatchesLineParser:
    @settings(max_examples=300, deadline=None)
    @given(csv_texts(header=True))
    def test_point_cloud(self, text):
        _compare(text, read_point_cloud, _parse_point_cloud)

    @settings(max_examples=300, deadline=None)
    @given(csv_texts(header=False))
    def test_cost_matrix(self, text):
        _compare(text, read_cost_matrix, _parse_cost_matrix)

    def test_header_only_file_gives_empty_cloud_without_warning(self, tmp_path, recwarn):
        path = tmp_path / "header.csv"
        path.write_text("x0,x1,x2\n\n")
        assert read_point_cloud(path).shape == (0, 3)
        assert not recwarn.list
