"""Shortest round-trip decimals of float64 blocks, as CSV bytes, in numpy.

:func:`csv_rows` turns a block of rows into the bytes that
``fileio.format_value`` gives entry by entry: ``repr`` of each float,
except that either zero is ``0``.  The digits are Ryu's (Adams, "Ryu:
fast float-to-string conversion", PLDI 2018): the shortest decimal that
reads back as the same double and, of those, the closest to it, which
is what ``repr`` prints.  The layout is ``repr``'s too: fixed notation
when the decimal point lies after digit -4 (exclusive) up to digit 16
(inclusive), ``.0`` on integers, and ``e`` with a sign and at least two
exponent digits otherwise.  NaN and the infinities take ``repr``'s text.

Every step runs on whole arrays, one block at a time:

- **Digits.**  Ryu reads ``vr``, ``vp`` and ``vm`` (the value and the
  bounds of its rounding interval, scaled by a power of ten) off
  ``(4 m2 + c) * M / 2**j`` for a 125-bit multiplier ``M`` and a shift
  ``j`` in 118..125 that depend on the exponent only.  Here ``M`` is
  stored shifted so that every read starts at bit 128: the product
  ``P = m2 * W`` (``W = 4 * 2**(128 - j) * M``) is formed once from
  32-bit limbs held in ``uint64`` arrays, and ``vp`` and ``vm`` follow
  from ``P + D`` and ``P - D`` (``D = W / 2``) by 64-bit additions with
  carries.  The tables come from Python ints on first use.  Ryu's rare
  general case, where ``vr`` or ``vm`` is exact (small integers, short
  binary fractions, large values), runs on the same arrays: the digit
  removal loops become counts, taken by halving steps.
- **Layout.**  Each entry's text is placed in 32 fixed bytes, four
  ``uint64`` words: the sign, up to 22 digit and point bytes ending at
  byte 23, the exponent suffix and the separator.  The point goes in as
  a zero digit, the digits come four at a time from a table, and one
  word per layout class makes the shown bytes ASCII and the point '.'.
- **Bytes.**  ``bytes.translate`` drops the NUL padding, after leading
  words that no entry of the block uses.

No ``uint64`` operand meets a signed one (``np.uint64`` scalars, explicit
casts and views), so numpy releases without NEP 50 promote nothing to
float.
"""

import functools
from typing import NamedTuple

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_ABS = _U((1 << 63) - 1)
_INF = _U(0x7FF << 52)
_ONE = _U(0x3FF << 52)  # the bits of 1.0, which stand in for zeros, NaN and inf
_MANT = _U((1 << 52) - 1)
_P10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# Half the unit of the last removed digit; none removed is never half.
_HALF = np.array([(1 << 64) - 1] + [5 * 10**k for k in range(19)], dtype=np.uint64)
_DEC0 = 330  # decpt + _DEC0 indexes the per-decimal-point tables
_NDEC = 650


def _log10_pow2(e):
    return (e * 78913) >> 18


def _log10_pow5(e):
    return (e * 732923) >> 20


def _pow5_bits(e):
    return ((e * 1217359) >> 19) + 1


def _limbs(value, count, bits):
    return [(value >> (bits * i)) & ((1 << bits) - 1) for i in range(count)]


def _text_word(text):
    """``text`` as the bytes of a little-endian integer, first byte lowest."""
    return sum(b << (8 * i) for i, b in enumerate(text.encode("ascii")))


class _Tables(NamedTuple):
    w: np.ndarray  # (5, 2048): 32-bit limbs of W, by exponent field
    d: np.ndarray  # (3, 2048): 64-bit limbs of D
    e10: np.ndarray  # Ryu's decimal exponent of vr
    tz_mask: np.ndarray  # vr is exact iff m2 & tz_mask == 0 (off the rare exponents)
    rare: np.ndarray  # exponents whose bounds may be exact (Ryu's q <= 21 or q <= 1)
    q: np.ndarray
    big: np.ndarray  # e2 >= 0: Ryu's first branch
    p5: np.ndarray  # 5**q, q <= 21
    digits: np.ndarray  # decimal digits of 2**b, b = 0..64
    group: np.ndarray  # the four digits of n < 10**4 as bytes, first digit lowest
    layout: np.ndarray  # (ol, decpt) -> class
    text: np.ndarray  # (3, classes): the words that make shown bytes text
    scale: np.ndarray  # per class, the power of ten that appends zeros
    point: np.ndarray  # per class, 10**nfrac: where the point goes in
    suffix: np.ndarray  # decpt -> the exponent suffix word (0 in fixed notation)
    zero: int  # the class of '0'
    empty: int  # the class with no digits (NaN and inf)
    special: np.ndarray  # suffix words of 'nan' and 'inf'


def _ryu_tables():
    """Ryu's multipliers, pre-shifted, and its trailing-zero tests, by exponent field."""
    w = np.zeros((5, 2048), dtype=np.uint64)
    d = np.zeros((3, 2048), dtype=np.uint64)
    e10 = np.zeros(2048, dtype=np.int64)
    tz_mask = np.full(2048, (1 << 64) - 1, dtype=np.uint64)
    rare = np.zeros(2048, dtype=bool)
    q_of = np.zeros(2048, dtype=np.int64)
    big = np.zeros(2048, dtype=bool)
    for field in range(2047):  # 2047 (NaN and inf) never reaches the tables
        e2 = max(field, 1) - 1077
        if e2 >= 0:
            q = _log10_pow2(e2) - (e2 > 3)
            k = 125 + _pow5_bits(q) - 1
            j = q + k - e2
            mul = (1 << k) // 5**q + 1
            e10[field] = q
            rare[field] = q <= 21
        else:
            q = _log10_pow5(-e2) - (-e2 > 1)
            i = -e2 - q
            k = _pow5_bits(i) - 125
            j = q - k
            mul = 5**i >> k if k >= 0 else 5**i << -k
            e10[field] = q + e2
            rare[field] = q <= 1
            if 2 <= q < 63:
                tz_mask[field] = (1 << (q - 2)) - 1  # mv = 4 m2 has q trailing 0 bits
        q_of[field] = q
        big[field] = e2 >= 0
        w[:, field] = _limbs(mul << (130 - j), 5, 32)
        d[:, field] = _limbs(mul << (129 - j), 3, 64)
    return w, d, e10, tz_mask, rare, q_of, big


def _layout_tables():
    """The layout classes, and which class each (digits, decpt) takes.

    A class shows the last ``shown`` digits of ``v = output * mult``,
    the last ``nfrac`` of them after a point (no point if 0).  The point
    goes in as a zero digit: ``v + 9 * (v // point) * point`` with
    ``point = 10**nfrac`` moves the digits left of it one place on.  The
    digits then sit right-aligned at byte 23 as raw values 0-9; the
    class's text words turn each shown byte into ASCII and the point's
    into '.', and leave every other byte NUL.
    """
    classes, index = [], {}

    def cls(shown, nfrac, mult):
        key = (shown, nfrac, mult)
        if key not in index:
            first = 24 - shown - (nfrac > 0)
            text = sum(ord("0") << (8 * b) for b in range(first, 24))
            if nfrac:
                text += (ord(".") - ord("0")) << (8 * (23 - nfrac))
            index[key] = len(classes)
            # v < 10**18: with no point, or nothing but '0' left of it,
            # v // 10**19 is the 0 that leaves v as it is.
            point = 10**nfrac if 0 < nfrac < 19 else 10**19
            classes.append(_limbs(text, 3, 64) + [mult, point])
        return index[key]

    layout = np.zeros((18, _NDEC), dtype=np.intp)
    suffix = np.zeros(_NDEC, dtype=np.uint64)
    for decpt in range(-_DEC0, _NDEC - _DEC0):
        fixed = -4 < decpt <= 16
        if not fixed:
            suffix[decpt + _DEC0] = _text_word("e%+03d" % (decpt - 1))
        for ol in range(1, 18):
            if fixed:
                nfrac = max(ol - decpt, 1)
                c = cls(max(decpt, 1) + nfrac, nfrac, 10 ** max(decpt - ol + 1, 0))
            else:
                c = cls(ol, ol - 1, 1)
            layout[ol, decpt + _DEC0] = c
    zero, empty = cls(1, 0, 0), cls(0, 0, 0)
    special = np.array([_text_word(repr(v)) for v in (float("nan"), float("inf"))],
                       dtype=np.uint64)
    classes = np.array(classes, dtype=np.uint64).T.copy()
    return layout, classes[:3].copy(), classes[3], classes[4], suffix, zero, empty, special


@functools.cache
def _tables() -> _Tables:
    """Every table, built on the first write and only read after it."""
    w, d, e10, tz_mask, rare, q, big = _ryu_tables()
    layout, text, scale, point, suffix, zero, empty, special = _layout_tables()
    n = np.arange(10**4, dtype=np.uint64)
    group = sum((n // _U(10**k) % _U(10)) << _U(8 * (3 - k)) for k in range(4))
    return _Tables(
        w, d, e10, tz_mask, rare, q, big,
        p5=np.array([5**k for k in range(22)], dtype=np.uint64),
        digits=np.array([len(str(1 << b)) for b in range(65)], dtype=np.intp),
        group=group, layout=layout.ravel(), text=text, scale=scale, point=point,
        suffix=suffix, zero=zero, empty=empty, special=special,
    )


def _products(t, fi, m2, half):
    """Ryu's ``vr``, ``vp`` and ``vm`` for exponent fields ``fi`` and mantissas ``m2``.

    The product ``P = m2 * W`` is summed in 32-bit columns, each below
    2**55 before the carries; ``vp = (P + D) >> 128`` and
    ``vm = (P - D) >> 128`` follow by 64-bit limbs.  At the indices
    ``half`` (powers of two, Ryu's mmShift = 0) the lower bound is half
    as far: ``vm = (P - D / 2) >> 128``.
    """
    lo = m2 & _M32
    hi = m2 >> _U(32)
    limbs, nxt = [], _U(0)
    for k in range(5):  # column k is complete once limb k of W is in
        w = np.take(t.w[k], fi)
        a = w * lo
        w *= hi
        col = (a & _M32) + nxt
        a >>= _U(32)
        a += w
        a += col >> _U(32)
        nxt = a
        limbs.append(col & _M32)
    del w, a, col, lo, hi
    p0 = limbs[0] | (limbs[1] << _U(32))
    p1 = limbs[2] | (limbs[3] << _U(32))
    vr = limbs[4] | (nxt << _U(32))
    del limbs, nxt
    d = np.take(t.d, fi, axis=1)
    s1 = p1 + d[1]
    carry = (s1 < p1) | ((s1 == _U(0xFFFFFFFFFFFFFFFF)) & (p0 + d[0] < p0))
    vp = vr + d[2] + carry
    if half.size:
        d0, d1, d2 = d[:, half]
        d[0, half] = (d0 >> _U(1)) | (d1 << _U(63))
        d[1, half] = (d1 >> _U(1)) | (d2 << _U(63))
        d[2, half] = d2 >> _U(1)
    s1 = p1 - d[1]
    borrow = (p1 < d[1]) | ((s1 == _U(0)) & (p0 < d[0]))
    vm = vr - d[2] - borrow
    return vr, vp, vm


def _remove(vp, vm):
    """Ryu's count of digits to drop: the most whose removal keeps vp > vm.

    Returns the count and ``vm`` without them.
    """
    removed = np.zeros(vp.size, dtype=np.int64)
    for step in (16, 8, 4, 2, 1):
        tp = vp // _P10[step]
        tm = vm // _P10[step]
        go = tp > tm
        if go.any():
            vp = np.where(go, tp, vp)
            vm = np.where(go, tm, vm)
            removed += go * step
    return removed, vm


def _shortest(bits):
    """Ryu's shortest digits of the positive finite doubles with ``bits``.

    Returns ``(output, exponent)``: the decimal digits as an integer and
    the power of ten of the last of them.  Ryu's general case (``vr`` or
    ``vm`` exact) takes the same steps: its rounding rules hold for
    every entry, and its tests and second loop run where they can apply.
    """
    t = _tables()
    field = bits >> _U(52)
    fi = field.view(np.int64)
    mant = bits & _MANT
    m2 = mant | (((field + _U(2047)) >> _U(11)) << _U(52))
    half = np.flatnonzero(mant == _U(0))
    half = half[fi[half] > 1]  # powers of two above the subnormals: Ryu's mmShift = 0
    vr, vp, vm = _products(t, fi, m2, half)
    vr_tz = (m2 & np.take(t.tz_mask, fi)) == _U(0)  # vr is exact
    vm_tz = None
    at = np.flatnonzero(np.take(t.rare, fi))
    if at.size:  # Ryu's tests where a bound may be exact: 5**q | mv, mm or mp (e2 >= 0)
        f, mv = fi[at], m2[at] << _U(2)
        ms = ((mv & (_MANT << _U(2))) != _U(0)) | (f <= 1)  # Ryu's mmShift
        accept = (mv & _U(4)) == _U(0)  # m2 even: the bounds round to it
        p5 = np.take(t.p5, np.minimum(t.q[f], 21))
        five = (mv % _U(5)) == _U(0)
        big = t.big[f]
        vr_tz[at] = np.where(big, five & (mv % p5 == _U(0)), True)
        vm_tz = np.zeros(bits.size, dtype=bool)
        vm_tz[at] = accept & np.where(big, ~five & ((mv - _U(1) - ms) % p5 == _U(0)), ms)
        vp[at] -= ~accept & np.where(big, ~five & ((mv + _U(2)) % p5 == _U(0)), True)
        at = np.flatnonzero(vm_tz)
        vm_exact = vm[at]
    removed, vm = _remove(vp, vm)
    del vp
    if vm_tz is not None and at.size:
        # Ryu's second loop drops the trailing zeros of vm while every
        # digit removed from vm was 0.
        r, x = removed[at], vm[at]
        zeros = x * np.take(_P10, r) == vm_exact
        for step in (16, 8, 4, 2, 1):
            y = x // _P10[step]
            go = zeros & (y * _P10[step] == x) & (x != _U(0))
            x = np.where(go, y, x)
            r += go * step
        removed[at], vm[at], vm_tz[at] = r, x, zeros
    # Round half up; exactly half with vr exact, to even.  vr == vm needs
    # one more unless vm is exact and its bound belongs to the interval.
    scale = np.take(_P10, removed)
    out = vr // scale
    rest = vr - out * scale
    unit = np.take(_HALF, removed)
    up = (rest > unit) | ((rest == unit) & ~(vr_tz & ((out & _U(1)) == _U(0))))
    low = out == vm
    if vm_tz is not None:
        low &= ~(vm_tz & ((m2 & _U(1)) == _U(0)))
    return out + (low | up), np.take(t.e10, fi) + removed


def csv_rows(block: np.ndarray) -> bytes:
    """The CSV lines of the rows of ``block``, a C-ordered float64 array with columns.

    A block of integers below 10**16 (counts, integer costs) skips Ryu:
    the integer itself is the shortest decimal there.
    """
    t = _tables()
    rows, n = block.shape
    bits = block.reshape(-1).view(np.uint64)
    absb = bits & _ABS
    special = np.flatnonzero((absb - _U(1)) >= (_INF - _U(1)))  # zeros, NaN and inf
    if special.size:
        absb[special] = _ONE
    absf = absb.view(np.float64)
    if ((absf < 1e16) & (np.floor(absf) == absf)).all():
        output = absf.astype(np.uint64)
        exponent = np.zeros(bits.size, dtype=np.int64)
    else:
        output, exponent = _shortest(absb)
    del absb, absf

    # Digit count and decimal point -> layout class and exponent suffix.
    bexp = (output.astype(np.float64).view(np.uint64) >> _U(52)) - _U(1023)
    ol = np.take(t.digits, bexp.view(np.int64))
    ol += output >= np.take(_P10, ol)
    at = ol + exponent + _DEC0
    cls = np.take(t.layout, ol * _NDEC + at)
    suffix = np.take(t.suffix, at)
    del bexp, ol, at, exponent
    sign = bits >> _U(63)
    if special.size:
        kept = bits[special] & _ABS
        cls[special] = np.where(kept == _U(0), t.zero, t.empty)
        suffix[special] = np.where(kept == _U(0), _U(0),
                                   t.special[(kept == _INF).view(np.int8)])
        sign[special] &= kept == _INF  # no sign on zeros or NaN
    v = output * np.take(t.scale, cls)
    point = np.take(t.point, cls)
    v += (v // point) * point * _U(9)
    del output, point

    # Four-digit groups: v < 10**18 fills bytes 4..23; the class's text
    # words make the shown bytes ASCII and leave the rest NUL.
    words = np.empty((bits.size, 4), dtype="<u8")  # text order on any platform
    text = np.take(t.text, cls, axis=1)
    for i in (2, 1):
        g = v // _U(10**4)
        word = np.take(t.group, (v - g * _U(10**4)).view(np.int64)) << _U(32)
        v = g // _U(10**4)
        word |= np.take(t.group, (g - v * _U(10**4)).view(np.int64))
        words[:, i] = word | text[i]
    words[:, 0] = (np.take(t.group, v.view(np.int64)) << _U(32)) | text[0]
    words[:, 0] |= sign * _U(ord("-"))
    ends = suffix.reshape(rows, n)
    ends[:, :-1] |= _U(ord(",") << 56)
    ends[:, -1] |= _U(ord("\n") << 56)
    words[:, 3] = suffix
    del v, g, word, text, cls, sign, suffix, ends
    first = 0  # leading words that are NUL in every entry need no pass
    while first < 2 and not words[:, first].any():
        first += 1
    return words[:, first:].tobytes().translate(None, b"\0")
