"""Exact ``"%.17g"`` text for float64 tables, computed in bulk.

Every number skewflow writes has 17 significant digits, so that it reads
back bit for bit.  :func:`fmt17` formats one value; :func:`format_rows` and
:func:`text_blocks` format tables, with text byte-identical to ``"%.17g"``
applied to each value, at a fraction of the cost of Python's per-value
conversion (Steele & White 1990, *How to print floating-point numbers
accurately*, computed here in double-double arithmetic).

Digits.  For finite x with 1e-280 <= |x| < 1e280 and decimal exponent p,
y = |x| * 10**(16 - p) lies in [1e16, 1e17), and the 17 digits are y
rounded to an integer.  Each 10**k is held as a pair (hi, lo): hi is 10**k
correctly rounded and lo the correctly rounded remainder, both computed
with exact integers on first use.  The product |x| * hi is exact as a
double-double by Dekker's split, tabled for each hi, and TwoProduct
(Dekker 1971); adding |x| * lo and renormalising rounds twice more.  The
remainder's own error is below 2**-106 of 10**k.  So y is known to about
2**-104 relative, under 1e-14 of the last digit.  Since y >= 1e16 > 2**53,
the double part hi is an integer and lo carries the fraction, so the
digits are hi + floor(lo), plus one when the fraction exceeds one half.

Fallback.  The arithmetic cannot decide a fraction within 1e-6 of one half:
it may be an exact tie, which ``"%.17g"`` rounds to even.  Such a value
goes to Python's own formatting, as do nan, +-inf and every |x| outside
[1e-280, 1e280), where the split could overflow or the remainder
underflow.  Zeros stay on the fast path.  The estimate
p = floor(log10|x|) may be one off beside a power of ten; the values whose
y falls outside [1e16, 1e17) are scaled again with p corrected, and a y
that rounds up to 10**17 becomes 10**16 with p + 1.

Text.  Each value's text sits in fixed cells of a byte grid, one value
per column: cell 0 holds its sign, ``-`` or NUL, cells 1-23 its unsigned
text and cell 24 its separator, and dropping every NUL at the end joins
the texts.  Four-digit table lookups give the 17 ASCII digits; a chunk
followed only by zero chunks is looked up in a second table whose
trailing zeros are NUL, so the digit text ends at its last nonzero digit
without a digit count.  A fixed layout turns NULs back into zeros in its
integer part, and a ``.`` is written only before a digit.  So the layout
depends on the exponent class alone: 21 fixed layouts, p = -4..16, and
one scientific layout, whose exponent text ``e+dd`` or ``e-ddd`` is
NUL-padded to five cells.  One sort by layout makes each a contiguous run
of columns, written with slice copies; one row scatter of the transposed
grid restores the order.

A block of fewer than ``SMALL`` numbers goes wholly through the fallback,
which is faster there.  :func:`text_blocks` formats a table that comes in
parts, such as the blocks of a streamed run, each part on its own and at
most ``BLOCK_NUMBERS`` numbers at a time, so that a writer holds one
block.  Every table is built on first use.
"""

import functools

import numpy as np

SPEC = "%.17g"
# numbers per block of text_blocks: at least 2049 * 6, so that each streamed
# gyro block is one, the first with record 0 and all with --reference's column
BLOCK_NUMBERS = 16384
# below this many numbers per-value formatting beats the bulk kernel: on the
# benchmark's rows bulk took 1.04-1.09x per-value's time at 250, 0.90-0.93x at 300
SMALL = 260

# the magnitudes the bulk arithmetic handles (see the module docstring)
_TINY = 1e-280
_HUGE = 1e280
# half-width of the window around one half sent to the fallback
_TIE_WINDOW = 1e-6
# exponents of the power-of-ten table
_K_MIN, _K_MAX = -330, 308
# grid cells per value: the sign, the longest unsigned text (17 digits,
# "." and "e-308") and the separator
_W = 25
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
# layout keys: 0-20 fixed with p = key - 4, then the scientific one
_SCI = 21
_DOT = np.uint8(46)  # "."


def fmt17(x):
    """``x`` with 17 significant digits, as written in every output."""
    return SPEC % x


@functools.lru_cache(maxsize=None)
def pow10_table():
    """``(hi, lo)`` arrays of 10**k for k in [-330, 308], index ``k + 330``.

    ``hi`` is 10**k correctly rounded to float64 and ``lo`` the correctly
    rounded remainder 10**k - hi, both from exact integer division.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        n, d = h.as_integer_ratio()
        # 10**k - n/d = (num*d - n*den) / (den*d)
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    return np.array(hi), np.array(lo)


@functools.lru_cache(maxsize=None)
def pow10_split():
    """Dekker's split ``(big, small)`` of each ``hi`` of :func:`pow10_table`.

    Near 1e308 the split overflows; the kernel never reads those entries.
    """
    hi, _ = pow10_table()
    with np.errstate(over="ignore", invalid="ignore"):
        return _split(hi)


@functools.lru_cache(maxsize=None)
def _text_tables():
    # ASCII of 0000..9999 as little-endian 4-byte words, then the same words
    # with their trailing zeros NUL (0000 all NUL), at index + 10000
    n = np.arange(10000)
    quads = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + 48
    kept = n[:, None] % np.array([10000, 1000, 100, 10]) != 0
    quads = np.concatenate([quads, quads * kept]).astype(np.uint8).view("<u4").ravel()
    # "e+dd" / "e-ddd" by exponent, index p - _K_MIN, NUL-padded to 5
    exps = np.zeros((_K_MAX - _K_MIN + 1, 5), np.uint8)
    for i, p in enumerate(range(_K_MIN, _K_MAX + 1)):
        text = ("e%+03d" % p).encode()
        exps[i, : len(text)] = np.frombuffer(text, np.uint8)
    return quads, exps


def _split(a):
    big = _SPLIT * a
    big -= big - a  # c - (c - a) with c = _SPLIT * a
    return big, a - big


def _scaled(a, k):
    """``a * 10**k`` as a normalised double-double ``(hi, lo)``."""
    i = k - _K_MIN
    th, tl = (t.take(i) for t in pow10_table())
    bh, bl = (t.take(i) for t in pow10_split())
    prod = a * th
    ah, al = _split(a)
    # err = ((ah * bh - prod) + ah * bl + al * bh) + al * bl, in place
    err = np.multiply(ah, bh)
    err -= prod
    for u, v in ((ah, bl), (al, bh), (al, bl), (a, tl)):
        err += np.multiply(u, v, out=th)
    # err is now the tail, err + a * tl
    hi = np.add(prod, err, out=ah)
    err -= np.subtract(hi, prod, out=prod)
    return hi, err


def _digits(x):
    """17-digit integers and decimal exponents of ``x``, and a mask of the
    values left to per-value formatting, whose digits and exponent read 0,
    as do those of the zeros."""
    a = np.abs(x)
    fast = (a >= _TINY) & (a < _HUGE)
    a[~fast] = 1.0
    p = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - p)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = low | high
    if off.any():
        p += high.astype(np.int64) - low
        hi[off], lo[off] = _scaled(a[off], 16 - p[off])
    floor_lo = np.floor(lo)
    frac = np.subtract(lo, floor_lo, out=lo)
    digits = hi.astype(np.int64)
    digits += floor_lo.astype(np.int64)
    digits += frac > 0.5
    carry = digits == 10**17
    digits[carry] = 10**16
    p += carry
    # beside 10**16 a rounded y can still fall out of range: leave it undecided
    frac -= 0.5
    stand_in = (np.abs(frac, out=frac) < _TIE_WINDOW) | (digits < 10**16) | (digits >= 10**17)
    stand_in |= ~fast
    p = p.astype(np.int16)
    if stand_in.any():
        digits[stand_in] = p[stand_in] = 0
    return digits, p, stand_in & (x != 0.0)


def _grid(d, p, order, counts):
    """The ``(cell, value)`` grid of the unsigned texts, in layout order."""
    quads, exps = _text_tables()
    n = d.shape[0]
    ends = np.cumsum(counts)
    d = d.take(order)
    # 17 digits as five 4-digit chunks "000d dddd dddd dddd dddd"; a chunk
    # with only zero chunks after it is read with its trailing zeros NUL
    words = np.empty((n, 5), "<u4")
    zeros_after = np.full(n, 10000)
    for j in range(4, -1, -1):
        q = d // 10000  # faster than np.divmod: a division by a constant
        c = d - q * 10000
        words[:, j] = quads.take(c + zeros_after)
        zeros_after *= c == 0
        d = q
    dg = words.view(np.uint8)[:, 3:].T
    grid = np.zeros((_W, n), np.uint8)
    for k in np.flatnonzero(counts):
        start, stop = ends[k] - counts[k], ends[k]
        g, dk = grid[:, start:stop], dg[:, start:stop]
        if k == _SCI:
            g[1] = dk[0]
            np.multiply(dk[1] != 0, _DOT, out=g[2])
            g[3:19] = dk[1:]
            g[19:24] = exps.take(p.take(order[start:stop]) - _K_MIN, axis=0).T
            continue
        e = k - 4
        if e < 0:
            g[1:2 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)[:, None]
            g[2 - e:19 - e] = dk
        else:
            np.maximum(dk[:e + 1], 48, out=g[1:e + 2])  # "0" for NUL
            if e < 16:
                np.multiply(dk[e + 1] != 0, _DOT, out=g[e + 2])
                g[e + 3:19] = dk[e + 1:]
    return grid


def _slow_rows(rows, sep):
    """:func:`format_rows` by per-value ``"%.17g"``."""
    line = sep.join([SPEC] * rows.shape[1]) + "\n"
    return "".join([line % tuple(row) for row in rows.tolist()])


def format_rows(rows, sep):
    """Text of a 2-D float array: values joined by ``sep``, each row ended
    by a newline, every value exactly as by :func:`fmt17`."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.size < SMALL:
        return _slow_rows(rows, sep)
    x = rows.ravel()
    d, p, slow = _digits(x)
    # in layout order each layout is a run of columns of the grid, built by
    # slice copies; one scatter of the grid's rows restores the order
    key = np.where((p >= -4) & (p < 17), p + 4, _SCI).astype(np.int8)
    order = np.argsort(key, kind="stable")
    out = np.empty((x.shape[0], _W), np.uint8)
    out[order] = _grid(d, p, order, np.bincount(key, minlength=_SCI + 1)).T
    np.multiply(np.signbit(x), np.uint8(45), out=out[:, 0])  # "-"
    width = rows.shape[1]
    out[:, -1] = ord(sep)
    out[width - 1::width, -1] = 10  # "\n"
    for i in np.flatnonzero(slow):
        text = (SPEC % float(x[i])).encode() + bytes([out[i, -1]])
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def text_blocks(parts, width, sep):
    """Yield the text of a ``width``-column table that comes in parts, each
    a pair ``(n, rows)`` of its row count and row function, block by block.

    ``rows(a, b)`` returns rows ``a:b`` of its part as a ``(b - a, width)``
    float array.  Each part is formatted on its own, in blocks of at most
    ``BLOCK_NUMBERS`` numbers (at least one row), so a caller that writes
    each block as it comes never holds more.
    """
    step = max(1, BLOCK_NUMBERS // width)
    for n, rows in parts:
        for a in range(0, n, step):
            yield format_rows(rows(a, min(n, a + step)), sep)
