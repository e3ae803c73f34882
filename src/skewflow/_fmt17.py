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
double-double by Dekker's split and TwoProduct (Dekker 1971); adding
|x| * lo and renormalising rounds twice more.  The remainder's own error is
below 2**-106 of 10**k.  So y is known to about 2**-104 relative, under
1e-14 of the last digit.  Since y >= 1e16 > 2**53, the double part hi is an
integer and lo carries the fraction, so the digits are hi + floor(lo), plus
one when the fraction exceeds one half.

Fallback.  The arithmetic cannot decide a fraction within 1e-6 of one half:
it may be an exact tie, which ``"%.17g"`` rounds to even.  Such a value
goes to Python's own formatting, as do nan, +-inf and every |x| outside
[1e-280, 1e280), where the split could overflow or the remainder
underflow.  Zeros stay on the fast path.  The estimate
p = floor(log10|x|) may be one off beside a power of ten; the values whose
y falls outside [1e16, 1e17) are scaled again with p corrected, and a y
that rounds up to 10**17 becomes 10**16 with p + 1.

Text.  Four-digit table lookups give the 17 ASCII digits, and a table of
the trailing zeros of 0000..9999 their count.  Each value is keyed by its
layout: fixed with its p, or scientific with its digit count and exponent
width; and its sign.  One sort by key makes each layout a contiguous run of
values, written with slice copies into a byte grid that holds one value's
text per column, left-aligned, then its separator.  A prefix mask clears
the cells after the separator; one row gather of the transposed grid
restores the order, and dropping the cleared bytes joins the texts.

A block of fewer than ``SMALL`` numbers goes wholly through the fallback,
which is faster there.  :func:`text_blocks` formats at most
``BLOCK_NUMBERS`` numbers at a time, so that a writer holds one block.
Every table is built on first use.
"""

import functools

import numpy as np

SPEC = "%.17g"
# numbers per block of text_blocks: 2048 rows of a five-column CSV
BLOCK_NUMBERS = 10240
# below this many numbers per-value formatting beats the bulk kernel
SMALL = 700

# the magnitudes the bulk arithmetic handles (see the module docstring)
_TINY = 1e-280
_HUGE = 1e280
# half-width of the window around one half sent to the fallback
_TIE_WINDOW = 1e-6
# exponents of the power-of-ten table
_K_MIN, _K_MAX = -330, 308
# grid cells per value: the longest text, sign, 17 digits, "." and
# "e-308", then the separator
_W = 25
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
# layout keys: 0-20 fixed with p = key - 4, 21-54 scientific with
# 2 * (digits - 1) + (3-digit exponent); + _NEG when the sign bit is set
_FIXED = 21
_NEG = 55
_NKEYS = 2 * _NEG


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
def _text_tables():
    # ASCII of 0000..9999 as little-endian 4-byte words, and the trailing
    # zeros of each (4 for 0000)
    n = np.arange(10000)
    quads = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    trailing = np.zeros(10000, np.uint8)
    for step in (10, 100, 1000, 10000):
        trailing += n % step == 0
    quads = (quads + 48).astype(np.uint8).view("<u4").ravel()
    # "e+dd" / "e-ddd" by exponent, index p - _K_MIN, zero-padded to 5
    exps = np.zeros((_K_MAX - _K_MIN + 1, 5), np.uint8)
    for i, p in enumerate(range(_K_MIN, _K_MAX + 1)):
        text = ("e%+03d" % p).encode()
        exps[i, : len(text)] = np.frombuffer(text, np.uint8)
    return quads, trailing, exps


def _split(a):
    c = _SPLIT * a
    big = c - (c - a)
    return big, a - big


def _scaled(a, k):
    """``a * 10**k`` as a normalised double-double ``(hi, lo)``."""
    t_hi, t_lo = pow10_table()
    th, tl = t_hi.take(k - _K_MIN), t_lo.take(k - _K_MIN)
    prod = a * th
    ah, al = _split(a)
    bh, bl = _split(th)
    err = ((ah * bh - prod) + ah * bl + al * bh) + al * bl
    tail = err + a * tl
    hi = prod + tail
    return hi, tail - (hi - prod)


def _digits(a):
    """17-digit integers and decimal exponents of ``a`` (positive, in range),
    and a mask of the values the arithmetic could not decide."""
    p = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - p)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = low | high
    if off.any():
        p += high.astype(np.int64) - low
        hi[off], lo[off] = _scaled(a[off], 16 - p[off])
    floor_lo = np.floor(lo)
    frac = lo - floor_lo
    digits = hi.astype(np.int64) + floor_lo.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    p += carry
    # beside 10**16 a rounded y can still fall out of range: leave it undecided
    undecided = (np.abs(frac - 0.5) < _TIE_WINDOW) | (digits < 10**16) | (digits >= 10**17)
    return digits, p, undecided


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
    n = x.shape[0]
    quads, trailing, exps = _text_tables()

    a = np.abs(x)
    fast = (a >= _TINY) & (a < _HUGE)
    d, p, undecided = _digits(np.where(fast, a, 1.0))
    stand_in = undecided | ~fast
    slow = stand_in & (a != 0.0)
    if stand_in.any():
        d[stand_in] = p[stand_in] = 0

    # 17 digits as five 4-digit chunks "000d dddd dddd dddd dddd"
    chunks = [None] * 5
    rest = d
    for j in range(4, 0, -1):
        rest, chunks[j] = np.divmod(rest, 10000)
    chunks[0] = rest
    tz = trailing[chunks[1]]
    for c in chunks[2:]:
        tz = np.where(c == 0, tz + 4, trailing[c])
    count = 17 - tz.astype(np.int64)

    neg = np.signbit(x)
    fixed = (p >= -4) & (p < 17)
    wide = np.abs(p) >= 100
    key = np.where(fixed, p + 4, _FIXED + 2 * (count - 1) + wide) + _NEG * neg
    length = np.where(
        fixed,
        np.where(p >= 0, np.maximum(p + 1, count + (count > p + 1)), 1 - p + count),
        count + (count > 1) + 4 + wide,
    ) + neg

    # in key order each layout is a run of columns of a (cell, value) grid,
    # built by slice copies
    order = np.argsort(key.astype(np.int8), kind="stable")
    counts = np.bincount(key, minlength=_NKEYS)
    ends = np.cumsum(counts)
    words = np.empty((n, 5), "<u4")
    for j, c in enumerate(chunks):
        words[:, j] = quads.take(c)
    dg = words.view(np.uint8).take(order, axis=0)[:, 3:].T.copy()
    ex = np.ascontiguousarray(exps.take(p.take(order) - _K_MIN, axis=0).T)
    grid = np.zeros((_W, n), np.uint8)
    for k in np.flatnonzero(counts):
        start, stop = ends[k] - counts[k], ends[k]
        g, dk = grid[:, start:stop], dg[:, start:stop]
        s, layout = divmod(int(k), _NEG)
        if s:
            g[0] = 45  # "-"
        if layout < _FIXED:
            e = layout - 4
            if e >= 0:
                g[s:s + e + 1] = dk[:e + 1]
                g[s + e + 1] = 46  # "."
                g[s + e + 2:s + 18] = dk[e + 1:]
            else:
                g[s:s + 1 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)[:, None]
                g[s + 1 - e:s + 18 - e] = dk
        else:
            m, w3 = divmod(layout - _FIXED, 2)
            g[s] = dk[0]
            if m:
                g[s + 1] = 46  # "."
                g[s + 2:s + 2 + m] = dk[1:m + 1]
            at = s + 1 + m + (m > 0)
            g[at:at + 4 + w3] = ex[:4 + w3, start:stop]

    # separator after each text, nothing after the separator
    width = rows.shape[1]
    seps = np.full(n, ord(sep), np.uint8)
    seps[width - 1::width] = 10  # "\n"
    sorted_length = length.take(order)
    grid.ravel()[sorted_length * n + np.arange(n)] = seps.take(order)
    cells = np.arange(_W, dtype=np.uint8)
    grid *= np.less_equal.outer(cells, sorted_length.astype(np.uint8)).view(np.uint8)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    out = np.ascontiguousarray(grid.T).take(inverse, axis=0)
    for i in np.flatnonzero(slow):
        text = (SPEC % float(x[i])).encode() + bytes([seps[i]])
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def text_blocks(n, width, rows, sep):
    """Yield the text of an ``n``-row, ``width``-column table block by block.

    ``rows(a, b)`` returns rows ``a:b`` as a ``(b - a, width)`` float array.
    A block holds at most ``BLOCK_NUMBERS`` numbers (at least one row), so
    a caller that writes each block as it comes never holds more.
    """
    step = max(1, BLOCK_NUMBERS // width)
    for a in range(0, n, step):
        yield format_rows(rows(a, min(a + step, n)), sep)
