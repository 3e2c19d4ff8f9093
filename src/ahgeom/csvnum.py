"""The "%.17g" text of float64 tables, written by numpy.

csv_bytes(table) is, byte for byte, the CSV lines that one
",".join(["%.17g"] * cols) % row per row would make.  For |x| with decimal
exponent e (10^e <= |x| < 10^(e+1)) the 17 significant digits are the
integer D nearest P = |x| * 10^(16-e).  e is the index of |x| in a table of
the doubles nearest 10^e.  The index is never one too low, as a double
at or above 10^(e+1) is at or above the double nearest it; it is one too
high only at a double below 10^e that rounds to it, where P < 10^16.  So
P < 10^17, and D < 10^17 too: a double below 10^(e+1) by less than 5e-18
of it would be the double nearest it.  10^k = 10^(16-e) is tabled as
hi + lo: hi the double nearest 10^k, lo the double nearest 10^k - hi, so
|10^k - hi - lo| <= 2^-106 * 10^k.  Dekker's two-product gives
|x| * hi = ph + pl exactly, and r = pl + |x| * lo adds two roundings.  With
P < 2^57, ph + r is within 2^-47, below 1e-14, of P; where lo = 0
(0 <= k <= 22) it is exact.  For P >= 10^16, ph >= 2^53 is an integer, so
D = ph + rint(r), with residue r - rint(r), and D < 10^17 < 2^63 is an
int64, exactly: four floor divisions by 10^4 give D // 10^4, D // 10^8,
D // 10^12 and digit 0 = D // 10^16, and each less 10^4 times the next
leaves D's four 4-digit groups.  Python's own "%.17g" writes an
element whose residue lies within _MARGIN of a tie (1/2), or whose P is not
above 10^16 by more than _MARGIN; and NaN, +-inf and |x| outside the
tables.  The margin is 0 where the product is exact, so of those elements
only exact ties, and doubles that round a power of ten down, go to Python.

The top 16 bits of |x| give e up to one compare; tables give the text and
significant digits of D's 4-digit groups, and a layout per e and count.
All is exact: float64 arithmetic on integers, int64 sums, products and
floor divisions, compares, copies, integer min and max.
"""
from __future__ import annotations

import functools

import numpy as np

_MARGIN = 1e-6
# The exponents e the kernel formats: |x| in [1e-280, 1e291), so that the
# splits of |x| and of 10^(16-e) and every table entry are normal doubles.
_E_MIN, _E_MAX = -280, 290
_DECADE = 0.018814374728998825  # log10(2) / 16
_OFFSET = 1 - _E_MIN - 16368 * _DECADE
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit doubles
# A number's 32-byte slot, whose NULs are dropped: the sign at byte 0 (as
# 1, translated to "-"), a lead "0." and zeros at 1..5, the digits at 6..23,
# the exponent at 24..28 and "," or "\n" at 29.  Digits before the point
# are the stored ones (7..23) one byte to the left.
_SLOT = 32
_MINUS = bytes([0, ord("-"), *range(2, 256)])


def _split(a):
    """a as hi + lo, each with at most 26 significant bits."""
    hi = _SPLIT * a
    hi -= hi - a
    return hi, a - hi


@functools.cache
def _tables():
    """The kernel's tables, built at its first call, in memory that the
    rows' evaluation freed: built at import, they raised peak RSS."""
    exps = range(_E_MIN, _E_MAX + 1)
    # the double nearest 10^k and that nearest the rest, for k = _E_MIN..
    # 16 - _E_MIN: int / int rounds correctly
    hi, lo = {}, {}
    p, q = 1, 10 ** -_E_MIN  # 10^k = p / q
    for k in range(_E_MIN, 17 - _E_MIN):
        num, den = (p / q).as_integer_ratio()
        hi[k], lo[k] = p / q, (p * den - num * q) / (q * den)
        p, q = (p * 10, 1) if q == 1 else (1, q // 10)
    tens = np.array([hi[e] for e in range(_E_MIN, _E_MAX + 2)])
    # "%04d" as uint32s; and per group 1..4 of D, the significant digits its
    # last nonzero digit makes (0 for 0000), from its two pairs
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2")
    ascii4 = np.empty((100, 100, 2), "<u2")
    ascii4[..., 0], ascii4[..., 1] = pairs[:, None], pairs
    nsig = [np.array([i and 2 * k + 1 - (i % 10 == 0) for i in range(100)],
                     np.uint8) for k in range(1, 9)]
    nsig = [np.maximum(a[:, None], b).ravel()
            for a, b in zip(nsig[::2], nsig[1::2])]
    # per exponent X = -4..16 of the fixed form (the scientific form as
    # X = 0) and count 0..17 of significant digits (0 as 1): the literal
    # bytes, and the masks of shifted and of stored digits
    x = np.arange(-4.0, 17.0)[:, None, None]
    count = np.arange(18.0)[:, None]
    shifted = np.where(x < 0, np.where(count > 1, count, 1.0), x + 1)
    stored = count - shifted
    j = np.arange(-6.0, _SLOT - 6.0)  # byte 6 + j holds digit j
    nul, dot, zero, ones = (np.uint8(c) for c in b"\0.0\xff")
    layouts = np.array([
        np.where((j == shifted) & (stored > 0), dot,
                 np.where((x < 0) & (j >= x - 1) & (j < 0),
                          np.where(j == x, dot, zero), nul)),
        np.where((j >= 0) & (j < shifted), ones, nul),
        np.where((j > shifted) & (j <= shifted + stored), ones, nul)])
    # per e: hi, its split, lo, the margin, its first template, and its
    # text as the bits of a double
    hi, lo = (np.array([table[16 - e] for e in exps]) for table in (hi, lo))
    text = b"".join((b"e%+03d" % e if e < -4 or e > 16 else b"")
                    .ljust(8, b"\0") for e in exps)
    by_e = np.array([hi, *_split(hi), lo, np.where(lo == 0, 0.0, _MARGIN),
                     [18.0 * (e + 4 if -4 <= e <= 16 else 4) for e in exps],
                     np.frombuffer(text, "<f8")])
    return (tens, by_e, ascii4.view("<u4").ravel(), nsig,
            *layouts.reshape(3, -1, _SLOT))


def _index(ax):
    """The index of the last power in tens at or below each element of ax,
    all in [tens[0], tens[-1])."""
    tens = _tables()[0]
    # the top 16 bits, 16 (E + 1023) + m with 2^E (1 + m / 16) <= |x|, times
    # log10(2) / 16 are log10|x| less 0 to 0.053: i is the index or one more
    i = np.floor(ax.view("<u2")[3::4] * _DECADE + _OFFSET).astype(np.intp)
    i -= ax < tens[i]
    return i


def _decimal(x):
    """Digit 0 and the 4-digit groups of D (0 at +-0), the index of e, and
    whether the kernel can write each element of x.  Arrays are updated in
    place, so that few are alive."""
    tens, by_e = _tables()[:2]
    ax = np.abs(x)
    tabled = (ax >= tens[0]) & (ax < tens[-1])  # False at 0, NaN and inf
    ax = np.where(tabled, ax, 1.0)
    i = _index(ax)
    hi, hi_hi, hi_lo, lo = by_e[:4].take(i, axis=1)
    x_hi, x_lo = _split(ax)
    ph = ax * hi
    lo *= ax
    # r = pl + |x| * lo, summed in this order
    r = x_hi * hi_hi
    r -= ph
    x_hi *= hi_lo
    r += x_hi
    hi_hi *= x_lo
    r += hi_hi
    hi_lo *= x_lo
    r += hi_lo
    r += lo
    del ax, hi, lo, x_hi, x_lo, hi_hi, hi_lo
    # D = ph + rint(r) as an int64, 0 outside the tables
    d = np.rint(r)
    r -= d  # the residue
    D = np.where(tabled, ph, 0.0).astype(np.int64)
    D += d.astype(np.int64)
    del ph, d
    # D + r - 10^16, whose rounding keeps its sign and any part >= 1/2
    margin = by_e[4][i]
    above = (D - 10**16).astype(np.float64)
    above += r
    ok = tabled & (above >= margin)
    np.abs(r, out=r)
    r += margin
    ok &= r < 0.5
    ok |= x == 0
    del above, r, margin
    # row k of groups is first D // 10^(16 - 4k), by floor divisions by
    # 10^4 down from row 4 = D; less 10^4 times the row above, rows 4..1
    # are then D's 4-digit groups, and row 0 is digit 0
    groups = np.empty((5, x.size), np.int64)
    groups[4] = D
    del D
    for k in range(3, -1, -1):
        np.floor_divide(groups[k + 1], 10**4, out=groups[k])
    groups[1:] -= groups[:-1] * 10**4
    return groups, i, ok


def csv_bytes(table):
    """The CSV lines of a 2-D float64 table: each element as "%.17g",
    joined by "," and ended by "\\n"."""
    _, by_e, ascii4, nsig, literal, shifted, stored = _tables()
    x = table.ravel()
    n = x.size
    groups, i, ok = _decimal(x)
    digits = np.empty(n * _SLOT + 1, np.uint8)
    # word 1 takes "000" and digit 0, so that digit 0 sits at byte 7
    digits[:-1].view("<u4").reshape(n, _SLOT // 4)[:, 1:6] = ascii4[groups].T
    count = nsig[0][groups[1]]
    for k in range(1, 4):
        np.maximum(count, nsig[k][groups[k + 1]], out=count)
    del groups
    template = np.add(by_e[5][i], count, out=np.empty(n, np.intp),
                      casting="unsafe")
    out = np.take(literal, template, axis=0)
    out.view("<u8")[:, 3] = by_e[6][i].view("<u8")
    del i
    flat = out.reshape(-1)
    mask = np.empty(n * _SLOT, np.uint8)
    # a mask byte is 255 or 0, so min(mask, digit) keeps or drops the digit;
    # every template is in range, and with mode="clip" take writes straight
    # to its out= array, where "raise" first fills a buffer as large
    for masks, source in ((shifted, digits[1:]), (stored, digits[:-1])):
        np.take(masks, template, axis=0, out=mask.reshape(n, _SLOT),
                mode="clip")
        np.maximum(flat, np.minimum(mask, source, out=mask), out=flat)
    del mask, digits, template
    out[:, 0] = np.signbit(x).view(np.uint8)
    ends = out.reshape(*table.shape, _SLOT)[:, :, 29]
    ends[:, :-1] = ord(",")
    ends[:, -1] = ord("\n")
    for k in np.flatnonzero(~ok):
        text = b"%.17g" % x[k]
        out[k, :29] = 0
        out[k, :len(text)] = np.frombuffer(text, np.uint8)
    text = out.tobytes()
    del out, flat, ends  # not held while translate builds the result
    return text.translate(_MINUS, b"\0")
