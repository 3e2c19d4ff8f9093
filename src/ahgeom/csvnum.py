"""The "%.17g" text of float64 tables, written by numpy.

csv_bytes(table) is, byte for byte, the CSV lines that one
",".join(["%.17g"] * cols) % row per row would make.  For |x| with decimal
exponent e (10^e <= |x| < 10^(e+1)) the 17 significant digits are the
integer D nearest P = |x| * 10^(16-e).  e is found by searching a table of
the doubles nearest 10^e.  The search is never one too low, as a double
at or above 10^(e+1) is at or above the double nearest it; it is one too
high only at a double below 10^e that rounds to it, where P < 10^16.  So
P < 10^17, and D < 10^17 too: a double below 10^(e+1) by less than 5e-18
of it would be the double nearest it.  10^k = 10^(16-e) is tabled as
hi + lo: hi the double nearest 10^k, lo the double nearest 10^k - hi, so
|10^k - hi - lo| <= 2^-106 * 10^k.  Dekker's two-product gives
|x| * hi = ph + pl exactly, and r = pl + |x| * lo adds two roundings.  With
P < 2^57, ph + r is within 2^-47, below 1e-14, of P; where lo = 0
(0 <= k <= 22) it is exact.  For P >= 10^16, ph >= 2^53 is an integer, so
D = ph + rint(r), with residue r - rint(r).  Python's own "%.17g" writes an
element whose residue lies within _MARGIN of a tie (1/2), or whose P is not
above 10^16 by more than _MARGIN; and NaN, +-inf and |x| outside the
tables.  The margin is 0 where the product is exact, so of those elements
only exact ties, and doubles that round a power of ten down, go to Python.
Then a template per exponent and digit count lays out the fixed or
scientific form "%g" picks.

All of it is float64 arithmetic on integers below 2^53 (D is held as
q * 10^8 + low), copies, and integer min and max: loops that evaluating
a table runs anyway, where the first loop of another kind a process runs
maps in 64 KB more of numpy's code, and so raises its peak RSS.  This
module is apart from the writers because compiling a module takes
transient memory in proportion to its source, about 70 bytes a byte.
"""
from __future__ import annotations

import math

import numpy as np

_MARGIN = 1e-6
# The exponents e the kernel formats: |x| in [1e-280, 1e291), so that the
# splits of |x| and of 10^(16-e) and every table entry are normal doubles.
_E_MIN, _E_MAX = -280, 290
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit doubles
_ROUND = 6755399441055744.0  # 1.5 * 2^52: (y + _ROUND) - _ROUND is rint(y)
# Each number is laid out in a 32-byte slot, whose NUL bytes are dropped:
# the sign at byte 0, a lead "0." and zeros at 1..5, the digits at 6..23,
# the exponent at 24..28 and "," or "\n" at 29.  Bytes 6..23 take the
# digits before the point from a copy of the digits one byte to the left,
# then the point, then the digits where they are stored, at 7..23.
_SLOT = 32


def _tables():
    """The tables of _decimal and _slots, in the order of their names."""
    exps = range(_E_MIN, _E_MAX + 2)
    # the double nearest 10^k, and the double nearest the rest, for
    # k = _E_MIN..16 - _E_MIN, from 10^k = 5^k * 2^k, 5^k in integers
    hi, lo = {}, {}
    five = 1
    for n in range(17 - _E_MIN):
        for k in {n, -n}:
            if k >= _E_MIN:
                p, q = (five, 1) if k >= 0 else (1, five)
                num, den = (p / q).as_integer_ratio()
                hi[k] = math.ldexp(p / q, k)
                lo[k] = math.ldexp((p * den - num * q) / (q * den), k)
        five *= 5
    tens = np.array([hi[e] for e in exps])
    pow10 = np.array([[table[16 - e] for e in exps[:-1]]
                      for table in (hi, lo)])
    # the ASCII of 00..99, each as a little-endian uint16; and, for pairs
    # 1..8 of a 17-digit D (digits 1..2, 3..4, ...), the count of
    # significant digits that the pair's last nonzero digit makes, 0 for 00
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2")
    nsig = np.array([[2 * k - 1 + (2 if i % 10 else 1) if i else 0
                      for i in range(100)] for k in range(1, 9)], np.uint8)
    # the templates: for each exponent X = -4..16 of the fixed form (the
    # scientific form lays its digits out as X = 0 does) and each count
    # 0..17 of significant digits (0, from the pairs of 10^16, laid out as
    # 1), the literal bytes and the masks of the shifted and of the stored
    # digits
    x = np.arange(-4.0, 17.0)[:, None, None]
    count = np.arange(0.0, 18.0)[:, None]
    count = np.where(count > 1, count, 1.0)
    j = np.arange(-6.0, _SLOT - 6.0)  # byte 6 + j holds digit j
    point = np.where(x > 0, x, 0.0)  # the last digit before the point
    byte = np.uint8
    layouts = np.empty((3, 21, 18, _SLOT), byte)
    layouts[0] = np.where(
        (x >= 0) & (j == point + 1) & (count > point + 1), byte(ord(".")),
        np.where((x < 0) & (j >= x - 1) & (j < 0),
                 np.where(j == x, byte(ord(".")), byte(ord("0"))), byte(0)))
    layouts[1] = np.where(
        (j >= 0) & np.where(x >= 0, j <= point, j < count), byte(255),
        byte(0))
    layouts[2] = np.where((x >= 0) & (j > point + 1) & (j - 1 < count),
                          byte(255), byte(0))
    # per exponent, the index of its first template, and its bytes
    first = [18.0 * (e + 4 if -4 <= e <= 16 else 4) for e in exps]
    exponent = b"".join((b"e%+03d" % e if e < -4 or e > 16 else b"")
                        .ljust(8, b"\0") for e in exps)
    return (tens, pow10, pairs, nsig.ravel(),
            *layouts.reshape(3, -1, _SLOT), np.array(first),
            np.frombuffer(exponent, "<u8"))


(_TENS, _POW10, _ASCII2, _NSIG2, _LITERAL, _SHIFTED, _STORED, _FIRST,
 _EXPONENT) = _tables()


def _split(a):
    """a as hi + lo, each with at most 26 significant bits."""
    hi = _SPLIT * a
    hi -= hi - a
    return hi, a - hi


def _decimal(x):
    """For each element of x: the 17-digit integer D of "%.17g" as q, its
    first 9 digits, and low, its last 8; the index of its decimal exponent
    in the tables; and whether the kernel can write it.  D is 0 at +-0.
    The arrays are updated in place, so that few are alive at once."""
    ax = np.abs(x)
    ok = (ax >= _TENS[0]) & (ax < _TENS[-1])  # False at 0, NaN and inf
    ax[~ok] = 1.0
    i = np.searchsorted(_TENS, ax, side="right") - 1
    hi, lo = _POW10[0][i], _POW10[1][i]
    exact = lo == 0
    (x_hi, x_lo), (hi_hi, hi_lo) = _split(ax), _split(hi)
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
    d = r + _ROUND
    d -= _ROUND
    r -= d  # the residue
    # D = ph + d = q * 10^8 + low, exactly: q * 10^8 is exact for q < 10^10
    q = ph * 1e-8
    q += _ROUND
    q -= _ROUND
    low = q * 1e8
    np.subtract(ph, low, out=low)
    low += d
    del ph, d
    borrow = low < 0
    q[borrow] -= 1
    low[borrow] += 1e8
    margin = np.where(exact, 0.0, _MARGIN)
    ok &= ((np.abs(r) < 0.5 - margin) & (q >= 1e8)
           & ((q > 1e8) | (low > 0) | (r >= margin)))
    zero = x == 0
    q[zero] = 0.0
    low[zero] = 0.0
    return q, low, i, ok | zero


def _group(part, scale):
    """part // scale and part % scale for an integer part, a double with
    part / scale below 10^4; the bias, above the rounding of
    part * (1 / scale), lifts it over any integer it lies on."""
    high = np.floor(part * (1 / scale) + 1e-10)
    return high, part - high * scale


def _slots(q, low, i):
    """The 32-byte slots of the numbers (q * 10^8 + low) * 10^(e-16), e the
    exponent at index i, without sign and separator."""
    n = q.size
    pairs = np.empty((9, n), np.intp)
    pairs[0], high = _group(q, 1e8)  # digit 0, and digits 1..8
    for k, part in ((1, high), (5, low)):
        fours = _group(part, 1e4)
        pairs[k], pairs[k + 1] = _group(fours[0], 1e2)
        pairs[k + 2], pairs[k + 3] = _group(fours[1], 1e2)
    del high
    digits = np.empty(n * _SLOT + 1, np.uint8)
    # half-word 3 takes "0" and digit 0, so that digit 0 sits at byte 7
    digits[:-1].view("<u2").reshape(n, _SLOT // 2)[:, 3:12] = (
        _ASCII2[pairs].T)
    pairs[1:] += np.arange(0, 800, 100)[:, None]
    template = _FIRST[i] + _NSIG2[pairs[1:]].max(axis=0)
    del pairs
    template = template.astype(np.intp)
    out = np.take(_LITERAL, template, axis=0)
    flat = out.reshape(-1)
    mask = np.empty_like(out)
    # a mask byte is 255 or 0, so min(mask, digit) keeps or drops the digit
    for masks, source in ((_SHIFTED, digits[1:]), (_STORED, digits[:-1])):
        np.take(masks, template, axis=0, out=mask)
        np.maximum(flat, np.minimum(mask.reshape(-1), source,
                                    out=mask.reshape(-1)), out=flat)
    out.view("<u8")[:, 3] = _EXPONENT[i]
    return out


def csv_bytes(table):
    """The CSV lines of a 2-D float64 table: each element as "%.17g",
    joined by "," and ended by "\\n"."""
    x = table.ravel()
    q, low, i, ok = _decimal(x)
    out = _slots(q, low, i)
    out[np.signbit(x), 0] = ord("-")
    ends = out.reshape(*table.shape, _SLOT)[:, :, 29]
    ends[:, :-1] = ord(",")
    ends[:, -1] = ord("\n")
    for k in np.flatnonzero(~ok):
        text = b"%.17g" % x[k]
        out[k, :29] = 0
        out[k, :len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0")
