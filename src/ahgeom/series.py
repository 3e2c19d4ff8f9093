"""Exact power-series solution of the coefficient system about r = 0.

The coefficient functions are reconstructed through the parity-respecting
variables (a, p, q) = (a, c + b, c - b): a and p are odd functions of r, q is
even, which is exactly the smoothness statement for the metric across the
zero section.  In these variables the system, after clearing denominators,
is polynomial:

    a' * (p^2 - q^2)           = 2 (a^2 - q^2)
    q' * a * (p^2 - q^2)       = 2 q (p^2 - a^2)
    (p' - 2) * a * (p^2 - q^2) = 2 p (q^2 - a^2)

with a = 2r + O(r^3), p = r + O(r^3), q = 2m + O(r^2).  Matching coefficients
order by order gives a triangular linear step per order: the r^(2j) component
of the second identity determines q_{2j}, then the r^(2j) component of the
first determines a_{2j+1}, then the r^(2j+1) component of the third
determines p_{2j+1}.  Each unknown enters that r^k coefficient linearly, so
it is evaluated, alone, with the unknown at 0 and at 1 and solved.  The
products p^2 - q^2, a (p^2 - q^2), p^2 - a^2 and q^2 - a^2 are coefficient
lists filled one degree at a time: an evaluation at degree k finds the lower
degrees final and takes one convolution per product at degree k, so the
series through degree n costs O(n^2) exact products, not O(n^3).

The m = 1 coefficients are dyadic rationals with small numerators, so the
recurrence runs in float64 and every sum, product and quotient in it is
exact through order 30 (order 31 is the first to round); expand refuses
higher orders.  verify's series check proves the stored floats exact: it
converts them to Fractions, which is exact, and substitutes them into the
cleared identities in rationals (formal_residual_ok), so only that check
loads fractions.  The k-th coefficient scales exactly as m**(1-k), so only
the m = 1 coefficients are ever computed; m enters through that scaling.
"""
from __future__ import annotations

from functools import lru_cache

from .config import Record

# the highest order whose float recurrence is exact
_MAX_ORDER = 30


def _mul(u, v, deg):
    """Product of coefficient lists, truncated at degree `deg`."""
    out = [0] * (deg + 1)
    for i, ui in enumerate(u):
        if ui == 0 or i > deg:
            continue
        for j, vj in enumerate(v):
            k = i + j
            if k > deg:
                break
            if vj != 0:
                out[k] += ui * vj
    return out


def _sub(u, v):
    n = max(len(u), len(v))
    return [(u[k] if k < len(u) else 0) - (v[k] if k < len(v) else 0)
            for k in range(n)]


def _diff(u):
    return [k * u[k] for k in range(1, len(u))]


def _scale(u, s):
    return [s * uk for uk in u]


def _cleared_residuals(A, P, Q, deg):
    """Coefficient lists of the three cleared identities, through degree `deg`."""
    dA, dP, dQ = _diff(A), _diff(P), _diff(Q)
    p2q2 = _sub(_mul(P, P, deg), _mul(Q, Q, deg))
    a_p2q2 = _mul(A, p2q2, deg)
    e1 = _sub(_mul(dA, p2q2, deg),
              _scale(_sub(_mul(A, A, deg), _mul(Q, Q, deg)), 2))
    e2 = _sub(_mul(dQ, a_p2q2, deg),
              _scale(_mul(Q, _sub(_mul(P, P, deg), _mul(A, A, deg)), deg), 2))
    dPm2 = list(dP) if dP else [0]
    dPm2[0] = dPm2[0] - 2
    e3 = _sub(_mul(dPm2, a_p2q2, deg),
              _scale(_mul(P, _sub(_mul(Q, Q, deg), _mul(A, A, deg)), deg), 2))
    return e1, e2, e3


def _at(u, v, k):
    """Coefficient of r^k in the product of u and v, coefficient lists that
    reach degree k: one convolution at one degree."""
    out = 0.0
    for i in range(k + 1):
        if u[i] and v[k - i]:
            out += u[i] * v[k - i]
    return out


def _at_diff(u, v, k):
    """Coefficient of r^k in u' v, with u reaching degree k + 1."""
    out = 0.0
    for i in range(k + 1):
        if u[i + 1] and v[k - i]:
            out += (i + 1) * u[i + 1] * v[k - i]
    return out


@lru_cache(maxsize=None)
def _unit_coefficients(order: int):
    """m = 1 series coefficients of (a, p, q) through degree `order`, with
    s = p^2 - q^2, t = a s, u = p^2 - a^2 and v = q^2 - a^2 filled degree by
    degree.  A zero linear coefficient would mean the recurrence is
    degenerate, which the leading terms rule out."""
    # one spare slot: the derivative's r^k coefficient reads degree k + 1
    A, P, Q, s, t, u, v = ([0.0] * (order + 2) for _ in range(7))
    A[1], P[1], Q[0] = 2.0, 1.0, 2.0

    def products_at(k):
        pp, qq, aa = _at(P, P, k), _at(Q, Q, k), _at(A, A, k)
        s[k], u[k], v[k] = pp - qq, pp - aa, qq - aa
        t[k] = _at(A, s, k)
        return aa, qq

    def identity_at(which, k):
        # r^k coefficient of the `which`-th identity (`_cleared_residuals`)
        aa, qq = products_at(k)
        if which == 0:
            return _at_diff(A, s, k) - 2 * (aa - qq)
        if which == 1:
            return _at_diff(Q, t, k) - 2 * _at(Q, u, k)
        return _at_diff(P, t, k) - 2 * t[k] - 2 * _at(P, v, k)

    def solve(which, k, target, index):
        target[index] = 0.0
        r0 = identity_at(which, k)
        target[index] = 1.0
        lam = identity_at(which, k) - r0
        if lam == 0:
            raise ArithmeticError(
                f"degenerate recurrence at order {k} (identity {which})")
        target[index] = -r0 / lam

    products_at(0)
    for k in range(1, order + 1):
        if k % 2 == 0:
            solve(1, k, Q, k)
            if k < order:
                solve(0, k, A, k + 1)
        elif k > 1:
            solve(2, k, P, k)
        products_at(k)  # finished: the unknowns at degree k are set
    return tuple(A[:-1]), tuple(P[:-1]), tuple(Q[:-1])


def _horner012(coeffs, s):
    """Value and first two derivatives of sum(c_k s^k) at s."""
    v = d = d2 = 0.0
    for c in reversed(coeffs):
        d2 = d2 * s + d
        d = d * s + v
        v = v * s + c
    return v, d, 2.0 * d2


class SeriesCoefficients(Record):
    """Truncated series of (a, p, q) about r = 0 for sphere radius m.

    unit_* hold the m = 1 coefficients, floats that are exact rationals; the
    coefficient of r^k for parameter m is unit_*[k] * m**(1-k), which
    coeff_* give as Fractions.
    """

    __slots__ = ("m", "order", "unit_a", "unit_p", "unit_q")

    def __init__(self, m: float, order: int, unit_a: tuple, unit_p: tuple,
                 unit_q: tuple):
        for k in range(order + 1):
            if k % 2 == 0 and (unit_a[k] != 0 or unit_p[k] != 0):
                raise ValueError(f"parity violated: even-order term in a or p at k={k}")
            if k % 2 == 1 and unit_q[k] != 0:
                raise ValueError(f"parity violated: odd-order term in q at k={k}")
        if unit_a[1] != 2 or unit_p[1] != 1 or unit_q[0] != 2:
            raise ValueError("leading series terms do not match the model")
        super().__init__(m, order, unit_a, unit_p, unit_q)

    def _scaled(self, unit):
        # imported here, so that only verify's series check loads fractions
        from fractions import Fraction

        mf = Fraction(self.m)
        return tuple(Fraction(c) * mf ** (1 - k) for k, c in enumerate(unit))

    @property
    def coeff_a(self) -> tuple:
        return self._scaled(self.unit_a)

    @property
    def coeff_p(self) -> tuple:
        return self._scaled(self.unit_p)

    @property
    def coeff_q(self) -> tuple:
        return self._scaled(self.unit_q)

    def apq(self, r: float):
        """(a, p, q) and their first two r-derivatives at radius r.

        Evaluates the unit series at s = r/m and rescales; for m an exact
        binary multiple this makes the m-scaling of the result exact.
        """
        s = r / self.m
        a, da, dda = _horner012(self.unit_a, s)
        p, dp, ddp = _horner012(self.unit_p, s)
        q, dq, ddq = _horner012(self.unit_q, s)
        m = self.m
        return (m * a, m * p, m * q, da, dp, dq, dda / m, ddp / m, ddq / m)

    def truncation_radius(self, tol: float) -> float:
        """Largest radius where the last retained term of a/r, p/r and q/m
        stays below tol/10, i.e. where truncating the series is safely below
        the integration tolerance."""
        bound = tol / 10.0
        s0 = float("inf")
        for unit, shift in ((self.unit_a, 1), (self.unit_p, 1), (self.unit_q, 0)):
            k = max(i for i, c in enumerate(unit) if c != 0)
            expo = k - shift
            if expo <= 0:
                continue
            s0 = min(s0, (bound / abs(unit[k])) ** (1.0 / expo))
        return self.m * s0


def expand(m: float, order: int = 10) -> SeriesCoefficients:
    """Series solution of the coefficient system through degree `order`."""
    if not 4 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [4, {_MAX_ORDER}], got {order}")
    if not m > 0:
        raise ValueError(f"m must be positive, got {m}")
    A, P, Q = _unit_coefficients(order)
    return SeriesCoefficients(m=float(m), order=order, unit_a=A, unit_p=P, unit_q=Q)


def formal_residual_ok(series: SeriesCoefficients) -> bool:
    """Substitute the series, as exact rationals, into the cleared identities
    and confirm that every coefficient that fixes a stored unknown vanishes:
    those of the second and third identities through r^order, and of the
    first, whose r^order coefficient needs a_(order+1), through r^(order-1).
    So a stored coefficient that is off by one ulp fails."""
    n = series.order
    e1, e2, e3 = _cleared_residuals(list(series.coeff_a),
                                    list(series.coeff_p),
                                    list(series.coeff_q), n)
    return all(c == 0 for c in (*e1[:n], *e2[:n + 1], *e3[:n + 1]))
