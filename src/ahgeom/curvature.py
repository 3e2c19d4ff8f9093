"""Curvature of the metric in its orthonormal co-frame.

Everything reduces to one scalar function kappa(a, b, c): the nontrivial
Riemann components are its cyclic permutations,

    R_1001 = R_2301 = R_2332 = kappa(a, b, c) = a''/a,
    R_2002 = R_3102 = R_3113 = kappa(b, c, a) = b''/b,
    R_3003 = R_1203 = R_1221 = kappa(c, a, b) = c''/c,

their cyclic sum vanishes (Ricci-flatness), and the anti-self-duality of the
connection is equivalent to three scalar identities in the first
derivatives.  All functions are pure and accept numpy arrays where division
makes sense, including samples whose fields are arrays.
"""
from __future__ import annotations

import numpy as np

from .ode import CoefficientSample


def kappa(a, b, c):
    """Curvature generator; the three sectional values are its cyclic
    permutations.  Symmetric in the last two arguments by construction
    (only (b - c)^2 and (b + c) appear)."""
    if np.any(np.asarray(a * b * c) == 0.0):
        raise ValueError("kappa is singular where abc = 0; the r = 0 values "
                         "come from kappa_at_zero")
    # near r = 0 the numerator cancels to O(r^2) from O(1) terms, so its
    # rounding shows; np.float_power is libm's pow, as Python's ** on floats
    # is (numpy's ** is not), so arrays and floats give the same bits
    pw = np.float_power
    d2 = pw(b - c, 2)
    s = b + c
    num = 2.0 * pw(a, 4) - a * a * d2 - pw(a, 3) * s + a * d2 * s - s * s * d2
    # associate the product as a*(bc) so swapping b and c is bit-exact
    return num / (2.0 * pw(a * (b * c), 2))


def kappa_term_scale(a, b, c):
    """Magnitude of the dominant term entering kappa's numerator, over the
    common denominator.  The natural yardstick for the rounding level of the
    cyclic-sum cancellation."""
    t = abs(a) + abs(b) + abs(c)
    return t ** 4 / (2.0 * (a * b * c) ** 2)


def kappa_at_zero(m: float):
    """Curvature at the zero section, where kappa itself is 0/0: the limits
    (k1, k2, k3) = (-3/(2 m^2), 3/(4 m^2), 3/(4 m^2))."""
    if not m > 0:
        raise ValueError(f"m must be positive, got {m}")
    return -1.5 / m ** 2, 0.75 / m ** 2, 0.75 / m ** 2


def curvature_components(sample: CoefficientSample):
    """The sectional values (k1, k2, k3) = (a''/a, b''/b, c''/c) at r > 0,
    arrays for a sample of arrays."""
    if np.any(sample.r <= 0.0):
        raise ValueError("curvature_components needs r > 0; use kappa_at_zero")
    a, b, c = sample.a, sample.b, sample.c
    return kappa(a, b, c), kappa(b, c, a), kappa(c, a, b)


def asd_residual(sample: CoefficientSample):
    """Scalar content of the anti-self-duality identities:

        e1 = a' + (b^2 + c^2 - a^2)/(2bc) - 1   and cyclic companions.

    All three vanish exactly when the derivatives satisfy the coefficient
    system, so this is the pointwise hyper-Kaehler certificate.
    """
    a, b, c = sample.a, sample.b, sample.c
    e1 = sample.da + (b * b + c * c - a * a) / (2.0 * b * c) - 1.0
    e2 = sample.db + (c * c + a * a - b * b) / (2.0 * c * a) - 1.0
    e3 = sample.dc + (a * a + b * b - c * c) / (2.0 * a * b) - 1.0
    return e1, e2, e3


def fiber_gauss_curvature(sample: CoefficientSample) -> float:
    """Gauss curvature of the totally geodesic fiber surface with induced
    metric dr^2 + (a^2/4) dpsi^2, i.e. K = -a''/a.  At r = 0 both a and a''
    vanish; the limit is 3/(2 m^2) with m = -b(0)."""
    at_zero = sample.r == 0.0
    a = np.where(at_zero, 1.0, sample.a)
    return np.where(at_zero, 1.5 / sample.b ** 2, -sample.dda / a)[()]
